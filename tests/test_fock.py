import itertools

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomblab import coulomb as C
from coulomblab import fock as F
from coulomblab import geometry as G


def random_state(space, seed, real=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((space.dim, space.dim))
    if not real:
        X = X + 1j * rng.standard_normal((space.dim, space.dim))
    M = X @ X.conj().T
    return F.FockState(space, M / np.trace(M).real)


def pure_state(space, vector):
    """The pure FockState of a vector, normalized."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return F.FockState(space, np.outer(v, v.conj()))


def mean_number(state):
    """<N> read off the number operator's diagonal in the occupation basis."""
    return float((state.space.totals * np.real(np.diag(state.matrix))).sum())


class TestBuildSpace:
    def test_fermion_dimension(self):
        assert F.build_space(2, "fermion").dim == 4
        assert F.build_space(10, "fermion").dim == 2 ** 10

    def test_boson_dimension(self):
        assert F.build_space(2, "boson", boson_cap=2).dim == 9

    def test_cap_error_names_cap(self):
        with pytest.raises(ValueError, match="16384"):
            F.build_space(20, "fermion")

    def test_particle_cap(self):
        sp = F.build_space(10, "fermion", n_max=2)
        assert sp.dim == 1 + 10 + 45
        assert max(sp.sectors) == 2

    def test_sectors_partition_basis(self):
        sp = F.build_space(4, "boson", boson_cap=2)
        counted = sum(len(idx) for idx in sp.sectors.values())
        assert counted == sp.dim

    def test_colex_order(self):
        sp = F.build_space(3, "fermion")
        values = [sum(n * 2 ** i for i, n in enumerate(occ)) for occ in sp.occupations]
        assert values == sorted(values)


@st.composite
def small_spaces(draw):
    """(n, statistics, boson_cap, n_max) with at most 4^4 = 256 basis rows."""
    statistics = draw(st.sampled_from(["fermion", "boson"]))
    cap = 1 if statistics == "fermion" else draw(st.integers(1, 3))
    n = draw(st.integers(1, 6 if statistics == "fermion" else 4))
    n_max = draw(st.none() | st.integers(0, n * cap))
    return n, statistics, cap, n_max


def brute_force_rows(n, cap, n_max):
    rows = [r for r in itertools.product(range(cap + 1), repeat=n)
            if n_max is None or sum(r) <= n_max]
    return sorted(rows, key=lambda r: tuple(reversed(r)))


def brute_force_ladder(rows, mode, kind, fermion):
    """Matrix of adag_mode / a_mode from its action on each basis vector."""
    pos = {r: i for i, r in enumerate(rows)}
    M = np.zeros((len(rows), len(rows)))
    for j, r in enumerate(rows):
        t = list(r)
        t[mode] += 1 if kind == "create" else -1
        i = pos.get(tuple(t))
        if i is None:
            continue
        if fermion:
            M[i, j] = (-1.0) ** sum(r[:mode])
        else:
            M[i, j] = np.sqrt(max(r[mode], t[mode]))
    return M


class TestBasisIndex:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_spaces())
    def test_against_brute_force(self, case):
        n, statistics, cap, n_max = case
        space = F.build_space(n, statistics, boson_cap=cap, n_max=n_max)
        rows = brute_force_rows(n, cap, n_max)
        assert space.occupations.tolist() == [list(r) for r in rows]
        assert space.vacuum_index() == 0
        assert np.array_equal(space.index(space.occupations), np.arange(space.dim))
        assert all(space.index(r) == i for i, r in enumerate(rows))
        basis = set(rows)
        off = [r for r in itertools.product(range(-1, cap + 2), repeat=n) if r not in basis]
        assert np.all(space.index(np.array(off).reshape(-1, n)) == -1)
        for mode in range(n):
            for kind in ("create", "annihilate"):
                expect = brute_force_ladder(rows, mode, kind, statistics == "fermion")
                assert np.array_equal(F.ladder(space, mode, kind).toarray(), expect)


class TestRank:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_spaces())
    def test_every_list_ranks_to_its_position(self, case):
        n, statistics, cap, n_max = case
        space = F.build_space(n, statistics, boson_cap=cap, n_max=n_max)
        assert space.counts[n, space.top] == space.dim
        assert np.array_equal(space.rank(space.lists), np.arange(space.dim))
        # each list is its row's occupied modes, descending, repeated n_m times
        for occ, lst in zip(space.occupations.tolist(), space.lists.tolist()):
            modes = [m for m in reversed(range(n)) for _ in range(occ[m])]
            assert lst == modes + [-1] * (space.top - len(modes))


class TestLadder:
    def test_car_relations(self):
        sp = F.build_space(4, "fermion")
        for i in range(4):
            for j in range(4):
                ai = F.ladder(sp, i, "annihilate")
                cj = F.ladder(sp, j, "create")
                anti = (ai @ cj + cj @ ai).toarray()
                target = np.eye(sp.dim) if i == j else 0.0
                assert np.abs(anti - target).max() < 1e-14
                if i != j:
                    both = (
                        F.ladder(sp, i, "create") @ cj + cj @ F.ladder(sp, i, "create")
                    ).toarray()
                    assert np.abs(both).max() < 1e-14

    def test_ccr_below_cap(self):
        cap = 3
        sp = F.build_space(2, "boson", boson_cap=cap)
        for i in range(2):
            for j in range(2):
                ai = F.ladder(sp, i, "annihilate")
                cj = F.ladder(sp, j, "create")
                comm = (ai @ cj - cj @ ai).toarray()
                below = sp.occupations[:, i] < cap
                target = 1.0 if i == j else 0.0
                assert np.abs(np.diag(comm)[below] - target).max() < 1e-14

    def test_annihilate_vacuum(self):
        sp = F.build_space(3, "fermion")
        vac = np.zeros(sp.dim)
        vac[sp.vacuum_index()] = 1.0
        for i in range(3):
            assert np.abs(F.ladder(sp, i, "annihilate") @ vac).max() == 0.0


class TestSecondQuantization:
    def test_identity_gives_number(self):
        sp = F.build_space(3, "fermion")
        N = F.second_quantize_onebody(sp, np.eye(3)).toarray()
        assert np.abs(N - np.diag(sp.totals)).max() < 1e-14

    def test_diagonal_h(self):
        sp = F.build_space(3, "boson", boson_cap=2)
        eps = np.array([0.3, -1.2, 2.5])
        H = F.second_quantize_onebody(sp, np.diag(eps)).toarray()
        expected = sp.occupations @ eps
        assert np.abs(np.diag(H) - expected).max() < 1e-12
        assert np.abs(H - np.diag(np.diag(H))).max() == 0.0

    def test_one_particle_sector_spectrum(self):
        sp = F.build_space(5, "fermion")
        rng = np.random.default_rng(2)
        h = rng.standard_normal((5, 5))
        h = h + h.T
        H = F.second_quantize_onebody(sp, h).toarray()
        idx = sp.sectors[1]
        block = H[np.ix_(idx, idx)]
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(block)), np.sort(np.linalg.eigvalsh(h)), atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        sp = F.build_space(2, "fermion")
        with pytest.raises(ValueError, match="Hermitian"):
            F.second_quantize_onebody(sp, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_number_conservation_pattern(self):
        sp = F.build_space(4, "fermion")
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        H = F.second_quantize_onebody(sp, h).tocoo()
        assert np.all(sp.totals[H.row] == sp.totals[H.col])

    def test_twobody_two_fermions(self):
        sp = F.build_space(3, "fermion")
        w = np.zeros((3, 3))
        w[0, 2] = w[2, 0] = 1.7
        W = F.second_quantize_twobody(sp, w)
        occ = (1, 0, 1)
        i = sp.index(occ)
        assert W.toarray()[i, i] == pytest.approx(1.7)

    def test_twobody_single_particle_zero(self):
        sp = F.build_space(3, "fermion")
        w = np.full((3, 3), 2.0)
        W = F.second_quantize_twobody(sp, w).toarray()
        for occ in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            i = sp.index(occ)
            assert W[i, i] == pytest.approx(0.0)

    def test_twobody_bosonic_onsite(self):
        sp = F.build_space(2, "boson", boson_cap=3)
        w = np.zeros((2, 2))
        w[0, 0] = 0.9
        W = F.second_quantize_twobody(sp, w).toarray()
        i = sp.index((3, 0))
        assert W[i, i] == pytest.approx(3 * 0.9)  # (1/2) * 3 * 2 * U


@st.composite
def quantization_cases(draw):
    """(space, random Hermitian h, random symmetric w) on fermion spaces with
    n <= 5 and boson spaces with n <= 3, cap <= 2."""
    statistics = draw(st.sampled_from(["fermion", "boson"]))
    cap = 1 if statistics == "fermion" else draw(st.integers(1, 2))
    n = draw(st.integers(1, 5 if statistics == "fermion" else 3))
    n_max = draw(st.none() | st.integers(0, n * cap))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((n, n))
    if draw(st.booleans()):
        h = h + 1j * rng.standard_normal((n, n))
    w = rng.standard_normal((n, n))
    space = F.build_space(n, statistics, boson_cap=cap, n_max=n_max)
    return space, h + h.conj().T, w + w.T


class TestSecondQuantizationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(quantization_cases())
    def test_against_ladder_products(self, case):
        space, h, w = case
        cr = [F.ladder(space, i, "create").toarray() for i in range(space.n)]
        an = [F.ladder(space, i, "annihilate").toarray() for i in range(space.n)]
        one = sum(h[i, j] * cr[i] @ an[j] for i in range(space.n) for j in range(space.n))
        # (1/2) sum_pq w_pq adag_p adag_q a_q a_p; lowering first never leaves the basis
        two = 0.5 * sum(
            w[p, q] * cr[p] @ cr[q] @ an[q] @ an[p]
            for p in range(space.n)
            for q in range(space.n)
        )
        assert np.abs(F.second_quantize_onebody(space, h).toarray() - one).max() < 1e-12
        assert np.abs(F.second_quantize_twobody(space, w).toarray() - two).max() < 1e-12


def ladder_product_sum(space, h):
    """dGamma(h) as sparse ladder products, sum_i adag_i (sum_j h_ij a_j)
    added mode by mode: the reference for the occupation-table assembly."""
    dtype = complex if np.iscomplexobj(h) else float
    out = sps.csr_matrix((space.dim, space.dim), dtype=dtype)
    creators = [F.ladder(space, i, "create") for i in range(space.n)]
    annihil = [F.ladder(space, j, "annihilate") for j in range(space.n)]
    for i in range(space.n):
        acc = sps.csr_matrix((space.dim, space.dim), dtype=dtype)
        for j in np.nonzero(h[i])[0]:
            acc = acc + h[i, j] * annihil[j]
        out = out + creators[i] @ acc
    return out.tocsr()


@st.composite
def fermion_hops(draw):
    """(space, Hermitian h) on fermion spaces with n <= 6 and n_max None or 2;
    entries come from a small set, so some hops vanish and some diagonal sums
    cancel to zero."""
    n = draw(st.integers(1, 6))
    n_max = draw(st.sampled_from([None, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, rng.standard_normal()], size=(n, n))
    if draw(st.booleans()):
        h = h + 1j * rng.choice([0.0, 1.0, -2.0, rng.standard_normal()], size=(n, n))
    return F.build_space(n, "fermion", n_max=n_max), h + h.conj().T


class TestOneBodyAssembly:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(fermion_hops())
    def test_fermions_equal_ladder_products(self, case):
        space, h = case
        got = F.second_quantize_onebody(space, h)
        ref = ladder_product_sum(space, h)
        ref.sort_indices()
        assert got.dtype == ref.dtype
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
        assert (got.data != 0).all()


def _byte_keys(rows):
    """Byte keys of occupation rows: highest mode first, big-endian uint16, so
    byte order of the keys is colex order of the rows."""
    n = rows.shape[-1]
    return np.ascontiguousarray(rows[..., ::-1], dtype=">u2").view(f"V{2 * n}")[..., 0]


def byte_key_index(space, rows):
    """The byte-key basis lookup: one searchsorted over the sorted keys of the
    occupation table, -1 for rows outside the basis."""
    keys, row_keys = _byte_keys(space.occupations), _byte_keys(rows)
    pos = np.minimum(np.searchsorted(keys, row_keys), space.dim - 1)
    valid = ((rows >= 0) & (rows <= space.per_mode)).all(axis=-1)
    return np.where(valid & (keys[pos] == row_keys), pos, -1)


def per_hop_onebody(space, h):
    """dGamma(h) as one pass over the occupation table per nonzero hop h_ij,
    each target found by byte_key_index: the reference for the one-pass
    assembly, entry for entry."""
    h = h.astype(complex if np.iscomplexobj(h) else float)
    occ = space.occupations
    diag = np.zeros(space.dim, dtype=h.dtype)
    for i in range(space.n):
        diag += h[i, i] * occ[:, i]
    (nz,) = np.nonzero(diag)
    rows, cols, vals = [nz], [nz], [diag[nz]]
    below = np.cumsum(occ, axis=1, dtype=np.int32) - occ
    for i, j in zip(*np.nonzero(h)):
        if i == j:
            continue
        src = np.nonzero((occ[:, j] > 0) & (occ[:, i] < space.per_mode))[0]
        target = occ[src]
        target[:, j] -= 1
        target[:, i] += 1
        if space.is_fermionic:
            odd = (below[src, j] + below[src, i] - (j < i)) % 2
            vals.append(np.where(odd == 1, -h[i, j], h[i, j]))
        else:
            n_i, n_j = occ[src, i].astype(float), occ[src, j].astype(float)
            vals.append(np.sqrt(n_i + 1.0) * (h[i, j] * np.sqrt(n_j)))
        rows.append(byte_key_index(space, target))
        cols.append(src)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim),
    )


def permuted_table_lift(space, sigma):
    """(perm, sign) of Gamma(sigma) from the permuted occupation table and
    byte_key_index, the fermion sign from an inversion matrix."""
    occ = space.occupations
    perm = byte_key_index(space, occ[:, np.argsort(sigma)])
    if not space.is_fermionic:
        return perm, np.ones(space.dim)
    inverted = np.triu(sigma[:, None] > sigma[None, :], k=1).astype(float)
    occ = occ.astype(float)
    return perm, np.where(((occ @ inverted) * occ).sum(axis=1) % 2 == 0, 1.0, -1.0)


def oracle_spaces(statistics, cap, n_top):
    """Every space on 1 .. n_top modes with every n_max from 0 to n * cap and
    None."""
    for n in range(1, n_top + 1):
        for n_max in [None, *range(n * cap + 1)]:
            yield F.build_space(n, statistics, boson_cap=cap, n_max=n_max)


ORACLE_CASES = [("fermion", 1, 6), ("boson", 1, 4), ("boson", 2, 4), ("boson", 3, 4)]


class TestAssemblyOracle:
    @pytest.mark.parametrize("statistics, cap, n_top", ORACLE_CASES)
    @pytest.mark.parametrize("complex_h", [False, True])
    def test_onebody_bitwise_equals_per_hop(self, statistics, cap, n_top, complex_h):
        rng = np.random.default_rng(10 * cap + complex_h)
        for space in oracle_spaces(statistics, cap, n_top):
            n = space.n
            # entries from a small set, so some hops vanish and some diagonal
            # sums cancel to zero
            h = rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, rng.standard_normal()], size=(n, n))
            if complex_h:
                h = h + 1j * rng.choice([0.0, 1.0, -2.0, rng.standard_normal()], size=(n, n))
            h = h + h.conj().T
            got, ref = F.second_quantize_onebody(space, h), per_hop_onebody(space, h)
            assert got.dtype == ref.dtype
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize(
        "statistics, cap, n_max", [("fermion", 1, 3), ("boson", 2, 2)], ids=["fermion", "boson"]
    )
    @pytest.mark.parametrize(
        "field", [None, C.MagneticField.constant([0.3, 0.2, 0.7])], ids=["nofield", "field"]
    )
    def test_onebody_bitwise_on_cube(self, statistics, cap, n_max, field):
        # 27 modes: the oracle spaces above stop at 6, so they never hop
        # between far-apart list entries over many modes
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        T = C.kinetic_operator(dom, field)
        space = F.build_space(dom.n_sites, statistics, boson_cap=cap, n_max=n_max)
        got, ref = F.second_quantize_onebody(space, T), per_hop_onebody(space, T)
        assert got.dtype == ref.dtype == (complex if field else float)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("statistics, cap, n_top", ORACLE_CASES)
    def test_lift_equals_permuted_table(self, statistics, cap, n_top):
        rng = np.random.default_rng(cap)
        for space in oracle_spaces(statistics, cap, n_top):
            for sigma in (np.arange(space.n)[::-1], rng.permutation(space.n)):
                perm, sign = F.permutation_lift(space, sigma)
                ref_perm, ref_sign = permuted_table_lift(space, sigma)
                assert np.array_equal(perm, ref_perm)
                assert np.array_equal(sign, ref_sign)


def occupation_pair_diagonal(space, w):
    """The dGamma_2 diagonal from the float (dim, n) occupation table and
    occ @ w, as assembled before the orbital-list sums; kept as their
    oracle."""
    occ = space.occupations.astype(float)
    quad = ((occ @ w) * occ).sum(axis=1)
    return 0.5 * (quad - occ @ np.diag(w))


def cube_symmetries(dom):
    """Site permutations of the 48 symmetries of a cube domain about its
    centre."""
    centred = 2 * dom.idx - (dom.idx.min(axis=0) + dom.idx.max(axis=0))
    index = {tuple(r): i for i, r in enumerate(centred.tolist())}
    out = []
    for axes in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            image = centred[:, list(axes)] * np.array(signs)
            out.append(np.array([index[tuple(r)] for r in image.tolist()]))
    return out


class TestPairDiagonal:
    @pytest.mark.parametrize("statistics, cap, n_top", ORACLE_CASES)
    def test_matches_occupation_table(self, statistics, cap, n_top):
        rng = np.random.default_rng(20 + cap)
        for space in oracle_spaces(statistics, cap, n_top):
            w = rng.standard_normal((space.n, space.n))
            w = w + w.T
            got = F.second_quantize_twobody(space, w)
            ref = occupation_pair_diagonal(space, w)
            assert got.shape == (space.dim, space.dim) and got.nnz <= space.dim
            assert np.abs(got.diagonal() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_bitwise_invariant_under_kernel_symmetries(self, statistics):
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        W = C.coulomb_kernel(dom)
        space = F.build_space(dom.n_sites, statistics, boson_cap=3, n_max=3)
        diag = F.second_quantize_twobody(space, W).diagonal()
        sigmas = cube_symmetries(dom)
        assert len(sigmas) == 48
        for sigma in sigmas:
            assert np.array_equal(W[np.ix_(sigma, sigma)], W)
            perm, _ = F.permutation_lift(space, sigma)
            assert diag[perm].tobytes() == diag.tobytes()


def occupation_potential_diagonal(space, v):
    """sum_i v(x_i) as the float (dim, n) occupation table times v, as the
    nuclear diagonal was formed before the orbital-list sums; kept as their
    oracle."""
    return space.occupations.astype(float) @ v


def nuclear_diagonal(electrons, nuclei):
    """The diagonal that operator(nuclei) adds to base, sum_i v(x_i) plus the
    nuclear constant: read with every base block set to zero."""
    electrons.base = {key: sps.csr_matrix(B.shape) for key, B in electrons.base.items()}
    op = electrons.operator(nuclei)
    diag = np.zeros(op.dim)
    for key, idx in op.sectors.items():
        diag[idx] = op.blocks[key].diagonal()
    return diag


# one nucleus: no pairs, so the nuclear constant is 0.0
ONE_NUCLEUS = C.NucleiConfig([([0.3, 0.45, 0.7], 1.3)])


class TestPotentialDiagonal:
    # the ids name the particle statistics: electrons are fermions
    @pytest.mark.parametrize("side", [2, 3, 4], ids=lambda side: f"fermion-{side}")
    def test_bitwise_equals_occupation_product_up_to_two(self, side):
        dom = G.build_domain({"shape": "cube", "side": float(side)}, 1.0)
        electrons = C._Electrons(dom, n_max=2)
        v = C.nuclear_potential(dom, ONE_NUCLEUS)
        ref = occupation_potential_diagonal(electrons.space, v)
        assert np.array_equal(nuclear_diagonal(electrons, ONE_NUCLEUS), ref)

    @pytest.mark.parametrize("n_max", [3], ids=["fermion"])
    def test_matches_occupation_product_beyond_two(self, n_max):
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        electrons = C._Electrons(dom, n_max=n_max)
        v = C.nuclear_potential(dom, ONE_NUCLEUS)
        ref = occupation_potential_diagonal(electrons.space, v)
        got = nuclear_diagonal(electrons, ONE_NUCLEUS)
        assert (np.abs(got - ref) <= 1e-14 * np.abs(ref)).all()

    @pytest.mark.parametrize("n_max", [3], ids=["fermion"])
    def test_bitwise_invariant_under_potential_symmetries(self, n_max):
        dom = G.build_domain({"shape": "cube", "side": 3.0}, 1.0)
        # equal nuclei at the corners of the centred unit cube keep all 48
        corners = itertools.product((0.5, 1.5), repeat=3)
        nuclei = C.NucleiConfig([(list(R), 0.7) for R in corners])
        v = C.nuclear_potential(dom, nuclei)
        electrons = C._Electrons(dom, n_max=n_max)
        diag = nuclear_diagonal(electrons, nuclei)
        sigmas = cube_symmetries(dom)
        assert len(sigmas) == 48
        for sigma in sigmas:
            assert np.array_equal(v[sigma], v)
            perm, _ = F.permutation_lift(electrons.space, sigma)
            assert diag[perm].tobytes() == diag.tobytes()


class TestPermutationLift:
    @staticmethod
    def lift_matrix(space, sigma):
        perm, sign = F.permutation_lift(space, sigma)
        assert np.array_equal(np.sort(perm), np.arange(space.dim))
        return sps.csr_matrix((sign, (perm, np.arange(space.dim))), shape=(space.dim,) * 2)

    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    @pytest.mark.parametrize("side, n_max", [(2, 3), (3, 2)])
    def test_intertwines_ladders(self, statistics, side, n_max):
        dom = G.build_domain({"shape": "cube", "side": side}, 1.0)
        space = F.build_space(dom.n_sites, statistics, boson_cap=2, n_max=n_max)
        sigmas = dom.reflections()
        assert len(sigmas) == 6  # three axis reflections, three coordinate swaps
        sigmas.append(np.random.default_rng(side).permutation(dom.n_sites))
        for sigma in sigmas:
            P = self.lift_matrix(space, sigma)
            for i in range(space.n):
                for kind in ("create", "annihilate"):
                    moved = P @ F.ladder(space, i, kind) @ P.T
                    assert (moved != F.ladder(space, sigma[i], kind)).nnz == 0


class TestEntropy:
    def test_pure_state(self):
        sp = F.build_space(3, "fermion")
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(sp.dim)
        assert abs(F.entropy(pure_state(sp, psi))) < 1e-10

    def test_maximally_mixed(self):
        sp = F.build_space(2, "fermion")
        st = F.FockState(sp, np.eye(4) / 4)
        assert F.entropy(st) == pytest.approx(np.log(4), abs=1e-12)

    def test_additive_over_factors(self):
        sp = F.build_space(4, "fermion")
        U, s1, s2 = F.split_isomorphism(sp, 2)
        g1 = random_state(s1, 5).matrix
        g2 = random_state(s2, 6).matrix
        prod = np.kron(g1, g2)
        M = U.conj().T @ prod @ U.toarray().astype(complex)
        st = F.FockState(sp, M, validate=False)
        assert F.entropy(st) == pytest.approx(
            F.entropy(g1) + F.entropy(g2), abs=1e-10
        )

    def test_concavity(self):
        sp = F.build_space(3, "fermion")
        for trial in range(100):
            a = random_state(sp, 2 * trial)
            b = random_state(sp, 2 * trial + 1)
            for t in (0.25, 0.5, 0.75):
                mix = t * a.matrix + (1 - t) * b.matrix
                assert (
                    F.entropy(mix)
                    >= t * F.entropy(a) + (1 - t) * F.entropy(b) - 1e-10
                )


class TestReducedDensity:
    def test_slater_projector(self):
        sp = F.build_space(4, "fermion")
        vec = np.zeros(sp.dim)
        vec[sp.index((1, 1, 0, 0))] = 1.0
        st = pure_state(sp, vec)
        g1 = F.reduced_density(st, 1).matrix
        assert np.abs(g1 - np.diag([1, 1, 0, 0])).max() < 1e-12

    def test_vacuum(self):
        sp = F.build_space(3, "fermion")
        g1 = F.reduced_density(pure_state(sp, np.eye(sp.dim)[sp.vacuum_index()]), 1).matrix
        assert np.abs(g1).max() == 0.0

    def test_two_fermion_trace(self):
        sp = F.build_space(4, "fermion")
        rng = np.random.default_rng(9)
        idx = sp.sectors[2]
        vec = np.zeros(sp.dim, dtype=complex)
        vec[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        st = pure_state(sp, vec)
        rd = F.reduced_density(st, 1)
        assert np.trace(rd.matrix).real == pytest.approx(2.0, abs=1e-12)
        # independent: <N> from the number operator diagonal
        assert np.trace(rd.matrix).real == pytest.approx(mean_number(st), abs=1e-12)

    def test_diagonal_sums_to_mean_number(self):
        sp = F.build_space(4, "fermion")
        st = random_state(sp, 12)
        rd = F.reduced_density(st, 1)
        assert np.real(np.trace(rd.matrix)) == pytest.approx(mean_number(st), abs=1e-12)

    def test_quasi_free_wick(self):
        sp = F.build_space(4, "fermion")
        rng = np.random.default_rng(21)
        lam = rng.random(4) * 0.8 + 0.1
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        gamma = (V * lam) @ V.T
        st = F.quasi_free_state(sp, gamma)
        g1 = F.reduced_density(st, 1).matrix
        assert np.abs(g1 - gamma).max() < 1e-10
        g2 = F.reduced_density(st, 2).matrix
        pairs = list(itertools.combinations(range(4), 2))
        for r, (p, q) in enumerate(pairs):
            for c, (i, j) in enumerate(pairs):
                wick = g1[i, p] * g1[j, q] - g1[j, p] * g1[i, q]
                assert abs(g2[r, c] - wick) < 1e-10


class TestSplitIsomorphism:
    def test_wedge_map_on_single_particle(self):
        sp = F.build_space(4, "fermion")
        U, s1, s2 = F.split_isomorphism(sp, 2)
        # adag(e_1 + 0) |0> maps to (adag e_1 |0>) (x) |0>
        vec = np.zeros(sp.dim)
        vec[sp.index((1, 0, 0, 0))] = 1.0
        out = (U @ vec).reshape(s1.dim, s2.dim)
        expect = np.zeros((s1.dim, s2.dim))
        expect[s1.index((1, 0)), s2.vacuum_index()] = 1.0
        assert np.abs(out - expect).max() == 0.0

    def test_unitarity(self):
        sp = F.build_space(5, "fermion")
        U, s1, s2 = F.split_isomorphism(sp, 2)
        assert np.abs((U.T @ U).toarray() - np.eye(sp.dim)).max() < 1e-12

    def test_state_supported_on_first_factor(self):
        sp = F.build_space(4, "fermion")
        U, s1, s2 = F.split_isomorphism(sp, 2)
        small = random_state(s1, 3)
        # embed: occupations on modes 0,1 only
        emb = np.zeros((sp.dim, s1.dim))
        for i1, occ in enumerate(s1.occupations.tolist()):
            emb[sp.index(tuple(occ) + (0, 0)), i1] = 1.0
        M = emb @ small.matrix @ emb.T
        big = U @ M @ U.conj().T.toarray()
        # trace out the second tensor factor
        red = np.einsum("abcb->ac", big.reshape(s1.dim, s2.dim, s1.dim, s2.dim))
        assert np.abs(red - small.matrix).max() < 1e-12


class TestJsonLayout:
    # documents in the layout the README gives for ssa quantum state files
    def test_round_trip_complex(self):
        text = """{"name": "rho", "shape": [3, 2], "dtype": "complex", "order": "row-major",
                   "data": [["1.0", "-0.5"], ["2.5e-17", "0.0"], ["-3.0", "1e+300"],
                            ["0.1", "-0.1"], ["4.0", "7.25"], ["-0.0", "3.0"]]}"""
        arr = np.array([[1.0 - 0.5j, 2.5e-17], [-3.0 + 1e300j, 0.1 - 0.1j], [4.0 + 7.25j, -0.0 + 3.0j]])
        back = F.array_from_json(text)
        assert back.dtype == complex and np.array_equal(back, arr)

    def test_round_trip_real(self):
        text = """{"name": "rho", "shape": [2, 2], "dtype": "float", "order": "row-major",
                   "data": ["1.0", "2.5e-17", "-3.0", "4.0"]}"""
        arr = np.array([[1.0, 2.5e-17], [-3.0, 4.0]])
        back = F.array_from_json(text)
        assert back.dtype == float and np.array_equal(back, arr)
