import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh
from scipy.special import logsumexp

from coulomblab import coulomb as C
from coulomblab import fock as F
from coulomblab import geometry as G
from coulomblab import inequalities as I
from coulomblab.scan import ScanSpec, perturbation_compare


def cube(side, a=1.0):
    return G.build_domain({"shape": "cube", "side": side * a}, a)


def chain(n, a=1.0):
    return G.build_domain({"shape": "custom", "sites": [[0, 0, k] for k in range(n)]}, a)


def crystal_nuclei(dom, z=0.5):
    return C.NucleiConfig.from_lattice(dom, z)


def crystal(side):
    dom = cube(side)
    return C.coulomb_hamiltonian(dom, crystal_nuclei(dom), n_max=2)


TWO_NUCLEI = C.NucleiConfig([([0.4, 0.4, 0.4], 2.0), ([1.6, 1.6, 1.6], 2.0)])


def curl_fd(field, point, h=1e-5):
    """Central-difference curl of a vector potential at one point."""
    p = np.asarray(point, dtype=float)
    J = np.zeros((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        J[:, k] = (field(p + e) - field(p - e)) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def block_offdiagonal_norm(H, sectors):
    """Largest element of a whole-space matrix H outside the sector blocks."""
    M = H.tocoo()
    sector_of = np.empty(H.shape[0], dtype=int)
    for s, idx in enumerate(sectors.values()):
        sector_of[idx] = s
    mask = sector_of[M.row] != sector_of[M.col]
    return float(np.abs(M.data[mask]).max()) if mask.any() else 0.0


def full_matrix(op):
    """op on its whole basis: the sector blocks placed block diagonally, in
    basis order."""
    rows, cols, vals = [], [], []
    for key, idx in op.sectors.items():
        B = op.blocks[key].tocoo()
        rows.append(idx[B.row])
        cols.append(idx[B.col])
        vals.append(B.data)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(op.dim, op.dim)
    )


def from_matrix(H, sectors, **kwargs):
    """The ManyBodyOperator of a whole-space number-conserving matrix."""
    return C.ManyBodyOperator(C._sector_blocks(H.tocsr(), sectors), sectors, **kwargs)


def whole_electrons(domain, nuclei, field=None, n_max=2):
    """(H, sectors) of the whole-space Coulomb Hamiltonian as _Electrons
    assembled it before it kept sector blocks: base + sp.diags(...) over the
    whole Fock space.  Kept as the bitwise oracle of the blocks."""
    space = F.build_space(domain.n_sites, n_max=n_max)
    base = (
        F.second_quantize_onebody(space, C.kinetic_operator(domain, field))
        + F.second_quantize_twobody(space, C.coulomb_kernel(domain))
    ).tocsr()
    v = C.nuclear_potential(domain, nuclei)
    terms = np.sort(np.append(v, 0.0)[space.lists], axis=1)
    return (base + sp.diags(terms.sum(axis=1) + C.nuclear_constant(nuclei))).tocsr(), space.sectors


def whole_two_species(domain, z, M, field=None, el_max=1, nuc_max=1):
    """(H, sectors) of the two-species Hamiltonian as it was assembled on the
    whole product space: the sp.kron product and a dense (el.dim x nuc.dim)
    cross table from both occupation tables.  Kept as the bitwise oracle of
    the blocks."""
    n = domain.n_sites
    el = F.build_space(n, "fermion", n_max=el_max)
    nuc = F.build_space(n, "boson", boson_cap=max(1, nuc_max), n_max=nuc_max)
    T = C.kinetic_operator(domain, field)
    T_nuc = T
    if field is not None:
        T_nuc = C.kinetic_operator(domain, C.MagneticField(lambda p: -z * field(p)))
    W = C.coulomb_kernel(domain)
    H_el = F.second_quantize_onebody(el, T) + F.second_quantize_twobody(el, W)
    H_nuc = (1.0 / M) * F.second_quantize_onebody(nuc, T_nuc) + F.second_quantize_twobody(
        nuc, z ** 2 * W
    )
    H = sp.kron(H_el, sp.identity(nuc.dim, format="csr")) + sp.kron(
        sp.identity(el.dim, format="csr"), H_nuc
    )
    cross = -z * (el.occupations.astype(float) @ W @ nuc.occupations.astype(float).T)
    H = H + sp.diags(cross.ravel())
    sectors = {
        (Ne, Kn): (ie[:, None] * nuc.dim + jn[None, :]).ravel()
        for Ne, ie in el.sectors.items()
        for Kn, jn in nuc.sectors.items()
    }
    return H.tocsr(), sectors

# N = 2 sector blocks (dim 351) of side-3 cubes, all above _LANCZOS_FROM: real,
# complex Hermitian (a magnetic field) and with a degenerate ground state
LANCZOS_BLOCKS = {
    "crystal-3": lambda: crystal(3).blocks[2],
    "field-3": lambda: C.coulomb_hamiltonian(
        cube(3), TWO_NUCLEI, field=C.MagneticField.constant([0.0, 0.3, 0.8]), n_max=2
    ).blocks[2],
    "empty-3": lambda: C.coulomb_hamiltonian(cube(3), C.NucleiConfig([]), n_max=2).blocks[2],
}

# LANCZOS_BLOCKS and the largest ground-build sector, by name
HISTORY_BLOCKS = dict(LANCZOS_BLOCKS, **{"crystal-5": lambda: crystal(5).blocks[2]})


def defect_crystal_nuclei(dom):
    """The nuclei of compare-perturbation's default config, with its defect."""
    return C.NucleiConfig.from_lattice(dom, 0.5, defects=[((0.65, 0.65, 0.65), 0.5)])


def defect_crystal(side):
    dom = cube(side)
    return C.coulomb_hamiltonian(dom, defect_crystal_nuclei(dom), n_max=2)


# The Lanczos sectors of compare-perturbation's default run: N = 2 of sides
# 3, 4, 5 (dims 351, 2016, 7750), periodic and with the defect, and the
# matrix-vector products their Lanczos solves take (none restarts)
GROUND_BUILD_PRODUCTS = {
    ("crystal", 3): 45,
    ("defect", 3): 41,
    ("crystal", 4): 53,
    ("defect", 4): 49,
    ("crystal", 5): 65,
    ("defect", 5): 57,
}


class TestKinetic:
    def test_zero_field_real_positive(self):
        dom = cube(3)
        T = C.kinetic_operator(dom)
        assert np.abs(T - T.T).max() == 0.0
        assert T.dtype == float
        assert np.linalg.eigvalsh(T)[0] > 0.0
        assert np.all(T.sum(axis=1) >= -1e-12)

    def test_chain_closed_form(self):
        # 1 x 1 x n chain: transverse Dirichlet walls shift the 1D chain
        # spectrum (2 - 2 cos(k pi/(n+1)))/a^2 up by 4/a^2
        a = 0.5
        n = 6
        dom = chain(n, a)
        lam = np.sort(np.linalg.eigvalsh(C.kinetic_operator(dom)))
        k = np.arange(1, n + 1)
        expected = np.sort(4.0 / a ** 2 + (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / a ** 2)
        assert np.abs(lam - expected).max() < 1e-11

    def test_mass_scale(self):
        dom = cube(2)
        assert np.allclose(
            C.kinetic_operator(dom, mass_scale=0.01), 0.01 * C.kinetic_operator(dom)
        )

    def test_peierls_hermitian(self):
        dom = cube(3)
        fld = C.MagneticField.constant([0.0, 0.0, 0.8])
        T = C.kinetic_operator(dom, fld)
        assert np.abs(T - T.conj().T).max() < 1e-14
        assert np.abs(np.abs(T[T != 0]) - np.abs(C.kinetic_operator(dom)[T != 0])).max() < 1e-12

    def test_constant_gauge_curl(self):
        B = np.array([0.3, -1.2, 0.7])
        fld = C.MagneticField.constant(B)
        for p in ([0.4, 0.2, -0.3], [1.0, 0.0, 2.0]):
            assert np.abs(curl_fd(fld, p) - B).max() < 1e-6 * np.abs(B).max()


def loop_kinetic(domain, field=None, mass_scale=1.0):
    """kinetic_operator by the per-bond loop it replaced: the bonds (i, j)
    with site j = site i + e_k found through a tuple -> site dict, the field
    evaluated on one midpoint at a time."""
    index_of = {t: i for i, t in enumerate(map(tuple, domain.idx.tolist()))}
    n, a, pts = domain.n_sites, domain.a, domain.points
    T = np.zeros((n, n), dtype=complex if field is not None else float)
    np.fill_diagonal(T, 6.0 / a ** 2)
    for i, t in enumerate(map(tuple, domain.idx.tolist())):
        for axis in range(3):
            cand = list(t)
            cand[axis] += 1
            j = index_of.get(tuple(cand))
            if j is None:
                continue
            if field is None:
                T[i, j] = T[j, i] = -1.0 / a ** 2
            else:
                mid = 0.5 * (pts[i] + pts[j])
                phase = float(field(mid) @ (pts[j] - pts[i]))
                T[i, j] = -np.exp(1j * phase) / a ** 2
                T[j, i] = np.conj(T[i, j])
    return mass_scale * T


def kinetic_domains():
    """Cubes at spacings whose site differences are not exactly a, balls and
    custom sets with negative coordinates."""
    rng = np.random.default_rng(4)
    doms = [cube(m, a) for m, a in ((1, 1.0), (2, 1.0), (3, 0.3), (4, 0.7), (5, 1.0))]
    doms += [
        G.build_domain({"shape": "ball", "radius": r, "center": c}, a)
        for r, c, a in [(1.0, [0.5] * 3, 1.0), (2.2, [0.1, -0.3, 0.2], 1.0), (1.4, [0.2] * 3, 0.35)]
    ]
    for n in (1, 12, 80):
        cells = rng.choice(8 ** 3, size=n, replace=False)
        sites = np.stack(np.unravel_index(cells, (8, 8, 8)), axis=1) - 4
        doms.append(G.build_domain({"shape": "custom", "sites": sites.tolist()}, 0.9))
    return doms + [chain(6, 0.5)]


class TestKineticOracle:
    @pytest.mark.parametrize(
        "field",
        [
            None,
            C.MagneticField.constant([0.3, -1.2, 0.7]),
            C.MagneticField.periodic_sine(1.0, 4.0),
            C.MagneticField.periodic_sine(0.7, 2.5),
            C.MagneticField.random_bounded(3, scale=1.5),
        ],
        ids=["none", "constant", "sine", "sine-short", "random"],
    )
    @pytest.mark.parametrize("mass_scale", [1.0, 0.01])
    def test_bitwise_equal_to_bond_loop(self, field, mass_scale):
        for dom in kinetic_domains():
            T = C.kinetic_operator(dom, field, mass_scale)
            ref = loop_kinetic(dom, field, mass_scale)
            assert T.dtype == ref.dtype and np.array_equal(T, ref)

    def test_random_field_rows_independent_of_batch(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-6.0, 6.0, size=(4096, 3))
        fld = C.MagneticField.random_bounded(3)
        whole = fld(pts)
        assert np.array_equal(np.array([fld(p) for p in pts]), whole)
        for size in (3, 5):
            batches = [fld(pts[k : k + size]) for k in range(0, len(pts), size)]
            assert np.array_equal(np.concatenate(batches), whole)


class TestNuclei:
    def test_coincident_charged_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            C.NucleiConfig([([0, 0, 0], 1.0), ([0, 0, 0], 2.0)])

    def test_zero_charge_coincidence_allowed(self):
        cfg = C.NucleiConfig([([0, 0, 0], 0.0), ([0, 0, 0], 2.0)])
        assert len(cfg) == 2

    def test_site_regularization_guard(self):
        dom = cube(2)
        bad = C.NucleiConfig([([0.0, 0.0, 0.05], 1.0)])
        with pytest.raises(ValueError, match="regularization violated"):
            C.nuclear_potential(dom, bad)

    def test_lattice_generation_counts(self):
        dom = cube(3)
        cfg = C.NucleiConfig.from_lattice(dom, 1.0)
        assert len(cfg) == 27


def loop_from_lattice(domain, z, defects=()):
    """Entries of NucleiConfig.from_lattice by the per-point loop it replaced:
    every +a/4 point of a box of cells around the domain, and every defect,
    kept within 0.49 a (max-norm) of a site."""
    a, pts = domain.a, domain.points
    n_lo = np.floor((pts.min(axis=0) - a) / a).astype(int) - 1
    n_hi = np.ceil((pts.max(axis=0) + a) / a).astype(int) + 1

    def inside(R):
        return np.abs(pts - R).max(axis=1).min() <= 0.49 * a + 1e-12

    entries = []
    for shift in itertools.product(*(range(l, h + 1) for l, h in zip(n_lo, n_hi))):
        R = a * np.array(shift, dtype=float) + a * np.full(3, 0.25)
        if inside(R):
            entries.append((R, z))
    for R, q in defects:
        if inside(np.asarray(R, dtype=float)):
            entries.append((np.asarray(R, dtype=float), float(q)))
    return entries


def entries_of(cfg):
    return list(zip(cfg.positions, cfg.charges))


def loop_pairs(entries):
    """(nuclear constant, min separation) by the per-pair loop over entries."""
    c, dmin = 0.0, np.inf
    for (Ra, za), (Rb, zb) in itertools.combinations(entries, 2):
        d = float(np.linalg.norm(Ra - Rb))
        dmin = min(dmin, d)
        if za * zb != 0.0:
            c += za * zb / d
    return c, dmin


DEFECTS = [((0.65, 0.65, 0.65), 0.5), ((9.0, 9.0, 9.0), 1.0), ([0.1, 1.3, 0.4], 0.0)]


def dense_inside_domain(domain, R):
    """_inside_domain by the dense (rows x sites) max-norm table it replaced."""
    d = np.zeros((len(R), domain.n_sites))
    for k in range(3):
        np.maximum(d, np.abs(R[:, k, None] - domain.points[None, :, k]), out=d)
    return d.min(axis=1) <= 0.49 * domain.a + 1e-12


class TestInsideDomain:
    def test_matches_dense_margin_table(self):
        rng = np.random.default_rng(9)
        rows, inside = 0, 0
        for dom in kinetic_domains():
            a = dom.a
            lo, hi = dom.idx.min(axis=0) - 2, dom.idx.max(axis=0) + 2
            # sites and their neighbours, some off the domain
            near = dom.idx[rng.integers(dom.n_sites, size=40)] + rng.integers(-1, 2, size=(40, 3))
            near = a * near
            # points around the grid, and on and just past the 0.49 a edges
            R = np.concatenate([
                a * rng.uniform(lo - 0.5, hi + 0.5, size=(40, 3)),
                near + a * rng.choice([-0.49, 0.49, -0.4900001, 0.4900001], size=(40, 3)),
                near + a * rng.uniform(-0.49, 0.49, size=(40, 3)),
                [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1e300, 0.0, 0.0], [2.0 ** 30 * a, 0.0, 0.0]],
            ])
            with np.errstate(invalid="ignore"):
                want = dense_inside_domain(dom, R)
            got = C._inside_domain(dom, R)
            assert got.dtype == bool and np.array_equal(got, want)
            rows, inside = rows + len(R), inside + int(want.sum())
        assert rows == 12 * 124 and 100 < inside < rows


class TestNucleiTables:
    @pytest.mark.parametrize("side", [2, 3, 4])
    @pytest.mark.parametrize("defects", [(), DEFECTS], ids=["lattice", "defects"])
    def test_from_lattice_matches_loop(self, side, defects):
        # a cube, and a ball whose sites are not a box
        ball = G.build_domain({"shape": "ball", "radius": side / 2 + 0.3}, 0.5)
        for dom in (cube(side), ball):
            cfg = C.NucleiConfig.from_lattice(dom, 0.5, defects)
            ref = loop_from_lattice(dom, 0.5, defects)
            assert len(cfg) == len(ref) >= dom.n_sites
            assert np.array_equal(cfg.positions, np.array([R for R, _ in ref]))
            assert np.array_equal(cfg.charges, np.array([z for _, z in ref]))
            c, dmin = loop_pairs(entries_of(cfg))
            assert C.nuclear_constant(cfg) == pytest.approx(c, rel=1e-14)
            assert cfg.min_separation == pytest.approx(dmin, rel=1e-15)

    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    def test_crystal_constant_bitwise(self, side):
        dom = cube(side)
        for z in (0.5, 0.45, 0.55, 0.475):
            cfg = C.NucleiConfig.from_lattice(dom, z)
            assert C.nuclear_constant(cfg) == loop_pairs(entries_of(cfg))[0]

    def test_zero_charges_and_empty(self):
        cfg = C.NucleiConfig([([0, 0, 0], 0.0), ([0, 0, 0], 2.0), ([1, 0, 0], 3.0)])
        assert C.nuclear_constant(cfg) == 6.0 and cfg.min_separation == 0.0
        for entries in ([], [([0, 0, 0], 1.0)]):
            cfg = C.NucleiConfig(entries)
            assert C.nuclear_constant(cfg) == 0.0 and cfg.min_separation == np.inf

    def test_defect_on_lattice_nucleus_rejected(self):
        with pytest.raises(ValueError, match="hyp_D3 violated: coincident"):
            C.NucleiConfig.from_lattice(cube(2), 1.0, defects=[((1.25, 0.25, 0.25), 1.0)])


def loop_potential(domain, nuclei):
    """nuclear_potential by the per-nucleus loop it replaced."""
    v = np.zeros(domain.n_sites)
    for R, z in entries_of(nuclei):
        dist = np.linalg.norm(domain.points - R, axis=1)
        if dist.min() < domain.a / 10.0 - 1e-15:
            raise ValueError("regularization violated")
        if z != 0.0:
            v -= z / dist
    return v


class TestNuclearPotential:
    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    def test_crystal_swap_invariant_bitwise(self, side):
        dom = cube(side)
        swaps = dom.reflections()[3:]
        assert len(swaps) == 3
        for z in (0.5, 0.45, 0.55, 0.475):
            v = C.nuclear_potential(dom, crystal_nuclei(dom, z))
            for s in swaps:
                assert np.array_equal(v[s], v)

    @pytest.mark.parametrize("side", [2, 3, 4, 5])
    def test_matches_loop(self, side):
        dom = cube(side)
        for z in (0.5, 0.45, 0.55, 0.475):
            for defects in ((), [((0.65, 0.6, 0.7), z), ([0.3, 1.2, 0.4], 0.0)]):
                nuclei = C.NucleiConfig.from_lattice(dom, z, defects)
                v, ref = C.nuclear_potential(dom, nuclei), loop_potential(dom, nuclei)
                assert np.abs(v - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_no_charge_and_guard(self):
        dom = cube(2)
        for nuclei in (C.NucleiConfig([]), C.NucleiConfig([([0.5, 0.5, 0.5], 0.0)])):
            v = C.nuclear_potential(dom, nuclei)
            assert np.array_equal(v, np.zeros(8)) and not np.signbit(v).any()
        # the a/10 guard names the first offending nucleus, charged or not
        close = C.NucleiConfig(
            [([0.5, 0.5, 0.5], 1.0), ([1.0, 0.0, 0.05], 0.0), ([0.0, 0.0, 0.05], 1.0)]
        )
        with pytest.raises(ValueError, match=r"nucleus at \[1.0, 0.0, 0.05\] is within a/10"):
            C.nuclear_potential(dom, close)


def component_order_kernel(domain):
    """coulomb_kernel with each distance summed in x, y, z order, as it was
    before the sorted sum; kept as its oracle."""
    pts = domain.points
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    np.fill_diagonal(dist, 1.0)
    W = 1.0 / dist
    np.fill_diagonal(W, C.onsite_alpha() / domain.a)
    return W


class TestCoulombKernel:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 1.0, 1.1])
    def test_reflection_invariant_bitwise(self, a):
        dom = cube(3, a)
        W = C.coulomb_kernel(dom)
        sigmas = dom.reflections()
        assert len(sigmas) == 6
        for s in sigmas:
            assert np.array_equal(W[np.ix_(s, s)], W)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 1.0, 1.1])
    def test_matches_component_order_sum(self, a):
        dom = cube(3, a)
        W, ref = C.coulomb_kernel(dom), component_order_kernel(dom)
        assert (np.abs(W - ref) <= 1e-15 * np.abs(ref)).all()
        if a == 1.0:  # integer squares: every order sums exactly
            assert np.array_equal(W, ref)

    def test_component_order_breaks_the_swaps(self):
        # the reason for the sorted sum: at a = 0.3 the x, y, z order is not
        # invariant under y<->z or x<->z
        dom = cube(3, 0.3)
        ref = component_order_kernel(dom)
        assert not all(np.array_equal(ref[np.ix_(s, s)], ref) for s in dom.reflections())


class TestHamiltonianAndGroundState:
    def test_vacuum_sector_is_nuclear_constant(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=1)
        d = np.linalg.norm(np.array([1.2, 1.2, 1.2]))
        res = C.ground_state_energy(op)
        assert res.sector_minima[0] == pytest.approx(4.0 / d, abs=1e-12)

    def test_no_nuclei_one_electron_matches_kinetic(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=1)
        block = op.blocks[1].toarray()
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(block)),
            np.sort(np.linalg.eigvalsh(C.kinetic_operator(dom))),
            atol=1e-12,
        )

    def test_commutes_with_number(self):
        # the whole-space oracle has no entry between sectors, so the blocks
        # hold all of it
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=3)
        H, sectors = whole_electrons(dom, TWO_NUCLEI, n_max=3)
        assert block_offdiagonal_norm(H, sectors) == 0.0
        assert (full_matrix(op) != H).nnz == 0

    def test_vacuum_optimal_without_nuclei(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=2)
        res = C.ground_state_energy(op)
        assert res.value == 0.0 and res.n_star == 0

    def test_dense_oracle_agreement(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI)  # full space, 2^8
        sector = C.ground_state_energy(op).value
        dense = np.linalg.eigvalsh(full_matrix(op).toarray())[0]
        assert sector == pytest.approx(dense, abs=1e-9)

    def test_lanczos_repeatable_within_process(self):
        # the two-particle sector (351) lies above _LANCZOS_FROM, so it takes
        # the Lanczos path
        dom = cube(3)
        for fld in (None, C.MagneticField.constant([0.0, 0.0, 0.8])):
            op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), field=fld, n_max=2)
            runs = [C.ground_state_energy(op) for _ in range(4)]
            assert runs[0].method[2]["solver"] == "lanczos"
            assert len({r.sector_minima[2].hex() for r in runs}) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: crystal(3),
            lambda: crystal(4),
            lambda: C.coulomb_hamiltonian(
                cube(3), TWO_NUCLEI, field=C.MagneticField.constant([0.0, 0.3, 0.8]), n_max=2
            ),
            lambda: C.two_species_hamiltonian(cube(2), 1.0, 100.0, el_max=2, nuc_max=2),
        ],
        ids=["crystal-3", "crystal-4", "field-3", "two-species"],
    )
    def test_sector_minima_match_eigvalsh(self, build):
        op = build()
        res = C.ground_state_energy(op)
        solvers = set()
        for key, idx in op.sectors.items():
            dense = np.linalg.eigvalsh(op.blocks[key].toarray())[0]
            assert abs(res.sector_minima[key] - dense) <= 1e-12 * max(abs(dense), 1.0)
            solver = res.method[key]["solver"]
            assert solver == ("dense" if idx.size <= C._LANCZOS_FROM else "lanczos")
            solvers.add(solver)
        assert solvers == {"dense", "lanczos"}

    def test_lanczos_threshold(self):
        rng = np.random.default_rng(3)
        for dim, solver in ((C._LANCZOS_FROM, "dense"), (C._LANCZOS_FROM + 1, "lanczos")):
            M = sp.random(dim, dim, density=0.05, random_state=rng)
            M = (M + M.T + sp.diags(rng.normal(size=dim))).tocsr()
            val, info = C._sector_lowest(M)
            assert (info["solver"], info["dim"]) == (solver, dim)
            dense = np.linalg.eigvalsh(M.toarray())[0]
            assert abs(val - dense) <= 1e-12 * abs(dense)

    def test_repelling_boson_sector_matches_eigvalsh(self, monkeypatch):
        seen = []
        lowest = C._sector_lowest

        def spy(mat):
            val, info = lowest(mat)
            seen.append((mat, val, info))
            return val, info

        monkeypatch.setattr(C, "_sector_lowest", spy)
        rep = I.repelling_bound_check(cube(3), [2], eps=0.5)[0]
        [(mat, val, info)] = seen
        assert info["solver"] == "lanczos" and info["dim"] == 27 * 28 // 2
        dense = np.linalg.eigvalsh(mat.toarray())[0]
        assert abs(val - dense) <= 1e-12 * abs(dense)
        assert rep.lhs == val

    def test_ground_state_vector_respects_dense_cap(self, monkeypatch):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)
        assert C.ground_state_energy(op).n_star == 1  # sector dimension 8
        monkeypatch.setattr(C, "_DENSE_CAP", 4)
        with pytest.raises(ValueError, match="exceeds dense cap 4"):
            C.ground_state_vector(op)

    def test_constant_shift(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)
        res = C.ground_state_energy(op)
        shifted = C.ManyBodyOperator(
            {key: B + 2.5 * sp.identity(B.shape[0], format="csr") for key, B in op.blocks.items()},
            op.sectors,
            space=op.space,
            reflections=op.reflections,
        )
        res_shift = C.ground_state_energy(shifted)
        assert res_shift.value == pytest.approx(res.value + 2.5, abs=1e-12)



class _CountingMatrix:
    """A sparse block that counts its matrix-vector products."""

    def __init__(self, mat):
        self.mat, self.shape, self.dtype, self.products = mat, mat.shape, mat.dtype, 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x


@pytest.fixture(scope="module")
def ground_build_sectors():
    build = {"crystal": crystal, "defect": defect_crystal}
    return {key: build[key[0]](key[1]).blocks[2] for key in GROUND_BUILD_PRODUCTS}


class TestLanczosKernel:
    """The in-repo Lanczos against eigsh and eigvalsh, kept here as oracles."""

    @pytest.mark.parametrize("key", sorted(GROUND_BUILD_PRODUCTS), ids="{0[0]}-{0[1]}".format)
    def test_ground_build_sectors(self, key, ground_build_sectors):
        B = ground_build_sectors[key]
        counted = _CountingMatrix(B)
        val, info = C._sector_lowest(counted)
        # at most the Lanczos steps counted above and one residual product
        assert counted.products <= GROUND_BUILD_PRODUCTS[key] + 1
        arpack = eigsh(B, k=1, which="SA", tol=0)[0][0]
        assert abs(val - arpack) <= 1e-12 * abs(arpack)
        assert info["solver"] == "lanczos"
        assert info["residual"] <= max(1e-9 * 100 * abs(val), 1e-6)

    @pytest.mark.parametrize("name", sorted(LANCZOS_BLOCKS))
    def test_matches_eigsh_and_eigvalsh(self, name):
        B = LANCZOS_BLOCKS[name]()
        assert B.shape[0] > C._LANCZOS_FROM
        assert (B.dtype == complex) == (name == "field-3")
        val, info = C._sector_lowest(B)
        dense = np.linalg.eigvalsh(B.toarray())
        arpack = eigsh(B, k=1, which="SA", tol=0)[0][0]
        for ref in (dense[0], arpack):
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)
        assert info["solver"] == "lanczos"
        assert info["residual"] <= 1e-7 * max(abs(val), 1.0)
        if name == "empty-3":
            assert dense[1] - dense[0] <= 1e-12 * abs(dense[0])

    def test_restart_from_ritz_vector(self, monkeypatch):
        B = LANCZOS_BLOCKS["crystal-3"]()
        monkeypatch.setattr(C, "_LANCZOS_BASIS", 12)
        counted = _CountingMatrix(B)
        val, info = C._sector_lowest(counted)
        assert counted.products > 12 + 1  # the Lanczos steps and one residual product
        dense = np.linalg.eigvalsh(B.toarray())[0]
        assert abs(val - dense) <= 1e-12 * abs(dense)
        assert info["residual"] <= 1e-7 * abs(val)

    def test_exhausted_cap_raises(self, monkeypatch):
        B = LANCZOS_BLOCKS["crystal-3"]()
        monkeypatch.setattr(C, "_LANCZOS_MATVECS", 20)
        counted = _CountingMatrix(B)
        with pytest.raises(C.EigensolverError, match="^iterative eigensolver failed on dim 351"):
            C._sector_lowest(counted)
        assert counted.products == 20

    def test_minima_independent_of_call_history(self):
        # the same bits after other solves in this process and in a fresh
        # single-threaded one, the side-5 ground-build sector (dim 7750) included
        names = ("crystal-3", "field-3", "empty-3", "crystal-5")
        blocks = {name: HISTORY_BLOCKS[name]() for name in names}
        seen = {name: set() for name in names}
        for name in names + names[::-1]:
            seen[name].add(C._sector_lowest(blocks[name])[0].hex())
        assert all(len(bits) == 1 for bits in seen.values())
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(here, os.pardir, "src")
        path = os.pathsep.join(p for p in (here, src, os.environ.get("PYTHONPATH")) if p)
        code = (
            "from test_coulomb import C, HISTORY_BLOCKS\n"
            f"for name in {names!r}:\n"
            "    print(C._sector_lowest(HISTORY_BLOCKS[name]())[0].hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == [seen[name].pop() for name in names]


@st.composite
def log_terms(draw):
    """Log-weights as FreeEnergyResult sums them: ties at the maximum and
    -inf entries among values at scales 1e-2 to 1e4."""
    n = draw(st.integers(1, 700))
    scale = draw(st.sampled_from((1e-2, 1e-1, 1.0, 1e2, 1e3, 1e4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, n) * scale - draw(st.floats(0.0, 1e3))
    a[rng.integers(0, n, draw(st.integers(0, 3)))] = a.max()
    a[rng.integers(0, n, draw(st.integers(0, 3)))] = -np.inf
    return a


class TestLogSumExp:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(log_terms())
    @example(np.array([0.7]))
    @example(np.array([-np.inf]))
    @example(np.array([-np.inf, -np.inf, -np.inf]))
    @example(np.array([-3.0, -3.0, -3.0]))
    @example(np.array([2.0, -np.inf, 2.0, 1.0]))
    @example(np.array([710.0, 709.0, -5.0]))
    def test_bitwise_equal_to_scipy(self, a):
        assert float(C._logsumexp(a)).hex() == float(logsumexp(a)).hex()


class TestFreeEnergy:
    def test_single_site_two_level(self):
        dom = G.build_domain({"shape": "custom", "sites": [[0, 0, 0]]}, 1.0)
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]))
        beta, mu = 2.0, 1.0
        fe = C.free_energy(op, beta, mu)
        assert fe.value == pytest.approx(
            -np.log(1 + np.exp(-beta * (6.0 - mu))) / beta, abs=1e-14
        )

    def test_low_temperature_limit(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)
        res = C.ground_state_energy(op)
        mu = 0.5
        target = min(res.sector_minima[N] - mu * N for N in res.sector_minima)
        fe = C.free_energy(op, 1000.0, mu)
        assert fe.value == pytest.approx(target, abs=1e-6)

    def test_free_fermion_product_formula(self):
        # noninteracting electrons: dGamma(T) alone factorizes over modes
        dom = cube(2)
        sp = F.build_space(8, "fermion")
        T = C.kinetic_operator(dom)
        H = F.second_quantize_onebody(sp, T)
        op = from_matrix(H, dict(sp.sectors), space=sp)
        beta, mu = 0.7, 2.0
        lam = np.linalg.eigvalsh(T)
        product = -np.sum(np.log(1 + np.exp(-beta * (lam - mu)))) / beta
        fe = C.free_energy(op, beta, mu)
        assert fe.value == pytest.approx(product, rel=1e-12)

    def test_boson_product_formula_diagonal(self):
        # diagonal one-body energies: the truncated trace factorizes exactly
        sp = F.build_space(3, "boson", boson_cap=4)
        eps = np.array([1.0, 2.3, 0.6])
        H = F.second_quantize_onebody(sp, np.diag(eps))
        beta = 1.1
        vals = np.linalg.eigvalsh(H.toarray())
        lhs = np.exp(-beta * vals).sum()
        rhs = np.prod([(1 - np.exp(-beta * e * 5)) / (1 - np.exp(-beta * e)) for e in eps])
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_boson_product_formula_truncation_corrected(self):
        dom = chain(3)
        sp = F.build_space(3, "boson", boson_cap=4)
        T = C.kinetic_operator(dom)
        H = F.second_quantize_onebody(sp, T)
        beta = 1.0
        lam = np.linalg.eigvalsh(T)
        full = np.prod(1.0 / (1.0 - np.exp(-beta * lam)))
        vals = np.linalg.eigvalsh(H.toarray())
        lhs = np.exp(-beta * vals).sum()
        # truncation bound: occupation > cap carries weight < e^(-beta lam_min cap)
        assert abs(lhs - full) / full < 3 * np.exp(-beta * lam.min() * 5)

    def test_gibbs_state_and_variational_bound(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)
        beta, mu = 1.3, 0.4
        fe = C.free_energy(op, beta, mu)
        gibbs = F.FockState(op.space, fe.gibbs_matrix(), validate=False)
        assert C.variational_free_energy(op, beta, mu, gibbs) == pytest.approx(fe.value, abs=1e-9)
        rng = np.random.default_rng(5)
        for trial in range(20):
            X = rng.standard_normal((op.dim, op.dim))
            M = X @ X.T
            st = F.FockState(op.space, M / np.trace(M), validate=False)
            assert C.variational_free_energy(op, beta, mu, st) >= fe.value - 1e-10

    def test_gibbs_matrix_respects_dense_cap(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)  # sectors 1, 8, 28
        fe = C.free_energy(op, 1.3, 0.4)
        capped = C.FreeEnergyResult(op, 1.3, 0.4, fe.sector_eigs, dense_cap=8)
        assert capped.value == fe.value
        with pytest.raises(ValueError, match="sector 2 dimension 28 exceeds dense cap 8"):
            capped.gibbs_matrix()
        with pytest.raises(ValueError, match="exceeds dense cap 8"):
            C.free_energy(op, 1.3, 0.4, dense_cap=8)

    def test_gibbs_matrix_bounds_the_full_space(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, n_max=2)  # sectors 1, 8, 28
        fe = C.free_energy(op, 1.3, 0.4, dense_cap=28)
        with pytest.raises(ValueError, match="Fock space dimension 37 exceeds dense cap 28"):
            fe.gibbs_matrix()

    def test_gibbs_matrix_takes_the_operator_dtype(self):
        dom = cube(2)
        for fld in (None, C.MagneticField.constant([0.3, 0.2, 0.7])):
            op = C.coulomb_hamiltonian(dom, TWO_NUCLEI, field=fld, n_max=2)
            fe = C.free_energy(op, 1.3, 0.4)
            # the same sums into a complex128 matrix
            ref = np.zeros((op.dim, op.dim), dtype=complex)
            for key, idx in op.sectors.items():
                vals, vecs = np.linalg.eigh(op.blocks[key].toarray())
                w = np.exp(-1.3 * (vals - C._mu_dot_n(0.4, key)) - fe.log_z)
                ref[np.ix_(idx, idx)] = (vecs * w) @ vecs.conj().T
            M = fe.gibbs_matrix()
            assert M.dtype == (float if fld is None else complex)
            assert np.array_equal(M, ref.real if fld is None else ref)
            state = F.FockState(op.space, M, validate=False)
            assert C.variational_free_energy(op, 1.3, 0.4, state) == pytest.approx(fe.value, abs=1e-9)

    def test_mu_of_wrong_arity_raises(self):
        op = C.coulomb_hamiltonian(cube(2), TWO_NUCLEI, n_max=2)
        pair = C.two_species_hamiltonian(cube(2), 1.0, 100.0)
        for model, mu in ((op, (0.4, -0.2)), (pair, 0.4), (pair, (0.4, -0.2, 0.1))):
            with pytest.raises(ValueError, match="chemical potential arity"):
                C.free_energy(model, 1.3, mu)
        state = F.FockState(op.space, np.eye(op.dim) / op.dim, validate=False)
        with pytest.raises(ValueError, match="chemical potential arity"):
            C.variational_free_energy(op, 1.3, (0.4, -0.2), state)

    def test_mean_charge(self):
        dom = cube(2)
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=2)
        fe = C.free_energy(op, 1.0, -50.0)
        assert fe.mean_charge() == pytest.approx(0.0, abs=1e-12)


def plain_eigvalsh(op, key):
    return np.linalg.eigvalsh(op.blocks[key].toarray())


def split_blocks(op, key):
    """(size, copies) of the blocks _isotypic_split diagonalizes, largest first."""
    split = C._isotypic_split(op.reflections, op.sectors[key], op.blocks[key])
    return sorted(((M.shape[0], n) for M, n in split), reverse=True)


def group_order(op, key):
    return len(C._lift_group(op.reflections, op.sectors[key], op.blocks[key])[0])


def offering(op, lifts):
    """op with the given (perm, sign) lifts offered instead of its own."""
    return C.ManyBodyOperator(
        op.blocks, op.sectors, space=op.space,
        reflections=[lambda lift=lift: lift for lift in lifts],
    )


def field_3():
    # a constant field along z keeps only the z reflection: a complex block
    return C.coulomb_hamiltonian(
        cube(3), C.NucleiConfig([]), field=C.MagneticField.constant([0.0, 0.0, 0.7]), n_max=2
    )


class TestSectorSpectrum:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: C.two_species_hamiltonian(cube(2), 1.0, 100.0),
            lambda: C.two_species_hamiltonian(cube(3), 1.0, 100.0),
            lambda: C.coulomb_hamiltonian(cube(2), C.NucleiConfig([]), n_max=2),
            # side 3 puts sites on the mirror planes
            lambda: C.coulomb_hamiltonian(cube(3), C.NucleiConfig([]), n_max=2),
            field_3,
        ],
        ids=["two-species-2", "two-species-3", "fermion-2", "fermion-3", "field-3"],
    )
    def test_split_matches_dense(self, build, monkeypatch):
        monkeypatch.setattr(C, "_SPLIT_FROM", 8)  # these sectors are below the measured size
        op = build()
        field = op.blocks[min(op.sectors)].dtype == complex
        # the six lattice reflections generate O_h; the field keeps only z
        assert len(op.reflections) == (1 if field else 6)
        for key, idx in op.sectors.items():
            if idx.size < 8:
                continue
            assert group_order(op, key) == (2 if field else 48)
            blocks = split_blocks(op, key)
            assert sum(size * n for size, n in blocks) == idx.size
            split = C._sector_spectrum(op, key, 4096)
            dense = plain_eigvalsh(op, key)
            assert np.abs(split - dense).max() <= 1e-12 * np.abs(dense).max()
        if field:
            assert split_blocks(op, 2) == [(189, 1), (162, 1)]

    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_crystal_split_by_swap(self, side, monkeypatch):
        # nuclei at +a/4 in every cell break each axis reflection, not the swaps
        dom = cube(side)
        op = C.coulomb_hamiltonian(dom, crystal_nuclei(dom), n_max=2)
        lifts = [F.permutation_lift(op.space, s) for s in dom.reflections()]
        assert len(lifts) == 6 and len(op.reflections) == 3
        for lift, (perm, sign) in zip(op.reflections, lifts[3:]):
            assert np.array_equal(lift()[0], perm) and np.array_equal(lift()[1], sign)
        # offered every lattice reflection, a sector keeps the three swaps,
        # which generate S_3
        offered = offering(op, lifts)
        monkeypatch.setattr(C, "_SPLIT_FROM", 2)  # at side 2 every sector is small
        fe = C.free_energy(offered, 1.0, -4.0)
        for key, idx in op.sectors.items():
            if idx.size < 2:
                continue
            block = op.blocks[key]
            where = np.full(op.dim, -1)
            where[idx] = np.arange(idx.size)
            commutes = []
            for perm, sign in lifts:
                P = sp.csr_matrix((sign[idx], (where[perm[idx]], np.arange(idx.size))))
                commutes.append((P @ block @ P.T != block).nnz == 0)
            assert commutes == [False] * 3 + [True] * 3
            assert group_order(offered, key) == 6
            assert split_blocks(offered, key) == split_blocks(op, key)
            dense = plain_eigvalsh(op, key)
            assert np.abs(fe.sector_eigs[key] - dense).max() <= 1e-12 * np.abs(dense).max()
        # S_3 has two 1-dim irreps and one 2-dim one: one block per isotypic
        # component, its eigenvalues repeated once per linked subspace
        pins = {
            2: [(9, 2), (7, 1), (3, 1)],
            3: [(116, 2), (73, 1), (46, 1)],
            4: [(670, 2), (386, 1), (290, 1)],
        }
        assert split_blocks(op, 2) == pins[side]

    def test_quantum_nuclei_keeps_reflection_split(self):
        # O_h has ten irreps, of dimension 1, 2 or 3
        op = C.two_species_hamiltonian(cube(4), 1.0, 100.0)
        assert len(op.reflections) == 6 and group_order(op, (1, 1)) == 48
        assert split_blocks(op, (1, 1)) == [
            (288, 3), (288, 3), (224, 3), (224, 3), (168, 2), (168, 2),
            (120, 1), (120, 1), (56, 1), (56, 1),
        ]

    def test_free_energy_densifies_only_isotypic_blocks(self, monkeypatch):
        # a fall-back to whole sectors, or to the Z_2 characters of commuting
        # lifts (blocks 1056 + 960 and 8 x 512), fails here
        shapes = []

        def spy(dense, vectors=False, real=C._dense_eig):
            shapes.append(dense.shape[0])
            return real(dense, vectors)

        monkeypatch.setattr(C, "_dense_eig", spy)
        C.free_energy(crystal(4), 1.0, -4.0)
        assert max(shapes) == 670 and len(shapes) == 5  # sectors 0, 1; 2 in three blocks
        shapes.clear()
        C.free_energy(C.two_species_hamiltonian(cube(4), 1.0, 100.0), 1.0, (-1.0, -1.0))
        assert max(shapes) == 288 and len(shapes) == 13  # three small sectors; (1, 1) in ten

    def test_two_species_in_a_field_lifts_only_symmetries_of_t(self, monkeypatch):
        # a constant field along z: of the six lattice symmetries only the z
        # reflection (the third) fixes T(A), so it alone is offered and lifted
        dom = cube(3)
        fld = C.MagneticField.constant([0.0, 0.0, 0.7])
        z_mirror = dom.reflections()[2]
        lifted = []

        def spy(space, sigma, real=F.permutation_lift):
            lifted.append(sigma)
            return real(space, sigma)

        monkeypatch.setattr(F, "permutation_lift", spy)
        op = C.two_species_hamiltonian(dom, 1.0, 100.0, field=fld)
        assert len(op.reflections) == 1
        fe = C.free_energy(op, 1.0, (-1.0, -1.0))
        # the (1, 1) sector (729) is split: one lift per species
        assert len(lifted) == 2 and all(np.array_equal(s, z_mirror) for s in lifted)
        assert group_order(op, (1, 1)) == 2
        dense = plain_eigvalsh(op, (1, 1))
        assert np.abs(fe.sector_eigs[(1, 1)] - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_three_electron_crystal_sectors_split(self):
        # the nuclear diagonal sums each state's sorted list terms, so it is
        # bitwise invariant under the symmetries of v for every N; the
        # occupation-table product it replaced broke them on N >= 3 sectors
        sites = [[x, y, z] for x in range(2) for y in range(2) for z in range(4)]
        box = G.build_domain({"shape": "custom", "sites": sites}, 1.0)
        op = C.coulomb_hamiltonian(box, crystal_nuclei(box), n_max=3)
        assert op.sectors[3].size == 560 and group_order(op, 3) == 2  # x <-> y
        split = C._sector_spectrum(op, 3, 4096)
        dense = plain_eigvalsh(op, 3)
        assert np.abs(split - dense).max() <= 1e-12 * np.abs(dense).max()
        dom = cube(3)
        op = C.coulomb_hamiltonian(dom, crystal_nuclei(dom), n_max=3)
        assert op.sectors[3].size == 2925 and group_order(op, 3) == 6  # S_3

    def test_dense_cap_bounds_split_sector(self):
        op = crystal(3)
        with pytest.raises(ValueError, match="sector 2 dimension 351 exceeds dense cap 300"):
            C.free_energy(op, 1.0, -4.0, dense_cap=300)

    def test_lowest_energies_lift_nothing(self, monkeypatch):
        calls = []

        def spy(space, sigma, real=F.permutation_lift):
            calls.append(space.dim)
            return real(space, sigma)

        monkeypatch.setattr(F, "permutation_lift", spy)
        op = crystal(3)
        C.ground_state_energy(op)
        C.ground_state_vector(C.coulomb_hamiltonian(cube(2), TWO_NUCLEI, n_max=2))
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, n_max=2)
        perturbation_compare(spec, defects=[((0.65, 0.65, 0.65), 0.5)])
        assert calls == []
        # the full spectrum splits the 351 sector: each offered swap is lifted once
        C.free_energy(op, 1.0, -4.0)
        C.free_energy(op, 1.0, -3.0)
        assert calls == [op.dim] * 3

    def test_defective_lift_raises(self):
        dom = cube(3)
        op = crystal(3)
        xy, yz = dom.reflections()[3:5]
        perm, sign = F.permutation_lift(op.space, xy)
        with pytest.raises(C.EigensolverError, match="not a signed permutation of sector dim 351"):
            C.free_energy(offering(op, [(perm, 0.5 * sign)]), 1.0, -4.0)
        # the cyclic coordinate permutation is no involution, but a symmetry:
        # it generates Z_3, whose 2-dim real irrep keeps both of its rows in
        # one block (2 x 116 of the S_3 split; 119 = 73 + 46 is invariant)
        cyclic = offering(op, [F.permutation_lift(op.space, xy[yz])])
        assert group_order(cyclic, 2) == 3
        assert split_blocks(cyclic, 2) == [(232, 1), (119, 1)]
        split = C._sector_spectrum(cyclic, 2, 4096)
        dense = plain_eigvalsh(op, 2)
        assert np.abs(split - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_group_of_more_than_48_raises(self, monkeypatch):
        # every signed permutation commutes with the identity; a 49-cycle
        # generates 49 elements
        monkeypatch.setattr(C, "_SPLIT_FROM", 2)
        op = C.ManyBodyOperator(
            {0: sp.identity(49, format="csr")}, {0: np.arange(49)},
            reflections=[lambda: (np.roll(np.arange(49), 1), np.ones(49))],
        )
        with pytest.raises(C.EigensolverError, match="generate more than 48 elements"):
            C.free_energy(op, 1.0, 0.0)

    def test_split_is_repeatable_and_order_free(self):
        op = C.two_species_hamiltonian(cube(3), 1.0, 100.0)
        first, again = (C.free_energy(op, 1.0, (-1.0, -1.0)).sector_eigs for _ in range(2))
        assert all(np.array_equal(first[key], again[key]) for key in first)
        reverse = offering(op, [lift() for lift in op.reflections[::-1]])
        back = C._sector_spectrum(reverse, (1, 1), 4096)
        assert np.abs(back - first[(1, 1)]).max() <= 1e-12 * np.abs(back).max()

    def test_gibbs_matrix_and_ground_vector_split(self):
        op = C.two_species_hamiltonian(cube(2), 1.0, 100.0, el_max=2)
        fe = C.free_energy(op, 1.3, (0.4, -0.2))
        ref = np.zeros((op.dim, op.dim))
        for key, idx in op.sectors.items():
            vals, vecs = np.linalg.eigh(op.blocks[key].toarray())
            w = np.exp(-1.3 * (vals - C._mu_dot_n(fe.mu, key)) - fe.log_z)
            ref[np.ix_(idx, idx)] = (vecs * w) @ vecs.T
        assert np.abs(fe.gibbs_matrix() - ref).max() < 1e-12
        energy, _key, vec = C.ground_state_vector(op)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(full_matrix(op) @ vec - energy * vec) < 1e-10


class TestHartreeFock:
    def test_zero_density_gives_constant(self):
        dom = cube(2)
        e = C.hf_energy(dom, TWO_NUCLEI, np.zeros((8, 8)))
        assert e == pytest.approx(C.nuclear_constant(TWO_NUCLEI), abs=1e-12)

    def test_rank_one_self_interaction_free(self):
        dom = cube(2)
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(8)
        phi /= np.linalg.norm(phi)
        gamma = np.outer(phi, phi)
        h = C.kinetic_operator(dom) + np.diag(C.nuclear_potential(dom, TWO_NUCLEI))
        expected = phi @ h @ phi + C.nuclear_constant(TWO_NUCLEI)
        assert C.hf_energy(dom, TWO_NUCLEI, gamma) == pytest.approx(expected, abs=1e-10)

    def test_hf_upper_bounds_schroedinger(self):
        rng = np.random.default_rng(8)
        for trial in range(4):
            dom = cube(2)
            pos = rng.uniform(0.3, 1.7, size=(2, 3))
            while np.linalg.norm(pos[0] - pos[1]) < 0.5:
                pos = rng.uniform(0.3, 1.7, size=(2, 3))
            nuc = C.NucleiConfig([(pos[0], 3.0), (pos[1], 2.0)])
            op = C.coulomb_hamiltonian(dom, nuc)
            exact = C.ground_state_energy(op).value
            hf = C.hf_minimize(dom, nuc, mu=0.0)
            assert hf.energy >= exact - 1e-9

    def test_finite_temperature_map_converges(self):
        dom = cube(2)
        res = C.hf_minimize(dom, TWO_NUCLEI, mu=1.0, beta=2.0)
        assert res.converged
        lam = np.linalg.eigvalsh(res.gamma.matrix)
        assert lam.min() > -1e-10 and lam.max() < 1 + 1e-10

    def test_finite_temperature_upper_bounds_gibbs(self):
        # quasi-free trial states bound the exact grand potential from above
        dom = cube(2)
        beta, mu = 1.5, 0.5
        hf = C.hf_minimize(dom, TWO_NUCLEI, mu=mu, beta=beta)
        op = C.coulomb_hamiltonian(dom, TWO_NUCLEI)
        fe = C.free_energy(op, beta, mu)
        assert hf.grand_value >= fe.value - 1e-9


class TestChargeConcavity:
    def test_single_nucleus_concave(self):
        dom = cube(2)
        rep = C.charge_concavity_scan(dom, [[0.6, 0.6, 0.6]], z_max=6.0, grid_steps=9, n_max=2)
        assert rep.concave and rep.corner_attained

    def test_two_nuclei_corner(self):
        dom = cube(2)
        rep = C.charge_concavity_scan(
            dom, [[0.4, 0.4, 0.4], [1.6, 1.6, 0.4]], z_max=4.0, grid_steps=5, n_max=2
        )
        assert rep.concave and rep.corner_attained
        assert rep.min_value == pytest.approx(rep.corner_min, abs=1e-9)

    def test_zero_charges_match_free_model(self):
        dom = cube(2)
        rep = C.charge_concavity_scan(dom, [[0.6, 0.6, 0.6]], z_max=3.0, grid_steps=3, n_max=2)
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=2)
        assert rep.table[0] == pytest.approx(C.ground_state_energy(op).value, abs=1e-12)

    def test_cost_guard(self):
        dom = cube(2)
        with pytest.raises(ValueError, match="limited"):
            C.charge_concavity_scan(dom, [[0.5] * 3] * 4, z_max=1.0, grid_steps=3)


def one_shot(domain, nuclei, field=None, n_max=2):
    """Reference Coulomb Hamiltonian assembled in one pass, dGamma(T + diag v)
    + dGamma_2(W) + c, with the lifts of the reflections that leave T + diag v
    invariant."""
    space = F.build_space(domain.n_sites, n_max=n_max)
    T = C.kinetic_operator(domain, field)
    h = T + np.diag(C.nuclear_potential(domain, nuclei)).astype(T.dtype)
    W = C.coulomb_kernel(domain)
    H = F.second_quantize_onebody(space, h) + F.second_quantize_twobody(space, W)
    H = H + C.nuclear_constant(nuclei) * sp.identity(space.dim, format="csr")
    lifts = [
        F.permutation_lift(space, s)
        for s in domain.reflections()
        if np.array_equal(h[np.ix_(s, s)], h)
    ]
    return H, lifts


def builder_configs(side):
    """No nuclei; one nucleus on two mirror planes; three nuclei, one of them
    uncharged."""
    c = (side - 1) / 2.0
    return [
        C.NucleiConfig([]),
        C.NucleiConfig([([c, c, 0.3], 1.7)]),
        C.NucleiConfig([([0.4, 0.4, 0.4], 1.7), ([1.6, 0.6, 1.3], 0.6), ([0.5, 1.5, 0.7], 0.0)]),
    ]


BUILDER_CASES = [
    pytest.param(side, fld, id=f"side{side}-fermion-{'field' if fld else 'nofield'}")
    for side in (2, 3)
    for fld in (None, C.MagneticField.constant([0.1, -0.2, 0.3]))
]


class TestChargeFamily:
    """Hamiltonians over one _Electrons, the nuclei entering as one diagonal."""

    @pytest.mark.parametrize("side", [2, 3])
    def test_single_nucleus_matches_hamiltonian(self, side):
        dom = cube(side)
        positions = [[0.4, 0.4, 0.4], [1.6, 0.6, 1.3]]
        electrons = C._Electrons(dom, n_max=2)
        for R, z in zip(positions, [1.7, 0.6]):
            nuclei = C.NucleiConfig([(R, z)])
            ref, _lifts = one_shot(dom, nuclei)
            assert abs(full_matrix(electrons.operator(nuclei)) - ref).max() < 1e-12

    def test_pair_constant_matches_loop(self):
        dom = cube(2)
        positions = [[0.4, 0.4, 0.4], [1.6, 0.6, 1.3], [0.5, 1.5, 0.7]]
        electrons = C._Electrons(dom, n_max=2)
        for charges in ([1.7, 0.6, 0.0], [1.7, 0.6, 1.1], [0.0, 0.6, 1.1]):
            nuclei = C.NucleiConfig(list(zip(positions, charges)))
            ref, _lifts = one_shot(dom, nuclei)
            H = full_matrix(electrons.operator(nuclei))
            assert abs(H - ref).max() < 1e-12
            # the vacuum entry is the nuclear repulsion alone
            const = loop_pairs(list(zip(np.array(positions, dtype=float), charges)))[0]
            assert H[0, 0] == pytest.approx(const, rel=1e-14)

    def test_site_regularization_guard(self):
        electrons = C._Electrons(cube(2), n_max=2)
        with pytest.raises(ValueError, match="regularization violated"):
            electrons.operator(C.NucleiConfig([([0.0, 0.0, 0.05], 1.0)]))
        with pytest.raises(ValueError, match="regularization violated"):
            C.charge_concavity_scan(cube(2), [[0.0, 0.0, 0.05]], z_max=1.0, grid_steps=3)

    @pytest.mark.parametrize("side, fld", BUILDER_CASES)
    def test_matches_one_shot_assembly(self, side, fld):
        dom = cube(side)
        electrons = C._Electrons(dom, fld, 2)
        kept = 0
        for nuclei in builder_configs(side):
            op = electrons.operator(nuclei)
            ref, lifts = one_shot(dom, nuclei, fld)
            assert abs(full_matrix(op) - ref).max() < 1e-12
            assert len(op.reflections) == len(lifts)
            for lift, (ref_perm, ref_sign) in zip(op.reflections, lifts):
                perm, sign = lift()
                assert np.array_equal(perm, ref_perm) and np.array_equal(sign, ref_sign)
            kept += len(lifts)
        if fld is None:  # the empty and the one-nucleus configurations keep some
            assert kept > 0

    @pytest.mark.parametrize("side, fld", BUILDER_CASES)
    def test_reuse_matches_fresh_builder(self, side, fld):
        dom = cube(side)
        args = (dom, fld, 2)
        configs = builder_configs(side)
        order = [2, 0, 1, 0, 2, 1]
        reused = C._Electrons(*args)
        for k in order:
            got = reused.operator(configs[k])
            want = C._Electrons(*args).operator(configs[k])
            assert got.blocks.keys() == want.blocks.keys()
            for key, block in got.blocks.items():
                assert block.dtype == want.blocks[key].dtype
                assert (block != want.blocks[key]).nnz == 0
            assert len(got.reflections) == len(want.reflections)
            for lift, ref_lift in zip(got.reflections, want.reflections):
                (perm, sign), (ref_perm, ref_sign) = lift(), ref_lift()
                assert np.array_equal(perm, ref_perm) and np.array_equal(sign, ref_sign)


    def test_reused_builder_spectra_bitwise(self, monkeypatch):
        calls = []

        def spy(space, sigma, real=F.permutation_lift):
            calls.append(space)
            return real(space, sigma)

        monkeypatch.setattr(F, "permutation_lift", spy)
        dom = cube(3)
        configs = [
            crystal_nuclei(dom),
            C.NucleiConfig([]),
            crystal_nuclei(dom, 0.45),
            defect_crystal_nuclei(dom),
        ]
        reused = C._Electrons(dom, n_max=2)
        for k in [0, 1, 2, 3, 0, 1]:
            got = C.free_energy(reused.operator(configs[k]), 1.0, -4.0).sector_eigs
            fresh = C._Electrons(dom, n_max=2).operator(configs[k])
            want = C.free_energy(fresh, 1.0, -4.0).sector_eigs
            assert got.keys() == want.keys()
            for key in got:
                assert np.array_equal(got[key], want[key])
        # each of the six lattice symmetries is lifted at most once on the reused builder
        assert 3 <= sum(space is reused.space for space in calls) <= 6


class TestElectronsMemory:
    def test_side5_assembly_peak(self):
        """The side-5 cube with n_max = 2 has dim 7876 on 125 modes.  The peak
        is about 8.5 MiB since dGamma(h) and dGamma_2 read the orbital lists
        (12.5 MiB with the occupation table, 18.3 MiB with two (dim, n)
        float64 arrays); a (dim, n) int64 table kept alive through the
        assembly, such as ranked occupation rows, adds 7.5 MiB to it."""
        dom = cube(5)
        tracemalloc.start()
        try:
            C._Electrons(dom, n_max=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2 ** 20

    def test_assembly_builds_no_occupation_table(self):
        # dGamma(T), dGamma_2(W) and the nuclear diagonal all read the orbital
        # lists; the (dim, n) table is a cached property, so building it
        # leaves it in the space's __dict__
        dom = cube(3)
        op = C.coulomb_hamiltonian(dom, crystal_nuclei(dom), n_max=2)
        assert "occupations" not in op.space.__dict__
        electrons = C._Electrons(dom, n_max=2)
        op = electrons.operator(crystal_nuclei(dom))
        assert "occupations" not in op.space.__dict__


class TestTwoSpeciesMemory:
    def test_side3_assembly_peak(self):
        """The side-3 cube with el_max = 2 and nuc_max = 1 has species
        spaces of 379 and 28 states and a largest block, (2, 1), of 9477.
        The peak is about 3.7 MiB when only the sector blocks are formed;
        the whole product space (10 612 states, its sp.kron terms and the
        dense cross table) took it to 5.6 MiB."""
        tracemalloc.start()
        try:
            C.two_species_hamiltonian(cube(3), 1.0, 100.0, el_max=2, nuc_max=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20

    def test_assembly_builds_no_occupation_table(self, monkeypatch):
        # the cross term reads the orbital lists of both species
        spaces = []

        def spy(*args, real=F.build_space, **kwargs):
            spaces.append(real(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(C, "build_space", spy)
        C.two_species_hamiltonian(cube(3), 1.0, 100.0, el_max=2, nuc_max=1)
        assert [s.statistics for s in spaces] == ["fermion", "boson"]
        assert all("occupations" not in s.__dict__ for s in spaces)


# Operators whose sector blocks must be bitwise those of the whole-space
# assembly: the ground-build crystals with and without the defect, the
# electrons of the movable scan, a field, and the two-species scan model
BITWISE_CASES = [
    pytest.param("crystal", side, id=f"crystal-{side}") for side in (2, 3, 4, 5)
] + [
    pytest.param("defect", side, id=f"defect-{side}") for side in (2, 3, 4, 5)
] + [
    pytest.param("movable", side, id=f"movable-{side}") for side in (2, 3, 4)
] + [
    pytest.param("field", 3, id="field-3"),
] + [
    pytest.param("two-species", side, id=f"two-species-{side}") for side in (2, 3, 4)
] + [
    pytest.param("two-species-field", 2, id="two-species-field-2"),
]


def bitwise_pair(kind, side):
    """(operator, its whole-space oracle (H, sectors)) of one BITWISE_CASES entry."""
    dom = cube(side)
    fld = C.MagneticField.constant([0.1, -0.2, 0.3])
    if kind.startswith("two-species"):
        field = fld if kind.endswith("field") else None
        return (
            C.two_species_hamiltonian(dom, 1.0, 100.0, field=field),
            whole_two_species(dom, 1.0, 100.0, field=field),
        )
    nuclei, field, n_max = {
        "crystal": (crystal_nuclei(dom), None, 2),
        "defect": (defect_crystal_nuclei(dom), None, 2),
        "movable": (C.NucleiConfig([([0.25, 0.25, 0.25], 2.0)]), None, 1),
        "field": (TWO_NUCLEI, fld, 2),
    }[kind]
    return (
        C.coulomb_hamiltonian(dom, nuclei, field=field, n_max=n_max),
        whole_electrons(dom, nuclei, field=field, n_max=n_max),
    )


class TestSectorBlocks:
    @pytest.mark.parametrize("kind, side", BITWISE_CASES)
    def test_blocks_bitwise_whole_space_assembly(self, kind, side):
        op, (H, sectors) = bitwise_pair(kind, side)
        assert list(op.sectors) == list(sectors)
        for key, idx in sectors.items():
            assert np.array_equal(op.sectors[key], idx)
            block, ref = op.blocks[key], H[np.ix_(idx, idx)]
            for name in ("indptr", "indices", "data"):
                got, want = getattr(block, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_neutral_side3_two_two_block(self):
        # the whole product space (153 874 states) passed the cap; the
        # (2, 2) block alone is built
        dom = cube(3)
        op = C.two_species_hamiltonian(dom, 1.0, 100.0, el_max=2, nuc_max=2, dim_cap=2 ** 18)
        block = op.blocks[2, 2]
        assert block.shape == (132678, 132678)
        val, info = C._sector_lowest(block)
        ref = eigsh(block, k=1, which="SA", tol=1e-12)[0][0]
        assert info["solver"] == "lanczos" and abs(val - ref) <= 1e-9 * abs(ref)

    def test_block_above_cap_raises(self):
        dom = cube(3)
        with pytest.raises(ValueError, match=r"sector \(2, 2\) dimension 132678 exceeds cap 65536"):
            C.two_species_hamiltonian(dom, 1.0, 100.0, el_max=2, nuc_max=2)
        # the largest block decides: (1, 2) is 27 x 378
        C.two_species_hamiltonian(dom, 1.0, 100.0, el_max=1, nuc_max=2, dim_cap=10206)
        with pytest.raises(ValueError, match=r"sector \(1, 2\) dimension 10206 exceeds cap 10205"):
            C.two_species_hamiltonian(dom, 1.0, 100.0, el_max=1, nuc_max=2, dim_cap=10205)


class TestTwoSpecies:
    def test_decoupled_at_zero_charge(self):
        dom = cube(2)
        op = C.two_species_hamiltonian(dom, z=0.0, M=50.0, el_max=1, nuc_max=1)
        res = C.ground_state_energy(op)
        el = C.ground_state_energy(C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=1))
        T = C.kinetic_operator(dom)
        nuc_min = min(0.0, np.linalg.eigvalsh(T / 50.0)[0])
        assert res.value == pytest.approx(el.value + nuc_min, abs=1e-12)

    def test_monotone_in_inverse_mass(self):
        dom = cube(2)
        vals = []
        for M in (1e3, 1e6):
            op = C.two_species_hamiltonian(dom, z=6.0, M=M, el_max=1, nuc_max=1)
            vals.append(C.ground_state_energy(op).value)
        assert vals[1] <= vals[0] + 1e-9

    def test_conserves_both_numbers(self):
        dom = cube(2)
        op = C.two_species_hamiltonian(dom, z=2.0, M=10.0, el_max=1, nuc_max=1)
        H, sectors = whole_two_species(dom, z=2.0, M=10.0)
        assert block_offdiagonal_norm(H, sectors) == 0.0
        assert (full_matrix(op) != H).nnz == 0

    def test_binding_at_large_charge(self):
        dom = cube(2)
        op = C.two_species_hamiltonian(dom, z=8.0, M=100.0, el_max=1, nuc_max=1)
        res = C.ground_state_energy(op)
        assert res.value < 0.0
        assert res.n_star == (1, 1)

    def test_periodic_field_diamagnetic(self):
        dom = cube(2)
        # period 4: at period 2 every y-bond midpoint sits at a zero of the sine
        fld = C.MagneticField.periodic_sine(0.8, 4.0)
        assert np.abs(C.kinetic_operator(dom, fld).imag).max() > 0.1
        e0 = C.ground_state_energy(
            C.two_species_hamiltonian(dom, z=8.0, M=100.0, el_max=1, nuc_max=1)
        ).value
        eA = C.ground_state_energy(
            C.two_species_hamiltonian(dom, z=8.0, M=100.0, field=fld, el_max=1, nuc_max=1)
        ).value
        assert eA >= e0 - 1e-10

    @pytest.mark.parametrize("z", [1.0, 2.0])
    def test_nucleus_hops_with_its_own_charge(self, z):
        # one nucleus and no electron: dGamma_nuc(T(-zA))/M, whose diagonal
        # holds no Coulomb term
        dom = cube(2)
        fld = C.MagneticField.constant([0.3, 0.2, 0.7])
        op = C.two_species_hamiltonian(dom, z, 10.0, field=fld, el_max=1, nuc_max=1)
        nuc = F.build_space(dom.n_sites, "boson", boson_cap=1, n_max=1)
        idx = np.ix_(nuc.sectors[1], nuc.sectors[1])
        block = op.blocks[0, 1].toarray()

        def hop(A):
            return (F.second_quantize_onebody(nuc, C.kinetic_operator(dom, A)) / 10.0).toarray()

        assert np.abs(block - hop(C.MagneticField(lambda p: -z * fld(p)))[idx]).max() <= 1e-15
        # not the electrons' T(A)/M
        assert np.abs(block - hop(fld)[idx]).max() > 0.05


class TestMovableNuclei:
    def test_never_positive(self):
        dom = cube(2)
        cands = [[0.4, 0.4, 0.4], [1.6, 1.6, 1.6]]
        res, cfg, relaxed = C.movable_nuclei_energy(dom, 3.0, cands, K_max=2, n_max=2)
        assert res.value <= 0.0
        assert res.value == pytest.approx(relaxed, abs=1e-9)

    def test_monotone_in_candidates(self):
        dom = cube(2)
        small = [[0.4, 0.4, 0.4]]
        big = small + [[1.6, 1.6, 1.6], [0.4, 1.6, 0.4]]
        e_small = C.movable_nuclei_energy(dom, 5.0, small, K_max=1, n_max=2)[0].value
        e_big = C.movable_nuclei_energy(dom, 5.0, big, K_max=1, n_max=2)[0].value
        assert e_big <= e_small + 1e-12

    def test_binding_with_strong_charge(self):
        dom = cube(2)
        cands = [[0.4, 0.4, 0.4], [1.6, 1.6, 1.6]]
        res, cfg, _ = C.movable_nuclei_energy(dom, 6.0, cands, K_max=1, n_max=2)
        assert res.value < 0.0 and len(cfg) == 1


class TestClassicalFreeEnergy:
    GRID = [[0.45, 0.45, 0.45], [1.55, 1.55, 1.55]]

    def test_suppressed_nuclei_reduce_to_electrons(self):
        dom = cube(2)
        out = C.classical_nuclei_free_energy(
            dom, 1.0, 1.0, (0.0, -1000.0), K_max=1, nucleus_grid=self.GRID,
            cell_volume=4.0, n_max=2,
        )
        op = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=2)
        fe = C.free_energy(op, 1.0, 0.0)
        assert out["value"] == pytest.approx(fe.value, abs=1e-9)

    def test_hand_assembled_two_term_sum(self):
        dom = cube(2)
        beta, mu = 0.9, (0.3, -0.7)
        grid = [self.GRID[0]]
        out = C.classical_nuclei_free_energy(
            dom, 1.5, beta, mu, K_max=1, nucleus_grid=grid, cell_volume=8.0,
            n_max=1,
        )
        # direct evaluation: Z = tr e^(-beta(H0 - mu1 N)) + h^3 e^(beta mu2) tr ...
        op0 = C.coulomb_hamiltonian(dom, C.NucleiConfig([]), n_max=1)
        op1 = C.coulomb_hamiltonian(dom, C.NucleiConfig([(grid[0], 1.5)]), n_max=1)
        z = 0.0
        for op, w in ((op0, 1.0), (op1, 8.0 * np.exp(beta * mu[1]))):
            for N, idx in op.sectors.items():
                vals = np.linalg.eigvalsh(op.blocks[N].toarray())
                z += w * np.exp(-beta * (vals - mu[0] * N)).sum()
        assert out["value"] == pytest.approx(-np.log(z) / beta, abs=1e-10)

    @pytest.mark.parametrize("z, h", [(1, 3), (2, 5)])
    def test_relaxed_reuses_fixed_charge_solves(self, monkeypatch, z, h):
        # one free_energy per nucleus subset at charge z and cell volume h; the
        # same bits as a term by term sum with a fresh solve each
        dom, beta, mu = cube(2), 1.0, (0.0, 0.5)
        solve = C.free_energy
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(C, "free_energy", counted)
        out = C.classical_nuclei_free_energy(
            dom, z, beta, mu, K_max=1, nucleus_grid=self.GRID, cell_volume=h, n_max=2,
        )
        assert len(calls) == 3

        def gibbs(subset, charges):
            nuclei = C.NucleiConfig([(self.GRID[i], q) for i, q in zip(subset, charges)])
            return solve(C.coulomb_hamiltonian(dom, nuclei, n_max=2), beta, mu[0], dense_cap=4096)

        energy, fixed = np.inf, []
        for subset in ((), (0,), (1,)):
            K = len(subset)
            fe = gibbs(subset, [z] * K)
            if fe.ground_state().value < energy - 1e-12:
                energy = fe.ground_state().value
            fixed.append(fe.log_z + K * np.log(h) + beta * mu[1] * K)
        assert out["energy"] == energy
        assert out["value"] == -float(C._logsumexp(np.array(fixed))) / beta

    def test_truncation_flag(self):
        dom = cube(2)
        out = C.classical_nuclei_free_energy(
            dom, 2.0, 1.0, (0.0, 5.0), K_max=1, nucleus_grid=self.GRID,
            cell_volume=4.0, n_max=1,
        )
        assert out["truncation_flagged"]


class TestDensityBound:
    def test_density_power_bounded_across_sizes(self):
        ratios = []
        for side in (2, 3):
            dom = cube(side)
            nuc = C.NucleiConfig.from_lattice(dom, 0.5)
            op = C.coulomb_hamiltonian(dom, nuc, n_max=2, dim_cap=70000)
            _e, _n, vec = C.ground_state_vector(op)
            st = F.FockState(op.space, np.outer(vec, vec.conj()), validate=False)
            rho = np.real(np.diag(F.reduced_density(st, 1).matrix)) / dom.a ** 3
            ratios.append(dom.a ** 3 * (rho ** (5.0 / 3.0)).sum() / dom.volume)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10.0


def monte_carlo_alpha(seed, samples):
    """E[1/|u - v|] for u, v uniform in the unit cube, by the seeded Monte
    Carlo that onsite_alpha's stored value came from."""
    rng = np.random.default_rng(seed)
    u = rng.random((samples, 3))
    v = rng.random((samples, 3))
    return float(np.mean(1.0 / np.linalg.norm(u - v, axis=1)))


class TestOnsiteAlpha:
    def test_deterministic_and_plausible(self):
        a1 = monte_carlo_alpha(11, 200000)
        a2 = monte_carlo_alpha(11, 200000)
        assert a1 == a2
        # cell-averaged Coulomb constant of the unit cube
        assert 1.85 < a1 < 1.92

    def test_default_key_literal_recomputes(self):
        assert C.onsite_alpha() == monte_carlo_alpha(2024, 10 ** 6)
