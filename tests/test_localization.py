import itertools

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomblab import fock as F
from coulomblab import localization as L


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    M = X @ X.conj().T
    return F.FockState(space, M / np.trace(M).real, validate=False)


def localize_state(state, q):
    """The q-localized state tr_2(U G U*) of a FockState."""
    M = L.localize_positive_operator(state.space, state.matrix, q)
    return F.FockState(state.space, M, validate=False)


def family_weight(weights, P):
    """q_P = (sum_{i in P} q_i^2)^(1/2) of a validated commuting family."""
    return L._family_weight(L._validated_family(weights), P)


def lifted_ops(space, f):
    """c^dag(f) and d^dag(f) on the doubled space, built independently."""
    D = space.dim
    sign = (
        sps.diags(np.where(space.totals % 2 == 0, 1.0, -1.0))
        if space.is_fermionic
        else sps.identity(D)
    )
    op = sum(f[j] * F.ladder(space, j, "create") for j in range(space.n))
    return sps.kron(op, sps.identity(D)), sps.kron(sign, op)


class TestIsometry:
    @pytest.mark.parametrize("statistics,n", [("fermion", 5), ("boson", 2)])
    def test_isometry_property(self, statistics, n):
        space = F.build_space(n, statistics, boson_cap=2)
        rng = np.random.default_rng(1)
        w = L.LocalizationWeight(rng.random(n))
        U = L.localization_isometry(space, w)
        err = np.abs((U.conj().T @ U).toarray() - np.eye(space.dim)).max()
        assert err < 1e-12

    def test_identity_weight_appends_vacuum(self):
        space = F.build_space(4, "fermion")
        U = L.localization_isometry(space, L.LocalizationWeight(np.ones(4)))
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        phi = (U @ psi).reshape(space.dim, space.dim)
        vac = space.vacuum_index()
        assert np.abs(phi[:, vac] - psi).max() < 1e-14
        assert np.abs(np.delete(phi, vac, axis=1)).max() == 0.0

    def test_all_four_intertwining_relations(self):
        space = F.build_space(4, "fermion")
        rng = np.random.default_rng(3)
        for trial in range(5):
            w = L.LocalizationWeight(rng.random(4))
            U = L.localization_isometry(space, w)
            f = rng.standard_normal(4)
            qf, rf = w.q @ f, w.r @ f
            cdag_qf, ddag_rf = lifted_ops(space, qf)[0], lifted_ops(space, rf)[1]
            cdag_f, ddag_f = lifted_ops(space, f)
            adag = lambda g: sum(g[j] * F.ladder(space, j, "create") for j in range(4))
            # creation and annihilation intertwinings
            assert np.abs((U @ adag(f) - (cdag_qf + ddag_rf) @ U).toarray()).max() < 1e-12
            assert (
                np.abs((U @ adag(f).T - (cdag_qf + ddag_rf).conj().T @ U).toarray()).max()
                < 1e-12
            )
            # composed annihilation forms
            assert np.abs((U @ adag(qf).T - cdag_f.conj().T @ U).toarray()).max() < 1e-12
            assert np.abs((U @ adag(rf).T - ddag_f.conj().T @ U).toarray()).max() < 1e-12
            # adjoint creation forms
            assert np.abs((adag(qf) @ U.conj().T - U.conj().T @ cdag_f).toarray()).max() < 1e-12
            assert np.abs((adag(rf) @ U.conj().T - U.conj().T @ ddag_f).toarray()).max() < 1e-12


class TestLocalizeState:
    def test_identity_weight_is_identity(self):
        space = F.build_space(4, "fermion")
        st = random_state(space, 4)
        loc = localize_state(st, L.LocalizationWeight(np.ones(4)))
        assert np.abs(loc.matrix - st.matrix).max() < 1e-12

    def test_zero_weight_gives_vacuum(self):
        space = F.build_space(4, "fermion")
        st = random_state(space, 5)
        loc = localize_state(st, L.LocalizationWeight.zero(4))
        vac = np.zeros(space.dim)
        vac[space.vacuum_index()] = 1.0
        assert np.abs(loc.matrix - np.outer(vac, vac)).max() < 1e-12
        assert abs(F.entropy(loc)) < 1e-10

    def test_trace_preserved(self):
        space = F.build_space(5, "fermion")
        st = random_state(space, 6)
        rng = np.random.default_rng(7)
        loc = localize_state(st, L.LocalizationWeight(rng.random(5)))
        assert np.trace(loc.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_one_body_density_conjugation(self):
        space = F.build_space(4, "fermion")
        st = random_state(space, 8)
        rng = np.random.default_rng(9)
        w = L.LocalizationWeight(rng.random(4))
        loc = localize_state(st, w)
        g_orig = F.reduced_density(st, 1).matrix
        g_loc = F.reduced_density(loc, 1).matrix
        assert np.abs(g_loc - w.q @ g_orig @ w.q).max() < 1e-10

    def test_two_body_density_conjugation(self):
        space = F.build_space(4, "fermion")
        st = random_state(space, 10)
        rng = np.random.default_rng(11)
        w = L.LocalizationWeight(rng.random(4))
        loc = localize_state(st, w)
        g2 = F.reduced_density(st, 2).matrix
        g2_loc = F.reduced_density(loc, 2).matrix
        pairs = list(itertools.combinations(range(4), 2))
        q = w.q
        Q2 = np.zeros((len(pairs), len(pairs)))
        for r, (i, j) in enumerate(pairs):
            for c, (k, l) in enumerate(pairs):
                Q2[r, c] = q[i, k] * q[j, l] - q[i, l] * q[j, k]
        assert np.abs(g2_loc - Q2 @ g2 @ Q2.conj().T).max() < 1e-10

    def test_restriction_consistency(self):
        # q = projector onto the first mode block: localization equals the
        # tensor-factor restriction
        space = F.build_space(5, "fermion")
        st = random_state(space, 12)
        proj = L.LocalizationWeight(np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        loc = localize_state(st, proj)
        U, s1, s2 = F.split_isomorphism(space, 2)
        big = U @ st.matrix @ U.conj().T.toarray()
        # trace out the second tensor factor
        red = np.einsum("abcb->ac", big.reshape(s1.dim, s2.dim, s1.dim, s2.dim))
        emb = np.zeros((space.dim, s1.dim))
        for i1, occ in enumerate(s1.occupations.tolist()):
            emb[space.index(tuple(occ) + (0, 0, 0)), i1] = 1.0
        assert np.abs(loc.matrix - emb @ red @ emb.T).max() < 1e-12

    def test_quasi_free_preservation(self):
        space = F.build_space(4, "fermion")
        rng = np.random.default_rng(13)
        lam = rng.random(4) * 0.8 + 0.1
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        st = F.quasi_free_state(space, (V * lam) @ V.T)
        w = L.LocalizationWeight(rng.random(4))
        loc = localize_state(st, w)
        g1 = F.reduced_density(loc, 1).matrix
        g2 = F.reduced_density(loc, 2).matrix
        pairs = list(itertools.combinations(range(4), 2))
        for r, (p, q) in enumerate(pairs):
            for c, (i, j) in enumerate(pairs):
                wick = g1[i, p] * g1[j, q] - g1[j, p] * g1[i, q]
                assert abs(g2[r, c] - wick) < 1e-9


@st.composite
def localization_cases(draw, statistics):
    """(space, weight kind, stack shape, seed): fermions up to 6 modes, bosons
    up to 3 modes of cap up to 3; rotated (non-diagonal) weights on fermion
    spaces only."""
    fermions = statistics == "fermion"
    cap = 1 if fermions else draw(st.integers(1, 3))
    n = draw(st.sampled_from(range(1, 7 if fermions else 4)))
    n_max = draw(st.none() | st.integers(0, n * cap))
    kinds = ["diagonal", "projector"] + (["rotated"] if fermions else [])
    kind = draw(st.sampled_from(kinds))
    stack = draw(st.sampled_from([(), (2,)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return F.build_space(n, statistics, boson_cap=cap, n_max=n_max), kind, stack, seed


def check_channels_against_isometry(space, kind, stack, seed):
    """localize_positive_operator against tr_2(U M U*) with the explicit
    doubling isometry U, slice by slice for a stacked input."""
    rng = np.random.default_rng(seed)
    n, D = space.n, space.dim
    if kind == "diagonal":
        w = L.LocalizationWeight(rng.random(n))
    elif kind == "projector":
        w = L.LocalizationWeight(rng.integers(0, 2, n).astype(float))
    else:
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = L.LocalizationWeight((V * rng.random(n)) @ V.T)
    X = rng.standard_normal(stack + (D, D)) + 1j * rng.standard_normal(stack + (D, D))
    M = X @ np.swapaxes(X, -1, -2).conj()
    M /= np.trace(M, axis1=-2, axis2=-1).real[..., None, None]
    got = L.localize_positive_operator(space, M, w)
    assert got.shape == M.shape
    U = L.localization_isometry(space, w).toarray()
    for idx in np.ndindex(stack):
        oracle = (U @ M[idx]).reshape(D, D * D) @ U.reshape(D, D * D).conj().T
        assert np.abs(got[idx] - oracle).max() < 1e-12


class TestChannels:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(localization_cases("fermion"))
    def test_fermions_match_isometry(self, case):
        check_channels_against_isometry(*case)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(localization_cases("boson"))
    def test_bosons_match_isometry(self, case):
        check_channels_against_isometry(*case)

    def test_boson_rotation_rejected(self):
        space = F.build_space(2, "boson", boson_cap=2)
        rotated = L.LocalizationWeight(np.array([[0.5, 0.1], [0.1, 0.4]]))
        st = random_state(space, 30)
        for call in (
            lambda: L.localization_isometry(space, rotated),
            lambda: L.localize_positive_operator(space, st.matrix, rotated),
            lambda: localize_state(st, rotated),
        ):
            with pytest.raises(ValueError, match="fermion space"):
                call()
        # a diagonal weight given as a matrix stays supported
        U = L.localization_isometry(space, np.diag([0.3, 0.6]))
        assert np.abs((U.conj().T @ U).toarray() - np.eye(space.dim)).max() < 1e-12


class TestFamilyWeight:
    def test_full_family_is_identity(self):
        rng = np.random.default_rng(14)
        raw = rng.random((3, 5)) + 0.1
        raw /= np.sqrt((raw ** 2).sum(axis=0))
        w = family_weight(list(raw), [0, 1, 2])
        assert np.abs(w.q - np.eye(5)).max() < 1e-10

    def test_empty_set_is_zero(self):
        raw = np.ones((1, 4))
        w = family_weight(list(raw), [])
        assert np.abs(w.q).max() == 0.0

    def test_disjoint_indicators_give_union(self):
        inds = [
            np.array([1.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 1.0]),
        ]
        w = family_weight(inds, [0, 2])
        assert np.abs(np.diag(w.q) - np.array([1.0, 1.0, 0.0, 1.0])).max() < 1e-12

    def test_partition_validated(self):
        with pytest.raises(ValueError, match="partition"):
            family_weight([np.full(3, 0.5), np.full(3, 0.5)], [0])

    def test_noncommuting_rejected(self):
        q1 = np.array([[0.5, 0.2], [0.2, 0.3]])
        q2 = np.array([[0.4, 0.0], [0.0, 0.8]])
        with pytest.raises(ValueError, match="commute"):
            family_weight([q1, q2], [0])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="weight family is empty"):
            family_weight([], [])


def product_state_and_blocks(seed):
    """State on 6 modes that factorizes over the mode blocks {0,1},{2,3},{4,5}.

    The factors are number conserving: fermionic products across blocks are
    only consistent for parity-even factors.
    """
    space = F.build_space(6, "fermion")
    s2 = F.build_space(2, "fermion")
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(3):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = X @ X.conj().T
        blocked = np.zeros_like(M)
        for N, idx in s2.sectors.items():
            blocked[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
        mats.append(blocked / np.trace(blocked).real)
    U1, sa, sbc = F.split_isomorphism(space, 2)
    U2, sb, sc = F.split_isomorphism(sbc, 2)
    inner = U2.conj().T @ np.kron(mats[1], mats[2]) @ U2.toarray().astype(complex)
    M = U1.conj().T @ np.kron(mats[0], inner) @ U1.toarray().astype(complex)
    return F.FockState(space, M, validate=False), mats


class TestSsaQuantum:
    def test_subadditivity_when_middle_empty(self):
        space = F.build_space(5, "fermion")
        st = random_state(space, 15)
        rng = np.random.default_rng(16)
        raw = rng.random((4, 5)) + 0.1
        raw /= np.sqrt((raw ** 2).sum(axis=0))
        rep = L.ssa_gap(st, list(raw), [0], [], [2])
        assert rep.gap >= -1e-9

    def test_product_state_equality(self):
        st, mats = product_state_and_blocks(17)
        inds = [
            np.array([1.0, 1.0, 0, 0, 0, 0]),
            np.array([0, 0, 1.0, 1.0, 0, 0]),
            np.array([0, 0, 0, 0, 1.0, 1.0]),
        ]
        rep = L.ssa_gap(st, inds, [0], [1], [2])
        assert abs(rep.gap) < 1e-9
        # block entropies match the factors
        ent = rep.extras["entropies"]
        assert ent["123"] == pytest.approx(sum(F.entropy(m) for m in mats), abs=1e-9)

    def test_random_suite(self):
        space = F.build_space(5, "fermion")
        rng = np.random.default_rng(18)
        for trial in range(15):
            st = random_state(space, 100 + trial)
            raw = rng.random((4, 5)) + 0.1
            raw /= np.sqrt((raw ** 2).sum(axis=0))
            rep = L.ssa_gap(st, list(raw), [0], [1], [2])
            assert rep.gap >= -1e-9

    def test_disjointness_enforced(self):
        space = F.build_space(4, "fermion")
        st = random_state(space, 19)
        raw = np.full((2, 4), np.sqrt(0.5))
        with pytest.raises(ValueError, match="disjoint"):
            L.ssa_gap(st, list(raw), [0], [0], [1])


def looped_entropies(state, weights, P1, P2, P3):
    """The entropies of ssa_gap with one localization and one eigvalsh per
    family weight, the loop the stacked call replaced."""
    ws = L._validated_family(weights)
    return {
        name: F.entropy(localize_state(state, L._family_weight(ws, P)))
        for name, P in (("12", P1 + P2), ("23", P2 + P3), ("2", P2), ("123", P1 + P2 + P3))
    }


class TestStackedSsa:
    def families(self):
        rng = np.random.default_rng(33)
        for trial in range(4):
            raw = rng.random((4, 5)) + 0.1
            raw /= np.sqrt((raw ** 2).sum(axis=0))
            yield F.build_space(5, "fermion"), list(raw)
            raw = rng.random((3, 3)) + 0.1
            raw /= np.sqrt((raw ** 2).sum(axis=0))
            yield F.build_space(3, "boson", boson_cap=2), list(raw)
            # a commuting non-diagonal family: one rotation of diagonal weights
            V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            raw = rng.random((3, 4)) + 0.1
            raw /= np.sqrt((raw ** 2).sum(axis=0))
            yield F.build_space(4, "fermion"), [(V * d) @ V.T for d in raw]

    def test_ssa_gap_matches_per_weight_loop(self):
        for k, (space, weights) in enumerate(self.families()):
            st = random_state(space, 300 + k)
            rep = L.ssa_gap(st, weights, [0], [1], [2])
            ref = looped_entropies(st, weights, [0], [1], [2])
            ent = rep.extras["entropies"]
            assert ent.keys() == ref.keys()
            for name, val in ref.items():
                assert abs(ent[name] - val) <= 1e-13 * max(1.0, abs(val))
            gap = ref["12"] + ref["23"] - ref["2"] - ref["123"]
            assert rep.passed == (gap >= -rep.tol)

    def test_non_state_rejected(self):
        raw = np.full((2, 3), np.sqrt(0.5))
        with pytest.raises(ValueError, match="^ssa_gap needs a FockState$"):
            L.ssa_gap(np.eye(8), list(raw), [0], [1], [])


def random_cq(space, seed, m=3, h=0.5, k_max=2, scale0=0.5):
    rng = np.random.default_rng(seed)
    D = space.dim

    def rand_psd(scale):
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        M = X @ X.conj().T
        return scale * M / np.trace(M).real

    blocks = {0: rand_psd(scale0)}
    if k_max >= 1:
        b1 = np.zeros((m, D, D), complex)
        for i in range(m):
            b1[i] = rand_psd(0.1 + 0.3 * rng.random())
        blocks[1] = b1
    if k_max >= 2:
        b2 = np.zeros((m, m, D, D), complex)
        for i in range(m):
            for j in range(i + 1, m):
                blk = rand_psd(0.02 + 0.1 * rng.random())
                b2[i, j] = b2[j, i] = blk
        blocks[2] = b2
    mass = L.CQState(space, h, blocks, validate=False).mass()
    blocks = {K: B / mass for K, B in blocks.items()}
    return L.CQState(space, h, blocks)


class TestCqStates:
    def setup_method(self):
        self.space = F.build_space(2, "fermion")

    def test_k0_reduces_to_quantum_entropy(self):
        st = random_state(self.space, 20)
        rho = L.CQState(self.space, 0.7, {0: st.matrix})
        assert L.cq_entropy(rho) == pytest.approx(F.entropy(st), abs=1e-12)

    def test_theta_one_keeps_classical_part(self):
        rho = random_cq(self.space, 21)
        rng = np.random.default_rng(22)
        w = L.LocalizationWeight(rng.random(2))
        loc = L.cq_localize(rho, w, np.ones(rho.n_cells))
        for i in range(rho.n_cells):
            direct = L.localize_positive_operator(self.space, rho.blocks[1][i], w)
            assert np.abs(loc.blocks[1][i] - direct).max() < 1e-12

    def test_mass_preserved_under_localization(self):
        rho = random_cq(self.space, 23)
        rng = np.random.default_rng(24)
        theta = rng.random(rho.n_cells)
        w = L.LocalizationWeight(rng.random(2))
        loc = L.cq_localize(rho, w, theta)
        assert loc.mass() == pytest.approx(1.0, abs=1e-10)
        assert not loc.truncation_warning

    def test_truncation_flagged(self):
        rho = random_cq(self.space, 23)
        w = L.LocalizationWeight(np.ones(2))
        loc = L.cq_localize(rho, w, 0.5 * np.ones(rho.n_cells), k_max=1)
        assert loc.truncation_warning

    def test_normalization_validated(self):
        st = random_state(self.space, 25)
        with pytest.raises(ValueError, match="mass"):
            L.CQState(self.space, 1.0, {0: 2.0 * st.matrix})

    def test_permutation_symmetry_validated(self):
        D = self.space.dim
        b2 = np.zeros((2, 2, D, D), complex)
        b2[0, 1] = np.eye(D)
        with pytest.raises(ValueError, match="symmetric"):
            L.CQState(
                self.space,
                1.0,
                {0: np.eye(D) / D, 1: np.zeros((2, D, D), complex), 2: b2},
                norm_tol=None,
            )


def looped_cq_entropy(rho):
    """cq_entropy with one eigvalsh per tuple, the loop the stacked call
    replaced."""
    total = F.entropy_of_spectrum(np.linalg.eigvalsh(rho.blocks[0]))
    for K in range(1, rho.K_max + 1):
        weight = rho.cell_volume ** K / np.prod(np.arange(1, K + 1))
        for idx in itertools.product(range(rho.n_cells), repeat=K):
            total += weight * F.entropy_of_spectrum(np.linalg.eigvalsh(rho.blocks[K][idx]))
    return total


def looped_validation_error(blocks):
    """The message of the first failing per-tuple check of CQState._validate
    as it was written before the stacked checks, or None."""
    for K, B in blocks.items():
        m = B.shape[0] if K else 1
        for idx in itertools.product(range(m), repeat=K):
            M = B[idx]
            if np.abs(M - M.conj().T).max() > 1e-10:
                return "cq block is not Hermitian"
            if np.linalg.eigvalsh(M).min() < -1e-10:
                return "cq block is not positive semidefinite"
            for perm in itertools.permutations(idx):
                if np.abs(B[perm] - M).max() > 1e-12:
                    return "cq blocks must be permutation symmetric"
    return None


class TestStackedCq:
    def setup_method(self):
        self.space = F.build_space(2, "fermion")

    def test_entropy_matches_per_tuple_loop(self):
        rng = np.random.default_rng(34)
        for seed in range(6):
            rho = random_cq(self.space, 400 + seed)
            w = L.LocalizationWeight(rng.random(2))
            for r in (rho, L.cq_localize(rho, w, rng.random(rho.n_cells))):
                ref = looped_cq_entropy(r)
                assert abs(L.cq_entropy(r) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_validation_raises_the_first_failing_check(self):
        base = random_cq(self.space, 35).blocks
        D = self.space.dim
        off = np.zeros((D, D), complex)
        off[0, 1] = 1e-6  # breaks Hermiticity only

        def corrupt(*edits):
            blocks = {K: B.copy() for K, B in base.items()}
            for K, idx, delta in edits:
                blocks[K][idx] += delta
            return blocks

        cases = [
            corrupt(),
            corrupt((1, 1, off)),
            corrupt((1, 1, off - np.eye(D))),
            corrupt((1, 2, -np.eye(D))),
            corrupt((2, (0, 1), 1e-9 * np.eye(D))),
            corrupt((1, 0, -np.eye(D)), (1, 2, off)),
            corrupt((1, 2, -np.eye(D)), (1, 0, off)),
            corrupt((2, (0, 1), 1e-9 * np.eye(D)), (2, (2, 0), off)),
            corrupt((2, (2, 0), off), (2, (0, 1), 1e-9 * np.eye(D))),
            corrupt((0, (), -np.eye(D)), (2, (0, 1), off)),
        ]
        messages = [looped_validation_error(blocks) for blocks in cases]
        assert messages[0] is None and all(messages[1:])
        assert len(set(messages)) == 4
        for blocks, message in zip(cases, messages):
            if message is None:
                L.CQState(self.space, 0.5, blocks, norm_tol=None)
                continue
            with pytest.raises(ValueError) as err:
                L.CQState(self.space, 0.5, blocks, norm_tol=None)
            assert str(err.value) == message


class TestCqSsa:
    def test_quantum_limit(self):
        # all classical blocks zero: reduces to the quantum SSA gap
        space = F.build_space(4, "fermion")
        st = random_state(space, 26)
        rho = L.CQState(space, 1.0, {0: st.matrix})
        rng = np.random.default_rng(27)
        qs = rng.random((3, 4)) + 0.2
        qs /= np.sqrt((qs ** 2).sum(axis=0))
        thetas = [np.array([1.0]), np.array([0.0]), np.array([0.0])]
        rep = L.cq_ssa_gap(rho, list(qs), thetas, [0], [1], [2])
        rep_q = L.ssa_gap(st, list(qs), [0], [1], [2])
        assert rep.gap == pytest.approx(rep_q.gap, abs=1e-9)

    def test_classical_oracle(self):
        # purely classical state: blocks proportional to the vacuum projector;
        # compare against directly computed classical entropies
        space = F.build_space(1, "fermion")
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        m, h = 3, 1.0
        rng = np.random.default_rng(28)
        p1 = rng.random(m) * 0.2 + 0.05
        p0 = 1.0 - h * p1.sum()
        blocks = {0: p0 * vac, 1: np.einsum("i,ab->iab", p1, vac)}
        rho = L.CQState(space, h, blocks)
        thetas = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        qs = [np.ones(1), np.zeros(1), np.zeros(1)]
        rep = L.cq_ssa_gap(rho, qs, thetas, [0], [1], [2])

        def classical_entropy(theta):
            kept = p1 * theta ** 2
            w0 = p0 + h * (p1 * (1 - theta ** 2)).sum()
            terms = np.concatenate([[w0], h ** 0 * kept])
            # h-weighted classical entropy with cell volume h = 1
            vals = terms[terms > 1e-14]
            return float(-(vals * np.log(vals)).sum())

        t12 = np.sqrt(thetas[0] ** 2 + thetas[1] ** 2)
        t23 = np.sqrt(thetas[1] ** 2 + thetas[2] ** 2)
        t123 = np.sqrt(sum(t ** 2 for t in thetas))
        expect = (
            classical_entropy(t12)
            + classical_entropy(t23)
            - classical_entropy(thetas[1])
            - classical_entropy(t123)
        )
        assert rep.gap == pytest.approx(expect, abs=1e-9)

    def test_one_pass_matches_per_set_bitwise(self):
        # the four index sets share one localization call and one eigvalsh;
        # each entropy keeps the bits of localizing its set alone
        space = F.build_space(4, "fermion")
        rng = np.random.default_rng(30)
        for trial in range(8):
            rho = random_cq(space, 300 + trial, k_max=trial % 3)
            thetas = rng.random((3, rho.n_cells)) + 0.2
            thetas /= np.sqrt((thetas ** 2).sum(axis=0))
            qs = rng.random((3, 4)) + 0.2
            if trial % 2:
                qs[:, 0] = (1.0, 0.0, 0.0)  # q = 1 in sets 12 and 123 only
            qs /= np.sqrt((qs ** 2).sum(axis=0))
            if trial % 4 == 2:
                # a commuting non-diagonal family: one rotation of diagonal weights
                V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
                qs = [(V * q) @ V.T for q in qs]
            rep = L.cq_ssa_gap(rho, list(qs), list(thetas), [0], [1], [2])
            for name, P in (("12", [0, 1]), ("23", [1, 2]), ("2", [1]), ("123", [0, 1, 2])):
                theta = np.sqrt(np.clip(sum(thetas[i] ** 2 for i in P), 0.0, 1.0))
                local = L.cq_localize(rho, family_weight(list(qs), P), theta)
                assert rep.extras["entropies"][name] == L.cq_entropy(local)

    @pytest.mark.parametrize(
        "n_thetas, sets, match",
        [
            (3, ([0], [1], [3]), "family of 3"),
            (2, ([0], [1], [2]), "one theta per weight"),
            (4, ([0], [1], [2]), "one theta per weight"),
        ],
    )
    def test_index_sets_and_thetas_checked(self, n_thetas, sets, match):
        space = F.build_space(2, "fermion")
        rho = random_cq(space, 36)
        qs = np.full((3, 2), np.sqrt(1 / 3))
        thetas = np.full((n_thetas, rho.n_cells), np.sqrt(1 / n_thetas))
        with pytest.raises(ValueError, match=match):
            L.cq_ssa_gap(rho, list(qs), list(thetas), *sets)

    def test_random_suite(self):
        space = F.build_space(4, "fermion")
        rng = np.random.default_rng(29)
        for trial in range(8):
            rho = random_cq(space, 200 + trial)
            thetas = rng.random((3, rho.n_cells)) + 0.2
            thetas /= np.sqrt((thetas ** 2).sum(axis=0))
            qs = rng.random((3, 4)) + 0.2
            qs /= np.sqrt((qs ** 2).sum(axis=0))
            rep = L.cq_ssa_gap(rho, list(qs), list(thetas), [0], [1], [2])
            assert rep.gap >= -1e-9


def smooth_fixture(space, ell, normalize=True):
    """cq-state sampling a smooth classical density on an ell-cell grid."""
    D = space.dim
    rng = np.random.default_rng(99)
    X = rng.standard_normal((D, D))
    sigma0 = X @ X.T
    sigma0 /= np.trace(sigma0)
    Y = rng.standard_normal((D, D))
    sigma1 = Y @ Y.T
    sigma1 /= np.trace(sigma1)
    xs = (np.arange(ell) + 0.5) / ell
    # half-period profile: midpoint Riemann sums carry a genuine O(h^2) error
    weight = 0.6 * (1.0 + 0.5 * np.sin(np.pi * xs))
    p0 = 1.0 - 0.6 * (1.0 + 0.5 * 2.0 / np.pi)
    h = 1.0 / ell
    blocks = {
        0: p0 * sigma0,
        1: np.einsum("i,ab->iab", weight, sigma1),
    }
    rho = L.CQState(space, h, blocks, validate=False, norm_tol=None)
    if not normalize:
        return rho
    mass = rho.mass()
    blocks = {K: B / mass for K, B in blocks.items()}
    return L.CQState(space, h, blocks)


class TestQuantize:
    def test_k0_exact(self):
        space = F.build_space(2, "fermion")
        st = random_state(space, 31)
        rho = L.CQState(space, 0.3, {0: st.matrix})
        qr = L.quantize_cq(rho)
        assert qr.t == pytest.approx(1.0, abs=1e-12)
        assert qr.corrected_entropy == pytest.approx(F.entropy(st), abs=1e-10)

    def test_matches_cq_entropy_on_grid(self):
        space = F.build_space(2, "fermion")
        rho = random_cq(space, 32)
        qr = L.quantize_cq(rho)
        assert qr.corrected_entropy == pytest.approx(L.cq_entropy(rho), abs=1e-9)

    def test_smooth_fixture_convergence(self):
        space = F.build_space(2, "fermion")
        reference = L.cq_entropy(smooth_fixture(space, 256))
        errors = []
        for ell in (2, 4, 8):
            rho = smooth_fixture(space, ell)
            qr = L.quantize_cq(rho)
            errors.append(abs(qr.corrected_entropy - reference))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 1e-3

    def test_mass_tends_to_one(self):
        space = F.build_space(2, "fermion")
        ts = []
        for ell in (2, 4, 8, 16):
            rho = smooth_fixture(space, ell, normalize=False)
            ts.append(L.quantize_cq(rho).t)
        devs = [abs(t - 1.0) for t in ts]
        assert devs[-1] < devs[0]
        assert devs[-1] < 2e-3

    def test_dimension_guard(self):
        space = F.build_space(2, "fermion")
        rho = smooth_fixture(space, 8)
        with pytest.raises(ValueError, match="cap"):
            L.quantize_cq(rho, dim_cap=8)
