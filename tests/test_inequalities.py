import tracemalloc

import numpy as np
import pytest

from coulomblab import coulomb as C
from coulomblab import geometry as G
from coulomblab import inequalities as I


def cube(side, a=1.0):
    return G.build_domain({"shape": "cube", "side": side * a}, a)


class TestReport:
    def test_pass_rule(self):
        assert I.Report("x", lhs=1.0, rhs=1.0).passed
        assert not I.Report("x", lhs=0.0, rhs=1e-10).passed
        assert I.Report("x", lhs=0.0, rhs=2e-3, mc_error=1e-3).passed

    def test_exact_pass_has_tiny_gap(self):
        reps = I.lieb_yau_suite(150, seed=2)
        for r in reps:
            if r.passed and np.isfinite(r.gap):
                assert r.gap >= -1e-12


class TestLiebYau:
    def test_single_pair_algebra(self):
        z, d = 1.5, 2.0
        r = I.lieb_yau_gap([[0, 0, 0]], [[0, 0, d]], z)
        assert r.lhs == pytest.approx(-z / d)
        assert r.rhs == pytest.approx(-(z + np.sqrt(2 * z) + 0.5) / d)
        assert r.gap == pytest.approx((np.sqrt(2 * z) + 0.5) / d)

    def test_random_suite(self):
        reps = I.lieb_yau_suite(300, seed=42)
        assert all(r.gap >= -1e-12 for r in reps)

    def test_baxter_variant(self):
        reps = I.lieb_yau_suite(300, seed=42, baxter=True)
        assert all(r.gap >= -1e-12 for r in reps)

    def test_coincident_point_passes_infinite(self):
        r = I.lieb_yau_gap([[0, 0, 1.0]], [[0, 0, 1.0]], 1.0)
        assert r.lhs == np.inf and r.passed

    def test_single_nucleus_drops_nuclear_term(self):
        r = I.lieb_yau_gap([[1, 0, 0], [0, 1, 0]], [[0, 0, 0]], 2.0)
        assert np.isfinite(r.rhs)

    def test_charge_config_input(self):
        cfg = I.ChargeConfig.electron_nucleus([[0, 0, 0]], [[0, 0, 2.0]])
        r = I.lieb_yau_gap(cfg.electrons, cfg.nuclei, 1.5)
        assert r.gap == pytest.approx((np.sqrt(3.0) + 0.5) / 2.0)


def per_nucleus_gap(electrons, nuclei, z, baxter=False):
    """The Lieb-Yau gap as computed before one distance table per
    configuration, kept as its oracle: three tables and a nearest-nucleus
    search per nucleus."""
    electrons = np.asarray(electrons, dtype=float).reshape(-1, 3)
    nuclei = np.asarray(nuclei, dtype=float).reshape(-1, 3)
    N, K = len(electrons), len(nuclei)
    d_en = I._pairwise_dist(electrons, nuclei)
    if d_en.min() < 1e-14:
        return np.inf, 0.0
    lhs = 0.0
    if N > 1:
        lhs += float((1.0 / I._pairwise_dist(electrons)[np.triu_indices(N, 1)]).sum())
    lhs -= float((z / d_en).sum())
    if K > 1:
        lhs += float((z * z / I._pairwise_dist(nuclei)[np.triu_indices(K, 1)]).sum())
    delta_e = d_en.min(axis=1)
    if baxter:
        return lhs, -float(((1.0 + 2.0 * z) / delta_e).sum())
    rhs = -float(((z + np.sqrt(2.0 * z) + 0.5) / delta_e).sum())
    delta_n = []
    for R in nuclei:
        d = np.linalg.norm(nuclei - R, axis=1)
        d = d[d > 1e-14]
        delta_n.append(float(d.min()) if d.size else np.inf)
    rhs += (z * z / 4.0) * sum(1.0 / d for d in delta_n if np.isfinite(d))
    return lhs, rhs


class TestLiebYauOracle:
    def test_matches_per_nucleus_code_bitwise(self):
        rng = np.random.default_rng(31)
        cases = 0
        for trial in range(300):
            N, K = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            if trial < 40:
                N, K = (1, K) if trial % 2 else (N, 1)
            z = float(rng.uniform(0.05, 3.0))
            electrons = rng.uniform(-2, 2, size=(N, 3))
            nuclei = rng.uniform(-2, 2, size=(K, 3))
            if trial % 7 == 3 and K > 1:
                nuclei[-1] = nuclei[0]  # coincident nuclei
            if trial % 11 == 5:
                electrons[0] = nuclei[-1]  # coincident electron-nucleus pair
            for baxter in (False, True):
                with np.errstate(divide="ignore"):  # coincident nuclei: lhs = inf
                    rep = I.lieb_yau_gap(electrons, nuclei, z, baxter=baxter)
                    lhs, rhs = per_nucleus_gap(electrons, nuclei, z, baxter=baxter)
                assert (rep.lhs, rep.rhs) == (lhs, rhs)
                assert type(rep.lhs) is float and type(rep.rhs) is float
                cases += 1
        assert cases >= 500

    def test_suite_matches_per_config_bitwise(self):
        # the suite evaluates (N, K) groups; replay its draws one by one
        for baxter in (False, True):
            reps = I.lieb_yau_suite(300, seed=13, baxter=baxter)
            rng = np.random.default_rng(13)
            shapes = set()
            for rep in reps:
                N, K = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                z = float(rng.uniform(0.05, 3.0))
                electrons = rng.uniform(-2, 2, size=(N, 3))
                nuclei = rng.uniform(-2, 2, size=(K, 3))
                ref = I.lieb_yau_gap(electrons, nuclei, z, baxter=baxter)
                assert (rep.name, rep.lhs, rep.rhs) == (ref.name, ref.lhs, ref.rhs)
                assert (rep.lhs, rep.rhs) == per_nucleus_gap(electrons, nuclei, z, baxter)
                assert type(rep.lhs) is float and type(rep.rhs) is float
                shapes.add((N, K))
            assert len(shapes) > 50
            assert {1, 8} <= {K for _, K in shapes} and 1 in {N for N, _ in shapes}


class TestGrafSchenker:
    def test_single_charge_zero_deficit(self):
        cfg = I.ChargeConfig([[0.3, 0.1, -0.2]], [2.0])
        reps = I.graf_schenker_deficit(cfg, [4.0], samples=200, seed=1)
        assert reps[0].extras["deficit"] == 0.0
        assert reps[0].passed

    def test_two_unit_charges_bounded(self):
        cfg = I.ChargeConfig([[0, 0, 0], [1.0, 0, 0]], [1.0, 1.0])
        reps = I.graf_schenker_deficit(cfg, [4.0, 8.0, 16.0], samples=10000, seed=3)
        assert all(r.passed for r in reps)

    def test_scaling_covariance(self):
        cfg = I.ChargeConfig([[0, 0, 0], [0.8, 0.3, 0], [0, -0.5, 0.7]], [1.0, 2.0, 1.5])
        base = I.graf_schenker_deficit(cfg, [4.0], samples=4000, seed=9)[0]
        s = 2.0
        scaled_cfg = I.ChargeConfig(s * cfg.points, cfg.charges)
        scaled = I.graf_schenker_deficit(scaled_cfg, [4.0 * s], samples=4000, seed=9)[0]
        # dilation x -> s x, ell -> s ell rescales the deficit by 1/s exactly
        # for matched samples (the tile memberships coincide)
        assert scaled.extras["deficit"] == pytest.approx(
            base.extras["deficit"] / s, abs=1e-12
        )

    def test_mc_error_shrinks_with_samples(self):
        cfg = I.ChargeConfig(
            np.random.default_rng(4).uniform(-1, 1, (5, 3)), [1.0, 2.0, 0.5, 1.5, 1.0]
        )
        sig1 = I.graf_schenker_deficit(cfg, [6.0], samples=4000, seed=5)[0].extras[
            "deficit_sigma"
        ]
        sig2 = I.graf_schenker_deficit(cfg, [6.0], samples=8000, seed=6)[0].extras[
            "deficit_sigma"
        ]
        assert sig1 / sig2 == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_determinism(self):
        cfg = I.ChargeConfig([[0, 0, 0], [1, 1, 0]], [1.0, -1.0])
        a = I.graf_schenker_deficit(cfg, [4.0], samples=500, seed=7)[0]
        b = I.graf_schenker_deficit(cfg, [4.0], samples=500, seed=7)[0]
        assert a.extras["deficit"] == b.extras["deficit"]

    def test_translation_cell_suffices(self):
        # the tile-summed integrand is periodic under the tiling translations,
        # so sampling one scaled cell and a doubled cell must agree
        from coulomblab.geometry import unit_cube_tiling
        from coulomblab.inequalities import _same_tile_samples, _sample_motions

        tiling = unit_cube_tiling()
        pts = np.array([[0.2, -0.4, 0.1], [1.4, 0.7, -0.3], [-0.8, 0.5, 0.9]])
        ell = 5.0
        rng = np.random.default_rng(17)
        R, u = _sample_motions(rng, 40000, ell)
        keys = _same_tile_samples(tiling, pts, ell, R, u)
        same_small = (keys[:, 0] == keys[:, 1]).mean()
        rng2 = np.random.default_rng(18)
        R2, u2 = _sample_motions(rng2, 40000, 2 * ell)
        keys2 = _same_tile_samples(tiling, pts, ell, R2, u2)
        same_big = (keys2[:, 0] == keys2[:, 1]).mean()
        assert same_small == pytest.approx(same_big, abs=0.01)


class KeepColumns:
    """Stands in for the tiling: records the moved (P, 3) points."""

    def locate(self, points, scale=None, g=None):
        self.points = points
        return np.zeros(len(points), dtype=np.int64)


class TestSameTileMotion:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_motion_matches_einsum_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        for ell in (4.0, 8.0, 16.0):
            R, u = G._sample_motions(rng, 2000, ell)
            Y = np.einsum("snk,ski->sni", pts[None, :, :] - u[:, None, :], R)
            rec = KeepColumns()
            I._same_tile_samples(rec, pts, ell, R, u)
            assert np.array_equal(rec.points, Y.reshape(-1, 3))
            tiling = G.unit_cube_tiling()
            keys = I._same_tile_samples(tiling, pts, ell, R, u)
            ref = tiling.locate(Y.reshape(-1, 3), scale=ell).reshape(len(R), n)
            assert np.array_equal(keys, ref)


def dict_smooth_gs(cfg, ell_list, r_j, samples, seed, n_quad=8):
    """Ratios, sigmas and max pair weights of smooth_gs_check as computed
    with one tile-weight dict per point and sample, kept as the oracle of the
    sorted-key pass."""
    tiling = G.unit_cube_tiling()
    pts, charges = cfg.points, cfg.charges
    n = len(charges)
    zsq = cfg.sum_sq_charge()
    full = I.pair_coulomb(pts, charges)
    iu = np.triu_indices(n, 1)
    prods = np.outer(charges, charges)[iu] / I._pairwise_dist(pts)[iu]
    nodes, wts = G._mollifier_nodes(r_j, n_quad)
    out = []
    for j, ell in enumerate(ell_list):
        R, u = G._sample_motions(np.random.default_rng([seed, 13, j]), samples, ell)
        offs = (pts[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
        vals = np.empty(samples)
        max_weight = 0.0
        for s in range(samples):
            keys = tiling.locate((offs - u[s]) @ R[s], scale=ell).reshape(n, -1)
            tabs = []
            for p in range(n):
                tab = {}
                for k, wt in zip(keys[p].tolist(), wts):
                    tab[k] = tab.get(k, 0.0) + wt
                tabs.append(tab)
            tot = 0.0
            for (a, b), pr in zip(zip(*iu), prods):
                wgt = sum(v * tabs[b].get(k, 0.0) for k, v in tabs[a].items())
                max_weight = max(max_weight, wgt)
                tot += pr * wgt
            vals[s] = tot
        D_s = vals - full
        sig = D_s.std(ddof=1) / np.sqrt(samples)
        out.append((ell * D_s.mean() / zsq, ell * sig / zsq, max_weight))
    return np.array(out)


class TestSmoothGrafSchenker:
    @pytest.mark.parametrize("n", [2, 5])
    def test_matches_dict_tables(self, n):
        rng = np.random.default_rng(40 + n)
        cfg = I.ChargeConfig(rng.uniform(-0.8, 0.8, (n, 3)), rng.uniform(0.3, 2.0, n))
        reps = I.smooth_gs_check(cfg, [4.0, 8.0], r_j=0.3, samples=60, seed=n)
        ref = dict_smooth_gs(cfg, [4.0, 8.0], r_j=0.3, samples=60, seed=n)
        got = np.array([(r.rhs, r.mc_error, r.extras["max_pair_weight"]) for r in reps])
        # the envelope is fitted at the first scale, whose sigma enters every row
        want = np.column_stack([ref[:, 0], np.hypot(ref[:, 1], ref[0, 1]), ref[:, 2]])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert all(r.lhs == reps[0].rhs for r in reps)

    def test_weights_bounded_and_envelope(self):
        rng = np.random.default_rng(11)
        cfg = I.ChargeConfig(rng.uniform(-0.8, 0.8, (4, 3)), rng.uniform(0.3, 2.0, 4))
        reps = I.smooth_gs_check(cfg, [4.0, 8.0], r_j=0.3, samples=400, seed=2)
        for r in reps:
            # smoothed same-tile pair weight never exceeds one (theta^2 <= 1
            # and the tile weights are a partition of unity)
            assert r.extras["max_pair_weight"] <= 1.0 + 1e-9
            assert r.passed

    def test_w_kernel_quadrature(self):
        radii = np.linspace(0.05, 10.0, 20)
        assert I.w_kernel_quadrature_error(radii) < 1e-8


class TestYukawa:
    def test_zero_screening_equality(self):
        rng = np.random.default_rng(1)
        cfg = I.ChargeConfig(rng.uniform(-1, 1, (5, 3)), rng.uniform(-2, 2, 5))
        r = I.coulomb_yukawa_bound(cfg, 0.0)
        assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_random_configs(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            N = int(rng.integers(1, 9))
            cfg = I.ChargeConfig(rng.uniform(-2, 2, (N, 3)), rng.uniform(-3, 3, N))
            for nu in (0.5, 1.0, 2.0):
                assert I.coulomb_yukawa_bound(cfg, nu).gap >= -1e-12

    def test_single_charge(self):
        cfg = I.ChargeConfig([[0.0, 0.0, 0.0]], [3.0])
        r = I.coulomb_yukawa_bound(cfg, 2.0)
        assert r.lhs == 0.0
        assert r.rhs == pytest.approx(-0.5 * 2.0 * 9.0)


class TestLiebThirring:
    def test_nonnegative_potential_zero_ratio(self):
        dom = cube(3)
        V = np.abs(np.sin(np.arange(dom.n_sites)))
        rep = I.lieb_thirring_ratio(dom, [V])[0]
        assert rep.rhs == 0.0 and rep.passed

    def test_well_family_bounded(self):
        dom = cube(4)
        wells = [np.where(np.arange(64) == 30, -lam, 0.0) for lam in (5.0, 10.0, 20.0)]
        reps = I.lieb_thirring_ratio(dom, wells)
        assert all(r.passed for r in reps)
        assert all(np.isfinite(r.rhs) for r in reps)

    def test_slater_ratio_stable(self):
        dom = cube(4)
        out = I.lt_state_ratio(dom, [1, 2, 4, 8])
        ratios = [v for _, v in out]
        assert max(ratios) <= 2.0 * min(ratios)


class TestLiYau:
    def test_interval_exact(self):
        r = I.li_yau_gap(np.pi, lambda t: np.exp(-t))
        k = np.arange(1, 10)
        assert r.rhs == pytest.approx(np.exp(-(k ** 2)).sum(), abs=1e-10)
        assert r.lhs == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-10)
        assert r.gap > 0

    def test_zero_function(self):
        r = I.li_yau_gap(2.0, lambda t: 0.0 * np.asarray(t))
        assert r.gap == pytest.approx(0.0, abs=1e-12)

    def test_box_3d(self):
        lengths = (1.0, 1.3, 0.8)
        f = lambda t: np.exp(-t / 4)
        r = I.li_yau_gap(lengths, f)
        # oracle: triple index sum plus analytic integral
        ks = [np.arange(1, 40) * np.pi / L for L in lengths]
        lam = (
            ks[0][:, None, None] ** 2 + ks[1][None, :, None] ** 2 + ks[2][None, None, :] ** 2
        ).ravel()
        lhs = np.exp(-lam / 4).sum()
        V = np.prod(lengths)
        rhs = V / (2 * np.pi ** 2) * 2.0 * np.sqrt(np.pi)  # int p^2 e^(-p^2/4) dp
        assert r.rhs == pytest.approx(lhs, abs=1e-10)
        assert r.lhs == pytest.approx(rhs, abs=1e-10)
        assert r.gap > 0

    def test_divergent_integral_rejected(self):
        with pytest.raises(ValueError):
            I.li_yau_gap(1.0, lambda t: 1.0 / (1.0 + np.asarray(t)))


class TestRepelling:
    def test_single_particle_is_kinetic_minimum(self):
        dom = cube(3)
        lam0 = np.linalg.eigvalsh(C.kinetic_operator(dom))[0]
        rep = I.repelling_bound_check(dom, [1], eps=0.7)[0]
        assert rep.lhs == pytest.approx(lam0, abs=1e-10)

    def test_eps_zero_reduces_to_kinetic(self):
        dom = cube(3)
        lam0 = np.linalg.eigvalsh(C.kinetic_operator(dom))[0]
        rep = I.repelling_bound_check(dom, [2], eps=0.0)[0]
        assert rep.lhs == pytest.approx(2 * lam0, abs=1e-9)

    def test_small_grid_positive_constant(self):
        dom = cube(4)
        reps = I.repelling_bound_check(dom, [2, 3], eps=0.5)
        assert all(r.extras["c_obs"] > 0 for r in reps)
        assert all(r.lhs > 0 for r in reps)


class TestDipole:
    def test_collinear_equality(self):
        R = np.array([0.0, 0.0, 0.0])
        D = np.array([0.5, 0.0, 0.0])
        xs = np.array([[3.0, 0.0, 0.0], [7.0, 0.0, 0.0]])
        rep = I.dipole_bound_check(R, D, xs)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_small_displacement_continuity(self):
        R = np.zeros(3)
        D = np.array([1e-8, 0.0, 0.0])
        xs = np.random.default_rng(3).uniform(-2, 2, (500, 3))
        rep = I.dipole_bound_check(R, D, xs)
        assert rep.rhs <= 1.0 + 1e-9

    def test_random_triples(self):
        rng = np.random.default_rng(12)
        xs = rng.uniform(-3, 3, (10000, 3))
        rep = I.dipole_bound_check([0.1, -0.2, 0.0], [0.4, 0.1, -0.3], xs)
        assert rep.rhs <= 1.0 + 1e-9
        assert rep.passed


class TestIms:
    def test_single_tile_zero_defect(self):
        dom = cube(3)
        T = C.kinetic_operator(dom)
        theta = np.ones((1, dom.n_sites))
        defect, K = I.ims_defect(T, theta)
        assert np.abs(defect).max() == 0.0

    def test_two_tile_chain_hadamard_oracle(self):
        # smooth 1D two-tile split: compare the Hadamard formula against the
        # direct matrix-product evaluation
        n = 10
        dom = G.build_domain(
            {"shape": "custom", "sites": [[0, 0, k] for k in range(n)]}, 1.0
        )
        T = C.kinetic_operator(dom)
        x = np.arange(n)
        t1 = np.clip((x - 2) / 5.0, 0.0, 1.0)
        theta = np.vstack([np.cos(t1 * np.pi / 2), np.sin(t1 * np.pi / 2)])
        defect, K = I.ims_defect(T, theta)
        direct = sum(np.diag(row) @ T @ np.diag(row) for row in theta) - T
        assert np.abs(defect - direct).max() < 1e-12

    def test_partition_failure_raises(self):
        dom = cube(2)
        T = C.kinetic_operator(dom)
        with pytest.raises(ValueError, match="partition"):
            I.ims_defect(T, 0.5 * np.ones((1, dom.n_sites)))

    def test_residual_scales(self):
        dom = cube(5)
        reps = I.ims_residual(dom, [4.0, 8.0, 16.0])
        vals = [r.extras["ell_residual"] for r in reps]
        assert max(vals) <= 2.0 * min(vals)
        assert all(r.passed for r in reps)

    def test_side6_peak_memory(self):
        """On the side-6 cube a fifth of the mollifier offsets at ell = 4 sit
        within _TIE_GAP of a chamber tie.  Located all at once, their margin
        matrices took the traced peak to about 40 MiB; in chunks of
        _TIE_CHUNK rows it stays near 11 MiB."""
        dom = cube(6)
        tracemalloc.start()
        try:
            I.ims_residual(dom, [4.0, 8.0, 16.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    @pytest.mark.parametrize("field", [None, C.MagneticField.constant([0.0, 0.3, 0.8])])
    def test_residual_is_spectral_norm(self, monkeypatch, field):
        # the defect is Hermitian, so its largest |eigenvalue| is the SVD 2-norm
        defects = []
        real = I.ims_defect

        def spy(T, theta):
            defect, K = real(T, theta)
            defects.append(defect)
            return defect, K

        monkeypatch.setattr(I, "ims_defect", spy)
        reps = I.ims_residual(cube(4), [4.0, 8.0], field=field)
        assert len(defects) == len(reps) == 2
        for rep, defect in zip(reps, defects):
            assert np.abs(defect - defect.conj().T).max() == 0.0
            ref = np.linalg.norm(defect, 2)
            assert abs(rep.extras["residual"] - ref) <= 1e-12 * ref


class TestTraceInequalities:
    def test_peierls_random_bases(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((30, 30))
        H = H + H.T
        for trial in range(20):
            Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
            rep = I.peierls_gap(H, 0.9, Q)
            assert rep.lhs >= -1e-10

    def test_peierls_eigenbasis_equality(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((20, 20))
        H = H + H.T
        _, V = np.linalg.eigh(H)
        rep = I.peierls_gap(H, 1.1, V)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_diamagnetic_random_fields(self):
        dom = cube(4)
        for seed in range(20):
            fld = C.MagneticField.random_bounded(seed, scale=1.5)
            rep = I.diamagnetic_gap(dom, fld)
            assert rep.gap >= -1e-10
