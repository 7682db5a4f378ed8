"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.sparse as sps

from coulomblab import coulomb as C
from coulomblab import fock as F
from coulomblab import geometry as G
from coulomblab import inequalities as I
from coulomblab import localization as L
from coulomblab.cli import cli_main
from coulomblab.scan import ScanSpec, run_scan


def _localize_state(state, q):
    """The q-localized state tr_2(U G U*) of a FockState."""
    M = L.localize_positive_operator(state.space, state.matrix, q)
    return F.FockState(state.space, M, validate=False)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")
    return ok


def test_criterion_1_lieb_yau_suite():
    t0 = time.perf_counter()
    reps = I.lieb_yau_suite(1000, seed=7, n_max=8, k_max=8, z_max=3.0)
    elapsed = time.perf_counter() - t0
    finite = [r.gap for r in reps if np.isfinite(r.gap)]
    ok = all(r.gap >= -1e-12 for r in reps) and elapsed < 10.0
    assert _line(
        1, ok, f"1000 configs, min gap {min(finite):.3e}, {elapsed:.2f}s (< 10 s)"
    )


def test_criterion_2_graf_schenker_suite():
    t0 = time.perf_counter()
    suite = I.graf_schenker_suite(20, ell_list=(4.0, 8.0, 16.0), samples=10000, seed=2024)
    elapsed = time.perf_counter() - t0
    margins = [r.gap + 3.0 * r.mc_error for _cfg, reps in suite for r in reps]
    ok = all(m >= 0.0 for m in margins) and elapsed < 120.0
    assert _line(
        2,
        ok,
        f"20 configs x 3 scales, min 3-sigma margin {min(margins):.3e}, "
        f"{elapsed:.1f}s (< 120 s)",
    )


def _random_partition(rng, n, parts=3):
    raw = rng.random((parts, n)) + 0.1
    return list(raw / np.sqrt((raw ** 2).sum(axis=0)))


def _product_state(space, seed):
    s2 = F.build_space(2, "fermion")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = X @ X.conj().T
        blocked = np.zeros_like(M)
        for _N, idx in s2.sectors.items():
            blocked[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
        mats.append(blocked / np.trace(blocked).real)
    U1, _sa, sbc = F.split_isomorphism(space, 2)
    U2, _sb, _sc = F.split_isomorphism(sbc, 2)
    inner = U2.conj().T @ np.kron(mats[1], mats[2]) @ U2.toarray().astype(complex)
    M = U1.conj().T @ np.kron(mats[0], inner) @ U1.toarray().astype(complex)
    return F.FockState(space, M, validate=False)


def test_criterion_3_quantum_ssa():
    space = F.build_space(6, "fermion")
    rng = np.random.default_rng(31)
    worst = np.inf
    for trial in range(100):
        X = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        M = X @ X.conj().T
        st = F.FockState(space, M / np.trace(M).real, validate=False)
        rep = L.ssa_gap(st, _random_partition(rng, 6), [0], [1], [2])
        worst = min(worst, rep.gap)
    blocks = [
        np.array([1.0, 1.0, 0, 0, 0, 0]),
        np.array([0, 0, 1.0, 1.0, 0, 0]),
        np.array([0, 0, 0, 0, 1.0, 1.0]),
    ]
    worst_eq = 0.0
    for seed in range(10):
        st = _product_state(space, 100 + seed)
        rep = L.ssa_gap(st, blocks, [0], [1], [2])
        worst_eq = max(worst_eq, abs(rep.gap))
    ok = worst >= -1e-9 and worst_eq <= 1e-9
    assert _line(
        3,
        ok,
        f"100 random gaps >= {worst:.3e}; product-state |gap| <= {worst_eq:.3e}",
    )


def _random_cq(space, seed, m=3, h=0.5):
    rng = np.random.default_rng(seed)
    D = space.dim

    def rand_psd(scale):
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        M = X @ X.conj().T
        return scale * M / np.trace(M).real

    b0 = rand_psd(0.5)
    b1 = np.zeros((m, D, D), complex)
    for i in range(m):
        b1[i] = rand_psd(0.1 + 0.3 * rng.random())
    b2 = np.zeros((m, m, D, D), complex)
    for i in range(m):
        for j in range(i + 1, m):
            blk = rand_psd(0.02 + 0.1 * rng.random())
            b2[i, j] = b2[j, i] = blk
    blocks = {0: b0, 1: b1, 2: b2}
    mass = L.CQState(space, h, blocks, validate=False, norm_tol=None).mass()
    return L.CQState(space, h, {K: B / mass for K, B in blocks.items()})


def _smooth_cq(space, ell):
    D = space.dim
    rng = np.random.default_rng(99)
    X = rng.standard_normal((D, D))
    sigma0 = X @ X.T
    sigma0 /= np.trace(sigma0)
    Y = rng.standard_normal((D, D))
    sigma1 = Y @ Y.T
    sigma1 /= np.trace(sigma1)
    xs = (np.arange(ell) + 0.5) / ell
    weight = 0.6 * (1.0 + 0.5 * np.sin(np.pi * xs))
    p0 = 1.0 - 0.6 * (1.0 + 0.5 * 2.0 / np.pi)
    blocks = {0: p0 * sigma0, 1: np.einsum("i,ab->iab", weight, sigma1)}
    rho = L.CQState(space, 1.0 / ell, blocks, validate=False, norm_tol=None)
    mass = rho.mass()
    return L.CQState(space, 1.0 / ell, {K: B / mass for K, B in blocks.items()})


def test_criterion_4_classical_quantum_ssa():
    space = F.build_space(4, "fermion")
    rng = np.random.default_rng(41)
    worst = np.inf
    for trial in range(50):
        rho = _random_cq(space, 400 + trial)
        thetas = rng.random((3, rho.n_cells)) + 0.2
        thetas /= np.sqrt((thetas ** 2).sum(axis=0))
        qs = rng.random((3, 4)) + 0.2
        qs /= np.sqrt((qs ** 2).sum(axis=0))
        rep = L.cq_ssa_gap(rho, list(qs), list(thetas), [0], [1], [2])
        worst = min(worst, rep.gap)
    qspace = F.build_space(2, "fermion")
    fine = L.cq_entropy(_smooth_cq(qspace, 256))
    rho8 = _smooth_cq(qspace, 8)
    qr = L.quantize_cq(rho8)
    err_grid = abs(qr.corrected_entropy - L.cq_entropy(rho8))
    err_ref = abs(qr.corrected_entropy - fine)
    ok = worst >= -1e-9 and err_ref < 1e-3 and err_grid < 1e-3
    assert _line(
        4,
        ok,
        f"50 cq gaps >= {worst:.3e}; oracle error {err_ref:.2e} (grid {err_grid:.2e})",
    )


def test_criterion_5_localization_algebra():
    rng = np.random.default_rng(51)
    worst = {
        "isometry": 0.0,
        "intertwine": 0.0,
        "gamma": 0.0,
        "restriction": 0.0,
        "wick": 0.0,
    }
    for trial in range(50):
        n = int(rng.integers(4, 6))
        space = F.build_space(n, "fermion")
        D = space.dim
        w = L.LocalizationWeight(rng.random(n))
        U = L.localization_isometry(space, w)
        worst["isometry"] = max(
            worst["isometry"],
            np.abs((U.conj().T @ U).toarray() - np.eye(D)).max(),
        )
        # the four intertwining relations on a random one-body vector
        f = rng.standard_normal(n)
        sign = sps.diags(np.where(space.totals % 2 == 0, 1.0, -1.0))
        eye = sps.identity(D, format="csr")
        adag = lambda g: sum(g[j] * F.ladder(space, j, "create") for j in range(n))
        cdag = lambda g: sps.kron(adag(g), eye)
        ddag = lambda g: sps.kron(sign, adag(g))
        qf, rf = w.q @ f, w.r @ f
        rels = [
            (U @ adag(f) - (cdag(qf) + ddag(rf)) @ U),
            (U @ adag(f).T - (cdag(qf) + ddag(rf)).conj().T @ U),
            (U @ adag(qf).T - cdag(f).conj().T @ U),
            (adag(qf) @ U.conj().T - U.conj().T @ cdag(f)),
        ]
        worst["intertwine"] = max(
            worst["intertwine"], max(np.abs(R.toarray()).max() for R in rels)
        )
        # gamma conjugation on a random mixed state
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        M = X @ X.conj().T
        st = F.FockState(space, M / np.trace(M).real, validate=False)
        loc = _localize_state(st, w)
        g0 = F.reduced_density(st, 1).matrix
        g1 = F.reduced_density(loc, 1).matrix
        worst["gamma"] = max(worst["gamma"], np.abs(g1 - w.q @ g0 @ w.q).max())
        # restriction consistency for a projector weight
        k = int(rng.integers(1, n))
        proj = L.LocalizationWeight(np.array([1.0] * k + [0.0] * (n - k)))
        locp = _localize_state(st, proj)
        Usp, s1, s2 = F.split_isomorphism(space, k)
        big = Usp @ st.matrix @ Usp.conj().T.toarray()
        # trace out the second tensor factor
        red = np.einsum("abcb->ac", big.reshape(s1.dim, s2.dim, s1.dim, s2.dim))
        emb = np.zeros((D, s1.dim))
        for i1, occ in enumerate(s1.occupations.tolist()):
            emb[space.index(tuple(occ) + (0,) * (n - k)), i1] = 1.0
        worst["restriction"] = max(
            worst["restriction"], np.abs(locp.matrix - emb @ red @ emb.T).max()
        )
        # quasi-free preservation: Wick factorization of the localized 2-pdm
        lam = rng.random(n) * 0.8 + 0.1
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        qf_state = F.quasi_free_state(space, (V * lam) @ V.T)
        locq = _localize_state(qf_state, w)
        gq1 = F.reduced_density(locq, 1).matrix
        gq2 = F.reduced_density(locq, 2).matrix
        pairs = list(itertools.combinations(range(n), 2))
        wick_err = max(
            abs(gq2[r, c] - (gq1[i, p] * gq1[j, q] - gq1[j, p] * gq1[i, q]))
            for r, (p, q) in enumerate(pairs)
            for c, (i, j) in enumerate(pairs)
        )
        worst["wick"] = max(worst["wick"], wick_err)
    ok = (
        worst["isometry"] <= 1e-12
        and worst["intertwine"] <= 1e-12
        and worst["gamma"] <= 1e-10
        and worst["restriction"] <= 1e-12
        and worst["wick"] <= 1e-9
    )
    assert _line(
        5,
        ok,
        "50 instances, worst errors: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_6_li_yau():
    rep1 = I.li_yau_gap(np.pi, lambda t: np.exp(-t))
    k = np.arange(1, 10)
    oracle_lhs = float(np.exp(-(k ** 2)).sum())
    oracle_rhs = float(np.sqrt(np.pi) / 2)
    ok1 = (
        rep1.gap > 0
        and abs(rep1.rhs - oracle_lhs) < 1e-10
        and abs(rep1.lhs - oracle_rhs) < 1e-10
    )
    lengths = (1.0, 1.3, 0.8)
    rep3 = I.li_yau_gap(lengths, lambda t: np.exp(-t / 4))
    ks = [np.arange(1, 60) * np.pi / Lv for Lv in lengths]
    lam = (
        ks[0][:, None, None] ** 2
        + ks[1][None, :, None] ** 2
        + ks[2][None, None, :] ** 2
    ).ravel()
    oracle3_lhs = float(np.exp(-lam / 4).sum())
    oracle3_rhs = float(np.prod(lengths) / (2 * np.pi ** 2) * 2.0 * np.sqrt(np.pi))
    ok3 = (
        rep3.gap > 0
        and abs(rep3.rhs - oracle3_lhs) < 1e-10
        and abs(rep3.lhs - oracle3_rhs) < 1e-10
    )
    assert _line(
        6, ok1 and ok3, f"1D gap {rep1.gap:.6f} > 0, 3D gap {rep3.gap:.6f} > 0"
    )


def test_criterion_7_diamagnetic_and_peierls():
    dom = G.build_domain({"shape": "cube", "side": 4.0}, 1.0)
    worst_dia = np.inf
    for seed in range(20):
        fld = C.MagneticField.random_bounded(seed, scale=1.5)
        rep = I.diamagnetic_gap(dom, fld)
        worst_dia = min(worst_dia, rep.gap)
    rng = np.random.default_rng(71)
    T = C.kinetic_operator(dom)
    worst_pei = np.inf
    for _ in range(20):
        Q = np.linalg.qr(rng.standard_normal((dom.n_sites, dom.n_sites)))[0]
        rep = I.peierls_gap(T, 0.8, Q)
        worst_pei = min(worst_pei, rep.lhs)
    ok = worst_dia >= -1e-10 and worst_pei >= -1e-10
    assert _line(
        7,
        ok,
        f"20 fields: min diamagnetic gap {worst_dia:.3e}; "
        f"20 bases: min Peierls relative gap {worst_pei:.3e}",
    )


def test_criterion_8_daubechies_lieb():
    dom = G.build_domain({"shape": "cube", "side": 2.0}, 1.0)
    rng = np.random.default_rng(81)
    worst_defect = -np.inf
    all_corner = True
    for trial in range(10):
        K = int(rng.integers(1, 3))
        pos = []
        while len(pos) < K:
            cand = rng.uniform(0.3, 1.7, size=3)
            if all(np.linalg.norm(cand - p) > 0.6 for p in pos):
                pos.append(cand)
        z_max = float(rng.uniform(2.0, 6.0))
        rep = C.charge_concavity_scan(dom, pos, z_max, grid_steps=9, n_max=2)
        worst_defect = max(worst_defect, rep.worst_midpoint_defect)
        all_corner = all_corner and rep.corner_attained
    cands = [[0.4, 0.4, 0.4], [1.6, 1.6, 1.6], [0.4, 1.6, 1.0]]
    worst_eq = 0.0
    for z in (2.0, 4.0, 6.0):
        res, _cfg, relaxed = C.movable_nuclei_energy(dom, z, cands, K_max=2, n_max=2)
        worst_eq = max(worst_eq, abs(res.value - relaxed))
    ok = worst_defect <= 1e-9 and all_corner and worst_eq <= 1e-9
    assert _line(
        8,
        ok,
        f"midpoint defect <= {worst_defect:.3e}, corners attained, "
        f"movable equality within {worst_eq:.3e}",
    )


SCAN_SPECS = {
    "crystal": ScanSpec(
        model="crystal", sides=(2, 3, 4), z=0.5, beta=1.0, mu=-4.0, n_max=2,
        dense_cap=4096,
    ),
    "quantum-nuclei": ScanSpec(
        model="quantum-nuclei", sides=(2, 3, 4), z=1.0, beta=1.0, mu=(-1.0, -1.0),
        n_max=1, nuc_max=1, dense_cap=4096,
    ),
    "movable": ScanSpec(
        model="movable", sides=(2, 3, 4), z=2.0, beta=1.0, mu=(-1.0, -2.0),
        n_max=1, movable_k_max=1,
    ),
}


def test_criterion_9_stability_floors():
    details = []
    ok = True
    for name, spec in SCAN_SPECS.items():
        res = run_scan(spec)
        for which in ("energy_per_volume", "f_per_volume"):
            floors = res.running_floors(which)
            variation = res.floor_variation(which)
            finite = np.isfinite(floors[-1])
            ok = ok and finite and variation <= 0.20
            details.append(f"{name}/{which}: floor {floors[-1]:.4f} var {variation:.1%}")
    assert _line(9, ok, "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(
        json.dumps(
            {"model": "movable", "sides": [2, 3], "z": 2.0, "mu": [-1.0, -2.0], "n_max": 1}
        )
    )
    yk_cfg = tmp_path / "yk.json"
    yk_cfg.write_text(json.dumps({"n_configs": 20}))
    runs = [
        ["verify", "dipole"],
        ["verify", "yukawa", "--config", str(yk_cfg), "--seed", "5"],
        ["scan", "--config", str(scan_cfg)],
    ]
    ok = True
    for idx, args in enumerate(runs):
        outputs = []
        for rep in range(2):
            out = tmp_path / f"run{idx}_{rep}.csv"
            rc = cli_main(args + ["--out", str(out)])
            ok = ok and rc == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    assert _line(10, ok, "3 CLI runs byte-identical under repeated invocation")
