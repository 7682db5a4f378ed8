"""Verifiers for the standalone electrostatic and spectral inequalities:
exact evaluation where both sides are finite sums, seeded Monte Carlo for
rigid-motion averages, with fitted constants instead of hardcoded ones.

Empty-set conventions, used throughout: a nearest-nucleus distance over an
empty nucleus set is +infinity (the term is dropped); a maximum over an empty
index set is 0.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import coulomb as cb
from .fock import build_space, second_quantize_onebody
from .geometry import _mollifier_nodes, _sample_motions, tile_weight_table, unit_cube_tiling

__all__ = [
    "Report",
    "ChargeConfig",
    "lieb_yau_gap",
    "lieb_yau_suite",
    "graf_schenker_deficit",
    "graf_schenker_suite",
    "smooth_gs_check",
    "w_kernel_quadrature_error",
    "coulomb_yukawa_bound",
    "lieb_thirring_ratio",
    "lt_state_ratio",
    "li_yau_gap",
    "repelling_bound_check",
    "dipole_bound_check",
    "ims_defect",
    "ims_residual",
    "peierls_gap",
    "diamagnetic_gap",
]

EXACT_TOL = 1e-12


@dataclass
class Report:
    """LHS/RHS record of one inequality check.

    pass holds iff gap >= -tol - 3 * mc_error; mc_error is zero for exact
    evaluations.
    """

    name: str
    lhs: float
    rhs: float
    mc_error: float = 0.0
    fitted_constant: float = None
    tol: float = EXACT_TOL
    extras: dict = field(default_factory=dict)

    @property
    def gap(self):
        return self.lhs - self.rhs

    @property
    def passed(self):
        return self.gap >= -self.tol - 3.0 * self.mc_error

    def row(self):
        return {
            "check": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "mc_error": self.mc_error,
            "fitted_constant": self.fitted_constant,
            "passed": self.passed,
        }

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"Report({self.name}: gap={self.gap:.6g}, {status})"


class ChargeConfig:
    """Point charges in R^3, optionally marking a nucleus subset."""

    def __init__(self, points, charges, nucleus_mask=None):
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.charges = np.asarray(charges, dtype=float).reshape(-1)
        if self.points.shape[0] != self.charges.shape[0]:
            raise ValueError("points and charges disagree in length")
        if nucleus_mask is None:
            nucleus_mask = np.zeros(len(self.charges), dtype=bool)
        self.nucleus_mask = np.asarray(nucleus_mask, dtype=bool)

    @classmethod
    def electron_nucleus(cls, electrons, nuclei):
        electrons = np.asarray(electrons, dtype=float).reshape(-1, 3)
        nuclei = np.asarray(nuclei, dtype=float).reshape(-1, 3)
        pts = np.vstack([electrons, nuclei])
        charges = np.concatenate([-np.ones(len(electrons)), np.ones(len(nuclei))])
        mask = np.concatenate(
            [np.zeros(len(electrons), dtype=bool), np.ones(len(nuclei), dtype=bool)]
        )
        return cls(pts, charges, mask)

    @property
    def electrons(self):
        return self.points[~self.nucleus_mask]

    @property
    def nuclei(self):
        return self.points[self.nucleus_mask]

    def sum_sq_charge(self):
        return float((self.charges ** 2).sum())


def _pairwise_dist(pts_a, pts_b=None):
    b = pts_a if pts_b is None else pts_b
    return np.linalg.norm(pts_a[:, None, :] - b[None, :, :], axis=-1)


def pair_coulomb(points, charges):
    """sum_{i<j} z_i z_j / |x_i - x_j|; +inf on coincident points with nonzero
    charge product."""
    n = len(charges)
    if n < 2:
        return 0.0
    d = _pairwise_dist(np.asarray(points, dtype=float))
    iu = np.triu_indices(n, 1)
    dv = d[iu]
    prod = (np.outer(charges, charges))[iu]
    if np.any((dv < 1e-14) & (np.abs(prod) > 0)):
        return np.inf
    with np.errstate(divide="ignore"):
        terms = np.where(np.abs(prod) > 0, prod / np.where(dv > 0, dv, 1.0), 0.0)
    return float(terms.sum())


@functools.lru_cache(maxsize=16)
def _upper_pairs(n):
    """np.triu_indices(n, 1), cached (read-only): the suites ask for the same
    few n."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


# ---------------------------------------------------------------------------
# Lieb-Yau


def lieb_yau_gap(electrons, nuclei, z=1.0, baxter=False):
    """Gap of the nearest-nucleus lower bound on the Coulomb potential.

    LHS is the full potential of N unit-negative charges and K nuclei of
    charge z; RHS is -(z + sqrt(2z) + 1/2) sum 1/delta_R(x_i)
    + (z^2/4) sum 1/delta_R(R_k).  With baxter=True the weaker classical
    variant is used instead: coefficient (1 + 2z) and no nuclear term.
    """
    electrons = np.asarray(electrons, dtype=float).reshape(-1, 3)
    nuclei = np.asarray(nuclei, dtype=float).reshape(-1, 3)
    if len(electrons) < 1 or len(nuclei) < 1:
        raise ValueError("need at least one electron and one nucleus")
    z = np.array([z], dtype=float)
    return _lieb_yau_reports(electrons[None], nuclei[None], z, baxter)[0]


def _lieb_yau_reports(electrons, nuclei, z, baxter):
    """lieb_yau_gap of G configurations with the same N and K, given as
    electrons (G, N, 3), nuclei (G, K, 3) and charges z (G,).

    Each report has the bits of the configuration evaluated alone: every
    pair sum reduces one C-contiguous row (hence the ascontiguousarray after
    each fancy gather), and the nuclear sum of 1/delta_R adds one column at a
    time, left to right, the way the sequential sum over nuclei does."""
    G, N, K = electrons.shape[0], electrons.shape[1], nuclei.shape[1]
    d_en = np.linalg.norm(electrons[:, :, None, :] - nuclei[:, None, :, :], axis=-1)
    d_nn = np.linalg.norm(nuclei[:, :, None, :] - nuclei[:, None, :, :], axis=-1)
    lhs = np.zeros(G)
    # a coincident pair gives inf, or nan in a sum the coincident report replaces
    with np.errstate(divide="ignore", invalid="ignore"):
        if N > 1:
            i, j = _upper_pairs(N)
            diff = np.ascontiguousarray(electrons[:, i]) - np.ascontiguousarray(electrons[:, j])
            lhs += (1.0 / np.linalg.norm(diff, axis=-1)).sum(axis=1)
        lhs -= (z[:, None, None] / d_en).reshape(G, -1).sum(axis=1)
        if K > 1:
            i, j = _upper_pairs(K)
            lhs += ((z * z)[:, None] / np.ascontiguousarray(d_nn[:, i, j])).sum(axis=1)
        delta_e = d_en.min(axis=2)
        if baxter:
            rhs = -((1.0 + 2.0 * z)[:, None] / delta_e).sum(axis=1)
        else:
            rhs = -((z + np.sqrt(2.0 * z) + 0.5)[:, None] / delta_e).sum(axis=1)
            # delta_R(R_k): the nearest other nucleus; +inf when there is none
            # adds 1/inf = 0, which leaves the running sum exact
            delta_n = np.where(d_nn > 1e-14, d_nn, np.inf).min(axis=2)
            inv = np.zeros(G)
            for k in range(K):
                inv += 1.0 / delta_n[:, k]
            rhs += (z * z / 4.0) * inv
    coincident = d_en.min(axis=(1, 2)) < 1e-14
    name = "baxter" if baxter else "lieb_yau"
    return [
        Report("lieb_yau", np.inf, 0.0, extras={"coincident": True})
        if c
        else Report(name, left, right)
        for c, left, right in zip(coincident.tolist(), lhs.tolist(), rhs.tolist())
    ]


def lieb_yau_suite(n_configs, seed=0, n_max=8, k_max=8, z_max=3.0, baxter=False):
    """lieb_yau_gap of n_configs seeded random configurations.  Every draw is
    made first, in the per-configuration order N, K, z, electrons, nuclei;
    the configurations are then evaluated grouped by (N, K)."""
    rng = np.random.default_rng(seed)
    draws, groups = [], {}
    for c in range(n_configs):
        N = int(rng.integers(1, n_max + 1))
        K = int(rng.integers(1, k_max + 1))
        z = float(rng.uniform(0.05, z_max))
        draws.append((z, rng.uniform(-2, 2, size=(N, 3)), rng.uniform(-2, 2, size=(K, 3))))
        groups.setdefault((N, K), []).append(c)
    reports = [None] * n_configs
    for members in groups.values():
        z, electrons, nuclei = (np.array(col) for col in zip(*(draws[c] for c in members)))
        for c, rep in zip(members, _lieb_yau_reports(electrons, nuclei, z, baxter)):
            reports[c] = rep
    return reports


# ---------------------------------------------------------------------------
# Graf-Schenker


def _same_tile_samples(tiling, points, scale, R, u):
    """Packed tile keys (samples, n_points) under the moved scaled tiling.

    Coordinate i of (x - u) R is summed over k = x, y, z in that order, into
    row i of one (3, samples * n_points) buffer, whose transpose is located."""
    D = [points[None, :, k] - u[:, k, None] for k in range(3)]
    Y = np.empty((3, len(R) * len(points)))
    for i in range(3):
        col = Y[i].reshape(len(R), len(points))
        np.multiply(D[0], R[:, 0, i, None], out=col)
        col += D[1] * R[:, 1, i, None]
        col += D[2] * R[:, 2, i, None]
    return tiling.locate(Y.T, scale=scale).reshape(len(R), len(points))


def graf_schenker_deficit(cfg, ell_list, samples=10000, seed=0, tiling=None, fit_index=0):
    """Monte Carlo deficit of the simplex-average lower bound.

    For each scale ell, D(ell) is the group average of the same-tile pair
    energy minus the full pair energy; the inequality asserts
    ell D(ell) <= C sum z_i^2 uniformly in ell for a tiling-dependent C.  The
    constant is fitted at ell_list[fit_index] and each scale must stay below
    it within the combined 3-sigma Monte Carlo error.
    """
    tiling = tiling or unit_cube_tiling()
    pts, charges = cfg.points, cfg.charges
    n = len(charges)
    full = pair_coulomb(pts, charges)
    zsq = cfg.sum_sq_charge()
    iu = np.triu_indices(n, 1)
    if n >= 2:
        d = _pairwise_dist(pts)[iu]
        prods = np.outer(charges, charges)[iu] / d
    else:
        prods = np.zeros(0)
    ratios, sigmas, deficits = [], [], []
    for j, ell in enumerate(ell_list):
        rng = np.random.default_rng([seed, j])
        R, u = _sample_motions(rng, samples, ell)
        keys = _same_tile_samples(tiling, pts, ell, R, u)
        if n >= 2:
            same = keys[:, iu[0]] == keys[:, iu[1]]
            inside = same @ prods
        else:
            inside = np.zeros(samples)
        D_s = inside - full
        D = float(D_s.mean())
        sig = float(D_s.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
        deficits.append((D, sig))
        ratios.append(ell * D / zsq)
        sigmas.append(ell * sig / zsq)
    c_fit = ratios[fit_index]
    s_fit = sigmas[fit_index]
    reports = []
    for ell, ratio, sig, (D, Dsig) in zip(ell_list, ratios, sigmas, deficits):
        reports.append(
            Report(
                "graf_schenker",
                lhs=c_fit,
                rhs=ratio,
                mc_error=float(np.hypot(sig, s_fit)),
                fitted_constant=c_fit,
                extras={"ell": ell, "deficit": D, "deficit_sigma": Dsig, "samples": samples},
            )
        )
    return reports


def graf_schenker_suite(
    n_configs, ell_list=(4.0, 8.0, 16.0), samples=10000, seed=0, signed=False
):
    """Random-configuration sweep of the deficit envelope.

    Charges default to positive: the finite-size correction to the deficit
    rate then decays from above, so the smallest-scale fit is a true envelope.
    Mixed-sign clouds (signed=True) can approach the limiting constant from
    below and are reported without the envelope being meaningful at ell = 4.
    """
    rng = np.random.default_rng(seed)
    tiling = unit_cube_tiling()
    out = []
    for c in range(n_configs):
        N = int(rng.integers(2, 9))
        pts = rng.uniform(-1.0, 1.0, size=(N, 3))
        if signed:
            charges = rng.uniform(-3.0, 3.0, size=N)
            charges[np.abs(charges) < 0.2] = 0.3
        else:
            charges = rng.uniform(0.3, 3.0, size=N)
        cfg = ChargeConfig(pts, charges)
        reports = graf_schenker_deficit(
            cfg, ell_list, samples=samples, seed=seed + 7 * c, tiling=tiling
        )
        out.append((cfg, reports))
    return out


def w_kernel(r):
    """W(x) = 1/(|x|(1 + |x|)), the screened comparison kernel."""
    r = np.asarray(r, dtype=float)
    return 1.0 / (r * (1.0 + r))


def w_kernel_quadrature_error(radii):
    """Max relative error of W(r) = int_0^inf e^(-nu) Y_nu(r) dnu by adaptive
    quadrature against the closed form."""
    from scipy import integrate

    worst = 0.0
    for r in radii:
        val, _ = integrate.quad(lambda nu: np.exp(-nu) * np.exp(-nu * r) / r, 0, np.inf)
        worst = max(worst, abs(val - w_kernel(r)) / w_kernel(r))
    return worst


def smooth_gs_check(
    cfg, ell_list, r_j=0.3, samples=2000, seed=0, tiling=None, n_quad=8, fit_index=0
):
    """Mollified variant of the simplex-average deficit.

    Pair weights are sum_mu theta_mu^2(x_i) theta_mu^2(x_j) with theta the
    mollified tile indicators; the deficit rate is enveloped by a constant
    fitted at the first scale, as in the sharp check.  The screened-kernel
    pair sum is reported alongside.
    """
    tiling = tiling or unit_cube_tiling()
    pts, charges = cfg.points, cfg.charges
    n = len(charges)
    full = pair_coulomb(pts, charges)
    zsq = cfg.sum_sq_charge()
    iu = np.triu_indices(n, 1)
    d = _pairwise_dist(pts)[iu] if n >= 2 else np.zeros(0)
    prods = (np.outer(charges, charges)[iu] / d) if n >= 2 else np.zeros(0)
    w_pairs = float((np.outer(charges, charges)[iu] * w_kernel(d)).sum()) if n >= 2 else 0.0
    nodes, wts = _mollifier_nodes(r_j, n_quad)
    offs = (pts[:, None, :] - nodes[None, :, :]).reshape(-1, 3)
    chunk = max(1, 32_768 // len(offs))  # samples per chunk: a few MiB of keys
    ratios, sigmas = [], []
    per_ell_weight_stats = []
    for j, ell in enumerate(ell_list):
        rng = np.random.default_rng([seed, 13, j])
        R, u = _sample_motions(rng, samples, ell)
        vals = np.empty(samples)
        max_weight = 0.0
        for start in range(0, samples, chunk):
            Y = (offs[None] - u[start : start + chunk, None, :]) @ R[start : start + chunk]
            keys = tiling.locate(Y.reshape(-1, 3), scale=ell)
            pair = _smooth_pair_weights(keys, n, wts, iu)
            vals[start : start + chunk] = pair @ prods
            max_weight = max(max_weight, float(pair.max(initial=0.0)))
        D_s = vals - full
        D = float(D_s.mean())
        sig = float(D_s.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
        ratios.append(ell * D / zsq)
        sigmas.append(ell * sig / zsq)
        per_ell_weight_stats.append(max_weight)
    c_fit, s_fit = ratios[fit_index], sigmas[fit_index]
    reports = []
    for ell, ratio, sig, mw in zip(ell_list, ratios, sigmas, per_ell_weight_stats):
        reports.append(
            Report(
                "graf_schenker_smooth",
                lhs=c_fit,
                rhs=ratio,
                mc_error=float(np.hypot(sig, s_fit)),
                fitted_constant=c_fit,
                extras={"ell": ell, "w_pairs": w_pairs, "max_pair_weight": mw, "r_j": r_j},
            )
        )
    return reports


def _smooth_pair_weights(keys, n, wts, iu):
    """Smoothed same-tile weights sum_mu theta_mu^2(x_i) theta_mu^2(x_j) of the
    pairs iu, one row per sample, from the packed tile keys of every
    (sample, point, node) offset in that order.  The offsets sharing a sample
    and a tile form one group; a point's weight in a group sums its nodes'
    quadrature weights there, and a pair's weight sums over the groups of
    its sample the product of the two points' weights."""
    per_sample = n * len(wts)
    sample = np.arange(len(keys)) // per_sample
    order = np.lexsort((keys, sample))
    keys, sample = keys[order], sample[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (sample[1:] != sample[:-1])
    group = np.cumsum(new) - 1
    point = order % per_sample // len(wts)
    weights = np.bincount(
        group * n + point, weights=wts[order % len(wts)], minlength=(group[-1] + 1) * n
    ).reshape(-1, n)
    first = np.searchsorted(sample[new], np.arange(len(keys) // per_sample))
    return np.add.reduceat(weights[:, iu[0]] * weights[:, iu[1]], first, axis=0)


# ---------------------------------------------------------------------------
# Yukawa comparison


def yukawa(r, nu):
    return np.exp(-nu * np.asarray(r, dtype=float)) / np.asarray(r, dtype=float)


def coulomb_yukawa_bound(cfg, nu):
    """sum q_i q_j / r >= sum q_i q_j Y_nu(r) - (nu/2) sum q_i^2."""
    pts, q = cfg.points, cfg.charges
    n = len(q)
    lhs = pair_coulomb(pts, q)
    if n >= 2:
        iu = np.triu_indices(n, 1)
        d = _pairwise_dist(pts)[iu]
        rhs = float((np.outer(q, q)[iu] * yukawa(d, nu)).sum())
    else:
        rhs = 0.0
    rhs -= 0.5 * nu * float((q ** 2).sum())
    return Report("coulomb_yukawa", lhs, rhs, extras={"nu": nu})


# ---------------------------------------------------------------------------
# Lieb-Thirring


def lieb_thirring_ratio(domain, potentials):
    """First-form ratios tr(T + V)_- / sum a^3 V_-^(5/2) for a family of site
    potentials.

    No literature constant applies to the discrete operator, so the envelope
    is fitted as the family maximum; each report carries the ratio and the
    family spread.
    """
    T = cb.kinetic_operator(domain)
    a3 = domain.a ** 3
    ratios = []
    for V in potentials:
        V = np.asarray(V, dtype=float)
        vals = np.linalg.eigvalsh(T + np.diag(V))
        num = float(-vals[vals < 0].sum())
        den = a3 * float((np.maximum(-V, 0.0) ** 2.5).sum())
        ratios.append(0.0 if den == 0.0 and num == 0.0 else num / den)
    c_fit = max(ratios)
    spread = c_fit / min(r for r in ratios if r > 0) if any(r > 0 for r in ratios) else 1.0
    return [
        Report(
            "lieb_thirring",
            lhs=c_fit,
            rhs=ratio,
            fitted_constant=c_fit,
            extras={"ratio": ratio, "family_spread": spread},
        )
        for ratio in ratios
    ]


def lt_state_ratio(domain, k_list):
    """Second-form ratios <sum T>_Psi / sum a^3 rho^(5/3) for Slater states of
    the k lowest Dirichlet modes."""
    T = cb.kinetic_operator(domain)
    vals, vecs = np.linalg.eigh(T)
    a3 = domain.a ** 3
    out = []
    for k in k_list:
        occ = vecs[:, :k]
        kin = float(vals[:k].sum())
        rho = (np.abs(occ) ** 2).sum(axis=1) / a3
        den = a3 * float((rho ** (5.0 / 3.0)).sum())
        out.append((k, kin / den))
    return out


# ---------------------------------------------------------------------------
# Li-Yau (continuum boxes, exact Dirichlet spectra)


def li_yau_gap(lengths, f, eig_floor=1e-16, tol=1e-9):
    """Phase-space bound on tr f(-Delta) for a box with exact Dirichlet
    spectrum: volume (2 pi)^(-n) int f(|p|^2) dp minus the eigenvalue sum.

    f must be decaying; the eigenvalue sum is truncated when f < eig_floor.
    Raises on a divergent phase-space integral.
    """
    lengths = tuple(float(L) for L in np.atleast_1d(lengths))
    ndim = len(lengths)
    if ndim not in (1, 3):
        raise ValueError("only 1D intervals and 3D boxes are supported")
    power = 0 if ndim == 1 else 2
    val = _phase_space_integral(f, power)
    t_max = _decay_threshold(f, eig_floor)
    if ndim == 1:
        L = lengths[0]
        k_hi = _bounded_count(np.sqrt(t_max) * L / np.pi)
        k = np.arange(1, k_hi + 1)
        lhs_sum = float(np.sum(f((k * np.pi / L) ** 2)))
        rhs = (L / np.pi) * val
    else:
        ks = []
        for L in lengths:
            k_hi = _bounded_count(np.sqrt(t_max) * L / np.pi)
            ks.append(np.arange(1, k_hi + 1) * np.pi / L)
        g1, g2, g3 = np.meshgrid(*[k ** 2 for k in ks], indexing="ij")
        lam = (g1 + g2 + g3).ravel()
        lhs_sum = float(np.sum(f(lam)))
        V = float(np.prod(lengths))
        rhs = V / (2.0 * np.pi ** 2) * val
    return Report("li_yau", rhs, lhs_sum, tol=tol, extras={"dim": ndim})


def _phase_space_integral(f, power):
    """int_0^inf f(p^2) p^power dp, rejecting slowly decaying integrands."""
    from scipy import integrate

    integrand = lambda p: f(p ** 2) * p ** power
    partials = [integrate.quad(integrand, 0, P, limit=200)[0] for P in (20.0, 200.0, 2000.0)]
    if not np.isfinite(partials[-1]) or abs(partials[-1] - partials[-2]) > 1e-9 * max(
        abs(partials[-1]), 1.0
    ):
        raise ValueError("divergent phase-space integral")
    return partials[-1]


def _decay_threshold(f, floor):
    t = 1.0
    for _ in range(200):
        if f(t) < floor:
            return t
        t *= 2.0
    raise ValueError("function does not decay below the floor")


def _bounded_count(x, cap=2000):
    k = int(np.floor(x)) + 1
    if k > cap:
        raise ValueError("function decays too slowly for an exact mode sum")
    return k


# ---------------------------------------------------------------------------
# repelling particles (bosonic, with nearest-neighbor repulsion)


_REPELLING_DIM_CAP = 65536


def repelling_bound_check(domain, N_list, eps, dense_cap=2048):
    """Ground energy of sum_i (T_i + eps max_{k != i} 1/|x_i - x_k|) on the
    symmetric N-particle sector; the maximum over an empty set is 0, and
    same-site pairs use the cell-averaged inverse distance.

    Reports c_obs = E / (N min(N/|O|, N^(1/3)/|O|^(1/3))) per N.
    """
    T = cb.kinetic_operator(domain)
    pts = domain.points
    n = domain.n_sites
    onsite_inv = cb.onsite_alpha() / domain.a
    dist = _pairwise_dist(pts)
    np.fill_diagonal(dist, domain.a / cb.onsite_alpha())
    inv = 1.0 / dist
    vol = domain.volume
    reports = []
    for N in N_list:
        if N > 4:
            raise ValueError("bosonic check limited to N <= 4")
        space = build_space(n, "boson", boson_cap=N, n_max=N, dim_cap=_REPELLING_DIM_CAP)
        idx = space.sector_indices(N)
        occ = space.occupations[idx]
        H = second_quantize_onebody(space, T)[idx][:, idx]
        if N >= 2:
            # sites of the N particles of each basis row, ascending
            rows, sites = np.nonzero(occ)
            parts = np.repeat(sites, occ[rows, sites]).reshape(-1, N)
            pair = inv[parts[:, :, None], parts[:, None, :]]
            pair[:, np.arange(N), np.arange(N)] = -np.inf  # k != i
            H = H + sp.diags(eps * pair.max(axis=2).sum(axis=1))
        E = cb._sector_lowest(H, dense_cap)[0]
        dim = len(idx)
        scale = N * min(N / vol, N ** (1.0 / 3.0) / vol ** (1.0 / 3.0))
        c_obs = E / scale if scale > 0 else np.inf
        reports.append(
            Report(
                "repelling",
                lhs=E,
                rhs=0.0,
                extras={"N": N, "c_obs": c_obs, "dim": dim, "onsite_inv": onsite_inv},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# dipole potential bound


def dipole_bound_check(R, D, x_samples, singular_tol=1e-6):
    """|1/|x-R-D| - 1/|x-R|| <= C |D| / (|x-R-D| |x-R|) with C = 1; reports
    the largest observed ratio (samples near either singularity are skipped)."""
    R = np.asarray(R, dtype=float).reshape(3)
    D = np.asarray(D, dtype=float).reshape(3)
    if np.linalg.norm(D) == 0:
        raise ValueError("need a nonzero displacement")
    xs = np.asarray(x_samples, dtype=float).reshape(-1, 3)
    d1 = np.linalg.norm(xs - R - D, axis=1)
    d2 = np.linalg.norm(xs - R, axis=1)
    ok = (d1 > singular_tol) & (d2 > singular_tol)
    skipped = int((~ok).sum())
    ratio = np.abs(1.0 / d1[ok] - 1.0 / d2[ok]) * d1[ok] * d2[ok] / np.linalg.norm(D)
    worst = float(ratio.max()) if ratio.size else 0.0
    return Report(
        "dipole_bound",
        lhs=1.0 + 1e-9,
        rhs=worst,
        tol=0.0,
        extras={"skipped": skipped, "tested": int(ok.sum())},
    )


# ---------------------------------------------------------------------------
# IMS localization defect


def ims_defect(T, theta_rows, tol=1e-9):
    """Defect of the localized kinetic operator for a partition of unity.

    theta_rows has one row per tile (values on the sites); requires
    sum_mu theta_mu^2 = 1 on the sites.  Returns (defect matrix, overlap
    kernel): sum_mu Theta T Theta - T = T o (K - 1) off the diagonal, with
    K(x, y) = sum_mu theta_mu(x) theta_mu(y).
    """
    theta = np.asarray(theta_rows, dtype=float)
    colsum = (theta ** 2).sum(axis=0)
    if np.abs(colsum - 1.0).max() > tol:
        raise ValueError("partition of unity fails on the domain")
    K = theta.T @ theta
    defect = T * (K - 1.0)
    return defect, K


def ims_residual(domain, ell_list, tiling=None, r_j_factor=0.5, n_quad=8, field=None):
    """Spectral-norm IMS residual ||sum Theta T Theta - T|| over tile scales.

    The mollifier radius grows like sqrt(ell) (r_j = r_j_factor sqrt(ell)), the
    scaling under which ell * residual stays bounded; the partition of unity
    is validated to 1e-9 before the defect is formed.
    """
    tiling = tiling or unit_cube_tiling()
    T = cb.kinetic_operator(domain, field)
    reports = []
    for ell in ell_list:
        r_j = r_j_factor * np.sqrt(ell)
        _, theta_sq = tile_weight_table(tiling, domain.points, scale=ell, r_j=r_j, n_quad=n_quad)
        defect, _ = ims_defect(T, np.sqrt(theta_sq))
        resid = float(np.abs(np.linalg.eigvalsh(defect)).max())  # defect is Hermitian
        reports.append(
            Report(
                "ims",
                lhs=0.0,
                rhs=0.0,
                extras={"ell": ell, "residual": resid, "ell_residual": ell * resid, "r_j": r_j},
            )
        )
    vals = [r.extras["ell_residual"] for r in reports]
    bound = 2.0 * min(vals) + 1e-12
    for r in reports:
        r.lhs = bound
        r.rhs = r.extras["ell_residual"]
        r.fitted_constant = max(vals)
    return reports


# ---------------------------------------------------------------------------
# trace inequalities used by the model invariants


def peierls_gap(H, beta, basis):
    """tr e^(-beta H) >= sum_i e^(-beta <phi_i, H phi_i>) for an orthonormal
    basis (columns of basis); reports the relative gap."""
    H = np.asarray(H)
    vals = np.linalg.eigvalsh(H)
    lhs = float(np.exp(-beta * vals).sum())
    diag = np.real(np.einsum("ji,jk,ki->i", basis.conj(), H, basis))
    rhs = float(np.exp(-beta * diag).sum())
    return Report("peierls", lhs=(lhs - rhs) / lhs, rhs=0.0, tol=1e-10, extras={"beta": beta})


def diamagnetic_gap(domain, field, mass_scale=1.0):
    """lambda_min(T(A)) - lambda_min(T(0)) >= 0 for Peierls-phase hopping."""
    TA = cb.kinetic_operator(domain, field, mass_scale)
    T0 = cb.kinetic_operator(domain, None, mass_scale)
    lam_a = float(np.linalg.eigvalsh(TA)[0])
    lam_0 = float(np.linalg.eigvalsh(T0)[0])
    return Report("diamagnetic", lhs=lam_a, rhs=lam_0, tol=1e-10, extras={"field": field.label})
