"""Thermodynamic-scan drivers: energy and free energy per unit volume over
growing cubes for the three models, and the lattice-perturbation comparison.

Convergence is reported, never asserted; the asserted quantities are
boundedness (finite running floors) and the single monotonicity trend in
perturbation_compare.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import coulomb as cb
from .fock import _count_table
from .geometry import build_domain

__all__ = ["ScanSpec", "ScanRow", "ScanResult", "run_scan", "perturbation_compare"]


@dataclass
class ScanSpec:
    """Scan parameters; the annotations and defaults are also the key table
    of the `scan` config (cli._read_config)."""

    model: str = "crystal"  # crystal | quantum-nuclei | movable
    sides: list[int] = (2, 3, 4)
    spacing: float = 1.0
    z: float = 1.0
    beta: float = 1.0
    mu: float | list[float] = 0.0  # scalar for crystal, pair for the two-species models
    nuc_mass: float = 100.0
    n_max: int = 2
    nuc_max: int = 1
    movable_k_max: int = 1
    candidates_per_side: int = 2
    dense_cap: int = 4096
    dim_cap: int = 70000

    def __post_init__(self):
        if self.model not in ("crystal", "quantum-nuclei", "movable"):
            raise ValueError(f"unknown scan model {self.model!r}")
        self.sides = tuple(self.sides)
        if not self.sides:
            raise ValueError("sides is empty")
        if any(b <= a for a, b in zip(self.sides, self.sides[1:])):
            raise ValueError("sides must be strictly increasing")
        for key, least in (("nuc_max", 0), ("movable_k_max", 0), ("candidates_per_side", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)!r}")
        if self.model == "crystal":
            self.mu = float(np.atleast_1d(self.mu)[0])
        else:
            mu = np.atleast_1d(self.mu)
            self.mu = (float(mu[0]), float(mu[-1]))


@dataclass
class ScanRow:
    side: int
    volume: float
    energy: float
    energy_per_volume: float
    free_energy: float
    f_per_volume: float
    mean_n_per_volume: float
    delta_e: float
    flags: str = ""

    def output_fields(self):
        """Deterministic output record: timing deliberately excluded."""
        return {
            "side": self.side,
            "volume": self.volume,
            "energy": self.energy,
            "energy_per_volume": self.energy_per_volume,
            "free_energy": self.free_energy,
            "f_per_volume": self.f_per_volume,
            "mean_n_per_volume": self.mean_n_per_volume,
            "delta_e": self.delta_e,
            "flags": self.flags,
        }


@dataclass
class ScanResult:
    spec: ScanSpec
    rows: list
    floors: dict

    def running_floors(self, which="energy_per_volume"):
        vals = [getattr(r, which) for r in self.rows]
        return [min(vals[: i + 1]) for i in range(len(vals))]

    def floor_variation(self, which="energy_per_volume"):
        """Relative change of the running floor when the largest size joins."""
        floors = self.running_floors(which)
        if len(floors) < 2:
            return 0.0
        prev, last = floors[-2], floors[-1]
        denom = max(abs(prev), 1e-12)
        return abs(last - prev) / denom


def _cube(side, a):
    return build_domain({"shape": "cube", "side": side * a}, a)


def _candidate_positions(domain, per_side):
    """Coarse grid of nucleus candidates: off-site cell points of up to
    per_side^3 evenly spaced sites."""
    idx = domain.idx
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    picks = []
    for axis in range(3):
        count = min(per_side, hi[axis] - lo[axis] + 1)
        picks.append(np.unique(np.linspace(lo[axis], hi[axis], count).round().astype(int)))
    return [(np.array(u, dtype=float) + cb._NUCLEUS_OFFSET) * domain.a for u in product(*picks)]


def _estimate_dim(model, n_sites, spec):
    # the largest space or block the builder forms; counts[n, t] counts <= t particles
    el = _count_table(n_sites, 1, spec.n_max)[n_sites]
    if model != "quantum-nuclei":
        return el[-1]
    nuc = _count_table(n_sites, max(1, spec.nuc_max), spec.nuc_max)[n_sites]
    return max(el[-1], nuc[-1], np.diff(el, prepend=0).max() * np.diff(nuc, prepend=0).max())


def run_scan(spec):
    """Rows of E/|O| and F/|O| for each cube side; sizes whose largest
    space or block (_estimate_dim) exceeds dim_cap are flagged and skipped."""
    rows = []
    prev_e = None
    for side in spec.sides:
        domain = _cube(side, spec.spacing)
        if _estimate_dim(spec.model, domain.n_sites, spec) > spec.dim_cap:
            rows.append(
                ScanRow(side, domain.volume, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
                        "skipped:dim_cap")
            )
            continue
        flags = []
        if spec.model == "crystal":
            nuclei = cb.NucleiConfig.from_lattice(domain, spec.z)
            op = cb.coulomb_hamiltonian(domain, nuclei, n_max=spec.n_max, dim_cap=spec.dim_cap)
            f_res = cb.free_energy(op, spec.beta, spec.mu, dense_cap=spec.dense_cap)
            energy, fval = f_res.ground_state().value, f_res.value
            mean_n = float(np.atleast_1d(f_res.mean_charge())[0])
            if _cap_weight(f_res, spec.n_max) > 1e-6:
                flags.append("sector-cap-weight")
        elif spec.model == "quantum-nuclei":
            op = cb.two_species_hamiltonian(
                domain,
                spec.z,
                spec.nuc_mass,
                el_max=spec.n_max,
                nuc_max=spec.nuc_max,
                dim_cap=spec.dim_cap,
            )
            f_res = cb.free_energy(op, spec.beta, spec.mu, dense_cap=spec.dense_cap)
            energy, fval = f_res.ground_state().value, f_res.value
            mean_n = float(np.atleast_1d(f_res.mean_charge())[0])
        else:
            candidates = _candidate_positions(domain, spec.candidates_per_side)
            fe = cb.classical_nuclei_free_energy(
                domain,
                spec.z,
                spec.beta,
                spec.mu,
                K_max=spec.movable_k_max,
                nucleus_grid=candidates,
                cell_volume=domain.volume / len(candidates),
                n_max=spec.n_max,
                dim_cap=spec.dim_cap,
                dense_cap=spec.dense_cap,
            )
            energy, fval = fe["energy"], fe["value"]
            mean_n = np.nan
            if fe["truncation_flagged"]:
                flags.append("k-truncation")
        vol = domain.volume
        e_pv = energy / vol
        delta = np.nan if prev_e is None else abs(e_pv - prev_e)
        prev_e = e_pv
        rows.append(
            ScanRow(
                side,
                vol,
                energy,
                e_pv,
                fval,
                fval / vol,
                mean_n / vol if np.isfinite(mean_n) else np.nan,
                delta,
                ";".join(flags),
            )
        )
    good = [r for r in rows if not r.flags.startswith("skipped")]
    floors = {
        which: min((getattr(r, which) for r in good), default=np.nan)
        for which in ("energy_per_volume", "f_per_volume")
    }
    return ScanResult(spec, rows, floors)


def _cap_weight(f_res, n_cap):
    """Gibbs weight sitting in the top particle-number sector."""
    weights = f_res.sector_weights()
    top = [k for k in weights if (k if np.isscalar(k) else max(k)) >= n_cap]
    return float(sum(weights[k].sum() for k in top))


def perturbation_compare(spec, defects=()):
    """|E_(perturbed) - E_(periodic)| / |O| across the size sequence.

    For compactly supported perturbations the ratio is asserted nonincreasing
    between the two largest sizes; the full sequence is reported either way.
    """
    if spec.model != "crystal":
        raise ValueError("perturbation comparison applies to the crystal model")
    ratios = []
    rows = []
    for side in spec.sides:
        domain = _cube(side, spec.spacing)
        base = cb.NucleiConfig.from_lattice(domain, spec.z)
        pert = cb.NucleiConfig.from_lattice(domain, spec.z, defects)
        electrons = cb._Electrons(domain, n_max=spec.n_max, dim_cap=spec.dim_cap)
        op0, op1 = electrons.operator(base), electrons.operator(pert)
        del electrons  # its blocks, T and W are not needed by the solves
        e0 = cb.ground_state_energy(op0).value
        e1 = cb.ground_state_energy(op1).value
        ratio = abs(e1 - e0) / domain.volume
        ratios.append(ratio)
        rows.append({"side": side, "e_periodic": e0, "e_perturbed": e1, "ratio": ratio})
    trend_ok = True
    if len(ratios) >= 2:
        trend_ok = ratios[-1] <= ratios[-2] + 1e-12
    return {"rows": rows, "trend_nonincreasing": trend_ok}
