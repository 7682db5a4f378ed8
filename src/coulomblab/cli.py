"""Command-line front end: inequality suites, SSA suites, energies, scans.

Every run is deterministic under --seed; output files carry no timestamps or
timings, so identical invocations are byte-identical.
"""

import argparse
import json
import sys

import numpy as np

from . import coulomb as cb
from . import inequalities as ineq
from . import localization as loc
from . import fock
from .geometry import build_domain
from .scan import ScanSpec, perturbation_compare, run_scan

REPORT_COLUMNS = [
    "check",
    "config",
    "scale",
    "lhs",
    "rhs",
    "gap",
    "mc_error",
    "fitted_constant",
    "passed",
]


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def rows_to_csv(rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(rows, columns):
    clean = [{c: row.get(c) for c in columns} for row in rows]
    return json.dumps(clean, indent=1, sort_keys=True, default=_fmt) + "\n"


def emit(rows, columns, args):
    text = (
        rows_to_csv(rows, columns)
        if args.format == "csv"
        else rows_to_json(rows, columns)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def report_row(rep, config="", scale=""):
    row = rep.row()
    row["config"] = config
    row["scale"] = scale
    return row


def _load_config(args, default):
    if not args.config:
        cfg = dict(default)
    else:
        with open(args.config) as fh:
            cfg = json.load(fh)
        merged = dict(default)
        merged.update(cfg)
        cfg = merged
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _domain_from(cfg):
    spec = dict(cfg["domain"])
    a = float(spec.pop("spacing", 1.0))
    return build_domain(spec, a)


def _nuclei_from(cfg):
    entries = [(e["position"], e["z"]) for e in cfg.get("nuclei", [])]
    return cb.NucleiConfig(entries)


def _field_from(cfg):
    f = cfg.get("field")
    if not f:
        return None
    kind = f.get("kind")
    if kind == "constant":
        return cb.MagneticField.constant(f["B"])
    if kind == "periodic_sine":
        return cb.MagneticField.periodic_sine(f["amplitude"], f["period"])
    if kind == "random":
        return cb.MagneticField.random_bounded(f.get("seed", 0), f.get("scale", 1.0))
    raise ValueError(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# verify subcommands


def _run_lieb_yau(cfg):
    if "configs" in cfg:
        # explicit batch: [{"electrons": [...], "nuclei": [...], "z": ...}]
        rows = []
        for i, c in enumerate(cfg["configs"]):
            rep = ineq.lieb_yau_gap(
                c["electrons"], c["nuclei"], c["z"], baxter=c.get("baxter", False)
            )
            rows.append(report_row(rep, config=str(i)))
        return rows
    suite = dict(
        seed=cfg["seed"],
        n_max=cfg.get("n_max", 8),
        k_max=cfg.get("k_max", 8),
        z_max=cfg.get("z_max", 3.0),
    )
    reps = ineq.lieb_yau_suite(cfg["n_configs"], **suite)
    rows = [report_row(r, config=str(i)) for i, r in enumerate(reps)]
    if cfg.get("baxter", True):
        reps = ineq.lieb_yau_suite(cfg["n_configs"], baxter=True, **suite)
        rows += [report_row(r, config=str(i)) for i, r in enumerate(reps)]
    return rows


def _run_graf_schenker(cfg):
    ell_list = tuple(cfg.get("ell_list", (4.0, 8.0, 16.0)))
    samples = cfg.get("samples", 10000)
    if "configs" in cfg:
        batches = [
            ineq.graf_schenker_deficit(
                ineq.ChargeConfig(c["points"], c["charges"]), ell_list, samples, cfg["seed"] + 7 * i
            )
            for i, c in enumerate(cfg["configs"])
        ]
    else:
        suite = ineq.graf_schenker_suite(cfg["n_configs"], ell_list, samples, cfg["seed"])
        batches = [reps for _cfg, reps in suite]
    return [
        report_row(r, config=str(i), scale=r.extras["ell"])
        for i, reps in enumerate(batches)
        for r in reps
    ]


def _run_lt(cfg):
    dom = build_domain({"shape": "cube", "side": cfg.get("side", 4.0)}, cfg.get("spacing", 1.0))
    n = dom.n_sites
    site = cfg.get("site", n // 2)
    wells = [
        np.where(np.arange(n) == site, -lam / dom.a ** 2, 0.0)
        for lam in cfg.get("depths", (5.0, 10.0, 20.0))
    ]
    rows = [report_row(r, config=f"well{i}") for i, r in enumerate(ineq.lieb_thirring_ratio(dom, wells))]
    for k, ratio in ineq.lt_state_ratio(dom, cfg.get("k_list", (1, 2, 4, 8))):
        rows.append(
            {
                "check": "lieb_thirring_state",
                "config": f"slater{k}",
                "scale": k,
                "lhs": ratio,
                "rhs": 0.0,
                "gap": ratio,
                "mc_error": 0.0,
                "fitted_constant": None,
                "passed": np.isfinite(ratio) and ratio > 0,
            }
        )
    return rows


_LI_YAU_PRESETS = {
    "exp": lambda rate: (lambda t: np.exp(-rate * t)),
}


def _run_li_yau(cfg):
    rows = []
    for i, case in enumerate(cfg["cases"]):
        fdesc = case.get("f", {"kind": "exp", "rate": 1.0})
        f = _LI_YAU_PRESETS[fdesc["kind"]](fdesc.get("rate", 1.0))
        rep = ineq.li_yau_gap(case["lengths"], f)
        rows.append(report_row(rep, config=str(i)))
    return rows


def _run_repelling(cfg):
    dom = build_domain({"shape": "cube", "side": cfg.get("side", 4.0)}, cfg.get("spacing", 1.0))
    reps = ineq.repelling_bound_check(dom, cfg.get("N_list", (1, 2, 3)), cfg.get("eps", 0.5))
    return [report_row(r, config=f"N{r.extras['N']}") for r in reps]


def _run_ims(cfg):
    dom = build_domain({"shape": "cube", "side": cfg.get("side", 6.0)}, cfg.get("spacing", 1.0))
    reps = ineq.ims_residual(dom, cfg.get("ell_list", (4.0, 8.0, 16.0)))
    return [report_row(r, scale=r.extras["ell"]) for r in reps]


def _run_dipole(cfg):
    rng = np.random.default_rng(cfg["seed"])
    xs = rng.uniform(-3.0, 3.0, size=(cfg.get("n_samples", 10000), 3))
    rep = ineq.dipole_bound_check(cfg.get("R", (0.1, 0.0, 0.0)), cfg.get("D", (0.3, 0.2, -0.1)), xs)
    return [report_row(rep)]


def _run_yukawa(cfg):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for i in range(cfg.get("n_configs", 100)):
        N = int(rng.integers(1, 9))
        c = ineq.ChargeConfig(rng.uniform(-2, 2, (N, 3)), rng.uniform(-3, 3, N))
        for nu in cfg.get("nus", (0.5, 1.0, 2.0)):
            rows.append(report_row(ineq.coulomb_yukawa_bound(c, nu), config=str(i), scale=nu))
    return rows


_VERIFY = {
    "lieb-yau": (_run_lieb_yau, {"n_configs": 1000, "seed": 7}),
    "graf-schenker": (_run_graf_schenker, {"n_configs": 20, "seed": 11, "samples": 10000}),
    "lt": (_run_lt, {"seed": 0}),
    "li-yau": (
        _run_li_yau,
        {
            "seed": 0,
            "cases": [
                {"lengths": [np.pi], "f": {"kind": "exp", "rate": 1.0}},
                {"lengths": [1.0, 1.3, 0.8], "f": {"kind": "exp", "rate": 0.25}},
            ],
        },
    ),
    "repelling": (_run_repelling, {"seed": 0, "N_list": [1, 2, 3], "eps": 0.5}),
    "ims": (_run_ims, {"seed": 0}),
    "dipole": (_run_dipole, {"seed": 5}),
    "yukawa": (_run_yukawa, {"seed": 3, "n_configs": 100}),
}


# ---------------------------------------------------------------------------
# ssa subcommands


def _ssa_row(rep, config, n):
    row = report_row(rep, config=config, scale=n)
    for key, val in rep.extras.get("entropies", {}).items():
        row[f"s{key}"] = val
    return row


SSA_COLUMNS = REPORT_COLUMNS + ["s12", "s23", "s2", "s123"]


def _run_ssa_quantum(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n = cfg.get("modes", 6)
    space = fock.build_space(n, "fermion")
    states = []
    for path in cfg.get("state_files", []):
        with open(path) as fh:
            M = fock.array_from_json(fh.read())
        states.append(("file:" + path, fock.FockState(space, M)))
    for trial in range(cfg.get("n_states", 100)):
        X = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
            (space.dim, space.dim)
        )
        M = X @ X.conj().T
        M /= np.trace(M).real
        states.append((f"random{trial}", fock.FockState(space, M, validate=False)))
    rows = []
    for label, state in states:
        raw = rng.random((cfg.get("n_weights", 4), n)) + 0.1
        raw /= np.sqrt((raw ** 2).sum(axis=0))
        rep = loc.ssa_gap(state, list(raw), [0], [1], [2])
        rows.append(_ssa_row(rep, label, n))
    return rows


def _run_ssa_cq(cfg):
    from .localization import CQState, cq_ssa_gap

    rng = np.random.default_rng(cfg["seed"])
    m = cfg.get("cells", 3)
    n = cfg.get("modes", 4)
    space = fock.build_space(n, "fermion")
    D = space.dim
    h = cfg.get("cell_volume", 0.5)
    rows = []

    def rand_psd(scale):
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        M = X @ X.conj().T
        return scale * M / np.trace(M).real

    for trial in range(cfg.get("n_states", 50)):
        b0 = rand_psd(0.5)
        b1 = np.zeros((m, D, D), complex)
        for i in range(m):
            b1[i] = rand_psd(0.1 + 0.3 * rng.random())
        b2 = np.zeros((m, m, D, D), complex)
        for i in range(m):
            for j in range(i + 1, m):
                blk = rand_psd(0.02 + 0.1 * rng.random())
                b2[i, j] = b2[j, i] = blk
        mass = (
            np.trace(b0).real
            + h * np.trace(b1, axis1=-2, axis2=-1).real.sum()
            + h * h / 2 * np.trace(b2, axis1=-2, axis2=-1).real.sum()
        )
        rho = CQState(space, h, {0: b0 / mass, 1: b1 / mass, 2: b2 / mass})
        thetas = rng.random((3, m)) + 0.2
        thetas /= np.sqrt((thetas ** 2).sum(axis=0))
        qs = rng.random((3, n)) + 0.2
        qs /= np.sqrt((qs ** 2).sum(axis=0))
        rep = cq_ssa_gap(rho, list(qs), list(thetas), [0], [1], [2])
        rows.append(_ssa_row(rep, f"cq{trial}", f"{m}x{n}"))
    return rows


# ---------------------------------------------------------------------------
# model subcommands


def _run_energy(cfg):
    dom = _domain_from(cfg)
    op = cb.coulomb_hamiltonian(
        dom, _nuclei_from(cfg), field=_field_from(cfg), n_max=cfg.get("n_max"),
        dim_cap=cfg.get("dim_cap", 16384),
    )
    res = cb.ground_state_energy(op, dense_cap=cfg.get("dense_cap", 2048))
    rows = [
        {
            "quantity": "ground_energy",
            "sector": str(res.n_star),
            "value": res.value,
        }
    ]
    for N in sorted(res.sector_minima):
        rows.append({"quantity": "sector_minimum", "sector": str(N), "value": res.sector_minima[N]})
    rows.append({"quantity": "onsite_alpha", "sector": "", "value": cb.onsite_alpha()})
    return rows, ["quantity", "sector", "value"], True


def _run_free_energy(cfg):
    dom = _domain_from(cfg)
    op = cb.coulomb_hamiltonian(
        dom, _nuclei_from(cfg), field=_field_from(cfg), n_max=cfg.get("n_max"),
        dim_cap=cfg.get("dim_cap", 16384),
    )
    fe = cb.free_energy(op, cfg["beta"], cfg["mu"], dense_cap=cfg.get("dense_cap", 4096))
    rows = [
        {"quantity": "free_energy", "sector": "", "value": fe.value},
        {"quantity": "log_z", "sector": "", "value": fe.log_z},
        {"quantity": "mean_n", "sector": "", "value": float(np.atleast_1d(fe.mean_charge())[0])},
        {"quantity": "onsite_alpha", "sector": "", "value": cb.onsite_alpha()},
    ]
    return rows, ["quantity", "sector", "value"], True


def _run_hf(cfg):
    dom = _domain_from(cfg)
    res = cb.hf_minimize(
        dom,
        _nuclei_from(cfg),
        mu=cfg.get("mu", 0.0),
        beta=cfg.get("beta"),
        field=_field_from(cfg),
    )
    rows = [
        {"quantity": "hf_energy", "sector": "", "value": res.energy},
        {"quantity": "hf_grand_value", "sector": "", "value": res.grand_value},
        {"quantity": "hf_particle_number", "sector": "", "value": res.gamma.trace},
        {"quantity": "hf_converged", "sector": "", "value": float(res.converged)},
    ]
    return rows, ["quantity", "sector", "value"], res.converged


def _run_scan_cmd(cfg):
    spec = ScanSpec.from_dict(cfg)
    result = run_scan(spec)
    rows = [r.output_fields() for r in result.rows]
    cols = list(rows[0].keys())
    ok = all(np.isfinite(r.energy_per_volume) or r.flags.startswith("skipped") for r in result.rows)
    return rows, cols, ok


def _run_compare(cfg):
    defects = [(d["position"], d["z"]) for d in cfg.get("defects", [])]
    spec_fields = {k: v for k, v in cfg.items() if k in ScanSpec.__dataclass_fields__}
    spec = ScanSpec.from_dict({"model": "crystal", **spec_fields})
    out = perturbation_compare(spec, defects=defects)
    rows = out["rows"]
    for r in rows:
        r["trend_nonincreasing"] = out["trend_nonincreasing"]
    return rows, ["side", "e_periodic", "e_perturbed", "ratio", "trend_nonincreasing"], out[
        "trend_nonincreasing"
    ]


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, default=None, help="override the run seed")
    common.add_argument("--out", help="output path (stdout otherwise)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    p = argparse.ArgumentParser(prog="coulomblab")
    sub = p.add_subparsers(dest="command")
    v = sub.add_parser("verify", parents=[common])
    v.add_argument("which", choices=sorted(_VERIFY))
    s = sub.add_parser("ssa", parents=[common])
    s.add_argument("which", choices=("quantum", "cq"))
    for name in ("energy", "free-energy", "hf", "scan", "compare-perturbation"):
        sub.add_parser(name, parents=[common])
    return p


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return 2
    try:
        if args.command == "verify":
            runner, default = _VERIFY[args.which]
            rows = runner(_load_config(args, default))
            ok = all(r["passed"] for r in rows)
            emit(rows, REPORT_COLUMNS, args)
        elif args.command == "ssa":
            runner = _run_ssa_quantum if args.which == "quantum" else _run_ssa_cq
            rows = runner(_load_config(args, {"seed": 21}))
            ok = all(r["passed"] for r in rows)
            emit(rows, SSA_COLUMNS, args)
        elif args.command in ("energy", "free-energy", "hf", "scan", "compare-perturbation"):
            runner = {
                "energy": _run_energy,
                "free-energy": _run_free_energy,
                "hf": _run_hf,
                "scan": _run_scan_cmd,
                "compare-perturbation": _run_compare,
            }[args.command]
            default = {"seed": 0}
            if args.command in ("energy", "free-energy", "hf") and not args.config:
                sys.stderr.write("this subcommand needs --config with a model definition\n")
                return 2
            rows, cols, ok = runner(_load_config(args, default))
            emit(rows, cols, args)
        else:  # pragma: no cover
            return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except cb.EigensolverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    if not ok:
        failing = [r for r in rows if not r.get("passed", True)]
        if failing:
            sys.stderr.write(f"failed checks: {len(failing)}; first: {failing[0]}\n")
        return 1
    return 0


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
