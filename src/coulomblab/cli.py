"""Command-line front end: inequality suites, SSA suites, energies, scans.

Every run is deterministic under --seed; output files carry no timestamps or
timings, so identical invocations are byte-identical.  Each subcommand
declares its config keys once, in the tables at the end of this module.
"""

import argparse
import itertools
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


def _load_config(args):
    """The --config file's JSON value ({} without one), its seed set by --seed."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    # a value that is not an object is rejected by _read_config
    if getattr(args, "seed", None) is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed
    return cfg


# A key table maps each config key to (kind, default).  A kind is a type (a
# bool is not an int; an int is a float), list[kind], a union a | b, a
# nested key table for a JSON object, or (tag, {tag value: key table}) for a
# JSON object whose tag key picks its table.  _REQUIRED marks a key without
# a default; a key whose default is None also takes null.
_REQUIRED = object()


def _read_config(keys, cfg, where="config"):
    """cfg completed with the defaults of the key table keys.

    Raises ValueError on an unknown key, a missing required key or a value
    not of its kind (a float kind takes finite numbers only).  Values are
    checked, never converted."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; accepted {sorted(keys)}")
    out = {}
    for name, (kind, default) in keys.items():
        if name not in cfg and default is _REQUIRED:
            raise ValueError(f"{where}: missing key {name!r}")
        value = cfg.get(name, default)
        if value is not None or default is not None:
            value = _read_value(kind, value, f"{where}.{name}")
        out[name] = value
    return out


def _read_value(kind, value, where):
    if isinstance(kind, dict):
        return _read_config(kind, value, where)
    if isinstance(kind, tuple):
        tag, tables = kind
        choice = value.get(tag) if isinstance(value, dict) else None
        if isinstance(value, dict) and not (isinstance(choice, str) and choice in tables):
            raise ValueError(f"{where}.{tag} must be one of {sorted(tables)}, got {choice!r}")
        return _read_config({tag: (str, _REQUIRED), **tables.get(choice, {})}, value, where)
    if getattr(kind, "__origin__", None) is list:
        if isinstance(value, (list, tuple)):
            return [_read_value(kind.__args__[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif hasattr(kind, "__args__"):  # a union
        for alt in kind.__args__:
            try:
                return _read_value(alt, value, where)
            except ValueError:
                pass
    elif isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind
    ):
        # Python's json reads NaN and Infinity
        if kind is float and not np.isfinite(value):
            raise ValueError(f"{where} must be a finite number, got {value!r}")
        return value
    raise ValueError(f"{where} must be {_kind_name(kind)}, got {value!r}")


def _kind_name(kind):
    if isinstance(kind, dict):
        return "an object"
    if getattr(kind, "__origin__", None) is list:
        return f"a list of {_kind_name(kind.__args__[0])}"
    if hasattr(kind, "__args__"):
        return " or ".join(_kind_name(alt) for alt in kind.__args__)
    return kind.__name__


def _domain_from(cfg):
    # a ball without a center takes build_domain's default center
    spec = {k: v for k, v in cfg["domain"].items() if v is not None}
    return build_domain(spec, spec.pop("spacing"))


def _nuclei_from(cfg):
    entries = [(e["position"], e["z"]) for e in cfg["nuclei"]]
    return cb.NucleiConfig(entries)


def _field_from(cfg):
    if cfg["field"] is None:
        return None
    # each kind's keys are the arguments of its constructor
    f = dict(cfg["field"])
    make = {
        "constant": cb.MagneticField.constant,
        "periodic_sine": cb.MagneticField.periodic_sine,
        "random": cb.MagneticField.random_bounded,
    }[f.pop("kind")]
    return make(**f)


# ---------------------------------------------------------------------------
# verify subcommands


def _run_lieb_yau(cfg):
    if cfg["configs"] is not None:
        rows = []
        for i, c in enumerate(cfg["configs"]):
            rep = ineq.lieb_yau_gap(c["electrons"], c["nuclei"], c["z"], baxter=c["baxter"])
            rows.append(report_row(rep, config=str(i)))
        return rows
    suite = dict(seed=cfg["seed"], n_max=cfg["n_max"], k_max=cfg["k_max"], z_max=cfg["z_max"])
    reps = ineq.lieb_yau_suite(cfg["n_configs"], **suite)
    rows = [report_row(r, config=str(i)) for i, r in enumerate(reps)]
    if cfg["baxter"]:
        reps = ineq.lieb_yau_suite(cfg["n_configs"], baxter=True, **suite)
        rows += [report_row(r, config=str(i)) for i, r in enumerate(reps)]
    return rows


def _run_graf_schenker(cfg):
    ell_list, samples = cfg["ell_list"], cfg["samples"]
    if cfg["configs"] is not None:
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
    dom = build_domain({"shape": "cube", "side": cfg["side"]}, cfg["spacing"])
    n = dom.n_sites
    site = n // 2 if cfg["site"] is None else cfg["site"]
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside [0, {n}), the {n} sites of the cube")
    wells = [np.where(np.arange(n) == site, -lam / dom.a ** 2, 0.0) for lam in cfg["depths"]]
    rows = [report_row(r, config=f"well{i}") for i, r in enumerate(ineq.lieb_thirring_ratio(dom, wells))]
    for k, ratio in ineq.lt_state_ratio(dom, cfg["k_list"]):
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


def _run_li_yau(cfg):
    rows = []
    for i, case in enumerate(cfg["cases"]):
        kind, rate = case["f"]["kind"], case["f"]["rate"]
        if kind != "exp":
            raise ValueError(f"unknown li-yau f kind {kind!r}; the only kind is 'exp'")
        rep = ineq.li_yau_gap(case["lengths"], lambda t: np.exp(-rate * t))
        rows.append(report_row(rep, config=str(i)))
    return rows


def _run_repelling(cfg):
    dom = build_domain({"shape": "cube", "side": cfg["side"]}, cfg["spacing"])
    reps = ineq.repelling_bound_check(dom, cfg["N_list"], cfg["eps"])
    return [report_row(r, config=f"N{r.extras['N']}") for r in reps]


def _run_ims(cfg):
    dom = build_domain({"shape": "cube", "side": cfg["side"]}, cfg["spacing"])
    reps = ineq.ims_residual(dom, cfg["ell_list"])
    return [report_row(r, scale=r.extras["ell"]) for r in reps]


def _run_dipole(cfg):
    rng = np.random.default_rng(cfg["seed"])
    xs = rng.uniform(-3.0, 3.0, size=(cfg["n_samples"], 3))
    rep = ineq.dipole_bound_check(cfg["R"], cfg["D"], xs)
    return [report_row(rep)]


def _run_yukawa(cfg):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for i in range(cfg["n_configs"]):
        N = int(rng.integers(1, 9))
        c = ineq.ChargeConfig(rng.uniform(-2, 2, (N, 3)), rng.uniform(-3, 3, N))
        for nu in cfg["nus"]:
            rows.append(report_row(ineq.coulomb_yukawa_bound(c, nu), config=str(i), scale=nu))
    return rows


# ---------------------------------------------------------------------------
# ssa subcommands


def _ssa_row(rep, config, n):
    row = report_row(rep, config=config, scale=n)
    for key, val in rep.extras.get("entropies", {}).items():
        row[f"s{key}"] = val
    return row


SSA_COLUMNS = REPORT_COLUMNS + ["s12", "s23", "s2", "s123"]


def _random_psd(rng, D, scale=1.0):
    """A random positive D x D matrix of trace scale."""
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    M = X @ X.conj().T
    return scale * M / np.trace(M).real


def _random_partition(rng, count, n, floor):
    """count random weights on n points with sum_i w_i^2 = 1 at each point."""
    raw = rng.random((count, n)) + floor
    return list(raw / np.sqrt((raw ** 2).sum(axis=0)))


def _run_ssa_quantum(cfg):
    n = cfg["modes"]
    space = fock.build_space(n, "fermion")
    states = []
    for path in cfg["state_files"]:
        # of several files, the message must say which one is bad
        try:
            with open(path) as fh:
                M = fock.array_from_json(fh.read())
            states.append(("file:" + path, fock.FockState(space, M)))
        except ValueError as exc:
            raise ValueError(f"{exc} (state file {path})") from None
    # one seeded stream draws every random state, then every weight set; a
    # second copy of it draws each state when it is used, and the first skips
    # the states' two (dim, dim) Gaussian arrays apiece
    rng, state_rng = np.random.default_rng(cfg["seed"]), np.random.default_rng(cfg["seed"])
    skipped = np.empty((space.dim, space.dim))
    for _ in range(2 * cfg["n_states"]):
        rng.standard_normal(out=skipped)
    randoms = (
        (f"random{trial}", fock.FockState(space, _random_psd(state_rng, space.dim), validate=False))
        for trial in range(cfg["n_states"])
    )
    rows = []
    for label, state in itertools.chain(states, randoms):
        weights = _random_partition(rng, cfg["n_weights"], n, 0.1)
        rows.append(_ssa_row(loc.ssa_gap(state, weights, [0], [1], [2]), label, n))
    return rows


def _run_ssa_cq(cfg):
    rng = np.random.default_rng(cfg["seed"])
    m, n, h = cfg["cells"], cfg["modes"], cfg["cell_volume"]
    if m < 1:
        raise ValueError(f"config.cells must be at least 1, got {m}")
    space = fock.build_space(n, "fermion")
    D = space.dim
    rows = []
    for trial in range(cfg["n_states"]):
        b0 = _random_psd(rng, D, 0.5)
        b1 = np.zeros((m, D, D), complex)
        for i in range(m):
            b1[i] = _random_psd(rng, D, 0.1 + 0.3 * rng.random())
        b2 = np.zeros((m, m, D, D), complex)
        for i in range(m):
            for j in range(i + 1, m):
                b2[i, j] = b2[j, i] = _random_psd(rng, D, 0.02 + 0.1 * rng.random())
        mass = (
            np.trace(b0).real
            + h * np.trace(b1, axis1=-2, axis2=-1).real.sum()
            + h * h / 2 * np.trace(b2, axis1=-2, axis2=-1).real.sum()
        )
        rho = loc.CQState(space, h, {0: b0 / mass, 1: b1 / mass, 2: b2 / mass})
        thetas = _random_partition(rng, 3, m, 0.2)
        qs = _random_partition(rng, 3, n, 0.2)
        rep = loc.cq_ssa_gap(rho, qs, thetas, [0], [1], [2])
        rows.append(_ssa_row(rep, f"cq{trial}", f"{m}x{n}"))
    return rows


# ---------------------------------------------------------------------------
# model subcommands


def _run_energy(cfg):
    dom = _domain_from(cfg)
    op = cb.coulomb_hamiltonian(
        dom, _nuclei_from(cfg), field=_field_from(cfg), n_max=cfg["n_max"], dim_cap=cfg["dim_cap"]
    )
    res = cb.ground_state_energy(op)
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
        dom, _nuclei_from(cfg), field=_field_from(cfg), n_max=cfg["n_max"], dim_cap=cfg["dim_cap"]
    )
    fe = cb.free_energy(op, cfg["beta"], cfg["mu"], dense_cap=cfg["dense_cap"])
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
        dom, _nuclei_from(cfg), mu=cfg["mu"], beta=cfg["beta"], field=_field_from(cfg)
    )
    rows = [
        {"quantity": "hf_energy", "sector": "", "value": res.energy},
        {"quantity": "hf_grand_value", "sector": "", "value": res.grand_value},
        {"quantity": "hf_particle_number", "sector": "", "value": res.gamma.trace},
        {"quantity": "hf_converged", "sector": "", "value": float(res.converged)},
    ]
    return rows, ["quantity", "sector", "value"], res.converged


def _run_scan_cmd(cfg):
    result = run_scan(ScanSpec(**cfg))
    rows = [r.output_fields() for r in result.rows]
    cols = list(rows[0].keys())
    ok = all(np.isfinite(r.energy_per_volume) or r.flags.startswith("skipped") for r in result.rows)
    return rows, cols, ok


def _run_compare(cfg):
    defects = [(d["position"], d["z"]) for d in cfg.pop("defects")]
    out = perturbation_compare(ScanSpec(**cfg), defects=defects)
    rows = out["rows"]
    for r in rows:
        r["trend_nonincreasing"] = out["trend_nonincreasing"]
    return rows, ["side", "e_periodic", "e_perturbed", "ratio", "trend_nonincreasing"], out[
        "trend_nonincreasing"
    ]


# ---------------------------------------------------------------------------
# subcommand -> (runner, key table); only the subcommands that draw random
# numbers take a seed

_CHARGE = {"position": (list[float], _REQUIRED), "z": (float, _REQUIRED)}
_POINTS = list[list[float]]

_VERIFY = {
    "lieb-yau": (_run_lieb_yau, {
        "configs": (list[{"electrons": (_POINTS, _REQUIRED), "nuclei": (_POINTS, _REQUIRED),
                          "z": (float, _REQUIRED), "baxter": (bool, False)}], None),
        "n_configs": (int, 1000), "seed": (int, 7), "n_max": (int, 8), "k_max": (int, 8),
        "z_max": (float, 3.0), "baxter": (bool, True),
    }),
    "graf-schenker": (_run_graf_schenker, {
        "configs": (list[{"points": (_POINTS, _REQUIRED), "charges": (list[float], _REQUIRED)}],
                    None),
        "n_configs": (int, 20), "seed": (int, 11), "samples": (int, 10000),
        "ell_list": (list[float], [4.0, 8.0, 16.0]),
    }),
    "lt": (_run_lt, {
        "side": (float, 4.0), "spacing": (float, 1.0),
        "site": (int, None),  # None: the middle site, n_sites // 2
        "depths": (list[float], [5.0, 10.0, 20.0]), "k_list": (list[int], [1, 2, 4, 8]),
    }),
    "li-yau": (_run_li_yau, {
        "cases": (list[{"lengths": (list[float], _REQUIRED),
                        "f": ({"kind": (str, _REQUIRED), "rate": (float, 1.0)}, {"kind": "exp"})}],
                  [{"lengths": [np.pi], "f": {"kind": "exp", "rate": 1.0}},
                   {"lengths": [1.0, 1.3, 0.8], "f": {"kind": "exp", "rate": 0.25}}]),
    }),
    "repelling": (_run_repelling, {
        "side": (float, 4.0), "spacing": (float, 1.0), "N_list": (list[int], [1, 2, 3]),
        "eps": (float, 0.5),
    }),
    "ims": (_run_ims, {
        "side": (float, 6.0), "spacing": (float, 1.0), "ell_list": (list[float], [4.0, 8.0, 16.0]),
    }),
    "dipole": (_run_dipole, {
        "seed": (int, 5), "n_samples": (int, 10000), "R": (list[float], [0.1, 0.0, 0.0]),
        "D": (list[float], [0.3, 0.2, -0.1]),
    }),
    "yukawa": (_run_yukawa, {
        "seed": (int, 3), "n_configs": (int, 100), "nus": (list[float], [0.5, 1.0, 2.0]),
    }),
}

_SSA = {
    "quantum": (_run_ssa_quantum, {
        "seed": (int, 21), "modes": (int, 6), "state_files": (list[str], []),
        "n_states": (int, 100), "n_weights": (int, 4),
    }),
    "cq": (_run_ssa_cq, {
        "seed": (int, 21), "cells": (int, 3), "modes": (int, 4), "cell_volume": (float, 0.5),
        "n_states": (int, 50),
    }),
}

# the model keys of energy, free-energy and hf: "domain" is the spec of
# geometry.build_domain plus its "spacing", "field" the arguments of one
# MagneticField constructor
_DOMAIN = ("shape", {
    "cube": {"side": (float, _REQUIRED), "spacing": (float, 1.0)},
    "ball": {"radius": (float, _REQUIRED), "center": (list[float], None), "spacing": (float, 1.0)},
    "custom": {"sites": (_POINTS, _REQUIRED), "label": (str, "custom"), "spacing": (float, 1.0)},
})
_FIELD = ("kind", {
    "constant": {"B": (list[float], _REQUIRED)},
    "periodic_sine": {"amplitude": (float, _REQUIRED), "period": (float, _REQUIRED)},
    "random": {"seed": (int, 0), "scale": (float, 1.0)},
})
_MODEL = {"domain": (_DOMAIN, _REQUIRED), "nuclei": (list[_CHARGE], []), "field": (_FIELD, None)}
# the many-body keys of energy and free-energy
_FOCK = {"n_max": (int, None), "dim_cap": (int, 16384)}

_SCAN = {name: (f.type, f.default) for name, f in ScanSpec.__dataclass_fields__.items()}

_COMMANDS = {
    "energy": (_run_energy, {**_MODEL, **_FOCK}),
    "free-energy": (_run_free_energy, {
        **_MODEL, **_FOCK, "dense_cap": (int, 4096), "beta": (float, _REQUIRED),
        "mu": (float, _REQUIRED),
    }),
    "hf": (_run_hf, {**_MODEL, "beta": (float, None), "mu": (float, 0.0)}),
    "scan": (_run_scan_cmd, _SCAN),
    "compare-perturbation": (_run_compare, {
        **{k: _SCAN[k] for k in ("sides", "spacing", "z", "n_max", "dim_cap")},
        "defects": (list[_CHARGE], []),
    }),
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", help="output path (stdout otherwise)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    p = argparse.ArgumentParser(prog="coulomblab")
    sub = p.add_subparsers(dest="command")
    v = sub.add_parser("verify", parents=[common])
    v.add_argument("which", choices=sorted(_VERIFY))
    s = sub.add_parser("ssa", parents=[common])
    s.add_argument("which", choices=tuple(_SSA))
    for seeded in (v, s):
        seeded.add_argument("--seed", type=int, help="override the run seed (seeded suites only)")
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return p


def cli_main(argv=None):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if extra:
        sys.stderr.write(f"error: unrecognized arguments: {' '.join(extra)}\n")
        return 2
    if not args.command:
        parser.print_usage()
        return 2
    try:
        if args.command == "verify":
            runner, keys = _VERIFY[args.which]
        elif args.command == "ssa":
            runner, keys = _SSA[args.which]
        else:
            runner, keys = _COMMANDS[args.command]
        cfg = _read_config(keys, _load_config(args))
        if args.command in ("verify", "ssa"):
            rows = runner(cfg)
            if not rows:
                raise ValueError("the config selects no checks: a count below 1 or an empty list")
            cols = REPORT_COLUMNS if args.command == "verify" else SSA_COLUMNS
            ok = all(r["passed"] for r in rows)
        else:
            rows, cols, ok = runner(cfg)
        emit(rows, cols, args)
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
