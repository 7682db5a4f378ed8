"""The three benchmark workloads, each a list of coulomblab CLI calls.

The workload seed picks one of VARIANTS parameter sets.  Variant 0 is the
default (seed 0); the others move the physical parameters (z, mu, defect
position) or the suites' own --seed inside small ranges, leaving every Fock
and sector dimension unchanged.  Because the set is finite, every variant has
a committed reference output (see reference/), so the outputs of any seed
are checked to the same tolerance.
"""

VARIANTS = 4

# Scale of z and shift of mu for each variant; 0 is the acceptance-test spec.
_Z_SCALE = (1.0, 0.9, 1.1, 0.95)
_MU_SHIFT = (0.0, 0.1, -0.1, 0.05)
_DEFECTS = (
    (0.65, 0.65, 0.65),
    (0.6, 0.65, 0.7),
    (0.7, 0.6, 0.65),
    (0.65, 0.7, 0.6),
)

# CLI default seeds of the seeded suites (cli._VERIFY and the ssa default).
_SUITE_SEEDS = {"graf-schenker": 11, "lieb-yau": 7, "ssa-quantum": 21, "ssa-cq": 21}

# Why each workload exists, and the predictions for the open items, are in
# BENCHMARK.json at the root of the repository.
NAMES = ("thermo-scan", "ground-build", "verify-suites")


def variant_of(seed):
    return seed % VARIANTS


def _scan_specs(v):
    zs, dm = _Z_SCALE[v], _MU_SHIFT[v]
    return {
        "crystal": {
            "model": "crystal", "sides": [2, 3, 4], "z": 0.5 * zs, "beta": 1.0,
            "mu": -4.0 + dm, "n_max": 2, "dense_cap": 4096,
        },
        "quantum-nuclei": {
            "model": "quantum-nuclei", "sides": [2, 3, 4], "z": 1.0 * zs, "beta": 1.0,
            "mu": [-1.0 + dm, -1.0 + dm], "n_max": 1, "nuc_max": 1, "dense_cap": 4096,
        },
        "movable": {
            "model": "movable", "sides": [2, 3, 4], "z": 2.0 * zs, "beta": 1.0,
            "mu": [-1.0 + dm, -2.0 + dm], "n_max": 1, "movable_k_max": 1,
        },
    }


def calls(name, seed):
    """[(call name, CLI argv without --out, config dict or None)] for a workload."""
    v = variant_of(seed)
    if name == "thermo-scan":
        return [(f"scan-{model}", ["scan"], spec) for model, spec in _scan_specs(v).items()]
    if name == "ground-build":
        z = 0.5 * _Z_SCALE[v]
        cfg = {
            "sides": [2, 3, 4, 5], "z": z,
            "defects": [{"position": list(_DEFECTS[v]), "z": z}],
        }
        return [("compare-perturbation", ["compare-perturbation"], cfg)]
    if name == "verify-suites":
        out = []
        for label, argv in (
            ("graf-schenker", ["verify", "graf-schenker"]),
            ("lieb-yau", ["verify", "lieb-yau"]),
            ("ims", ["verify", "ims"]),
            ("ssa-quantum", ["ssa", "quantum"]),
            ("ssa-cq", ["ssa", "cq"]),
        ):
            if v and label in _SUITE_SEEDS:
                argv = argv + ["--seed", str(_SUITE_SEEDS[label] + v)]
            out.append((label, argv, None))
        return out
    raise KeyError(name)
