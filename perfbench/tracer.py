"""Outside tracer: timing wrappers around coulomblab's public functions,
installed from the benchmark's own files without editing the package.

Each wrapped call records a span [name, start, end, parent, run id] in
memory.  Counts are derived only from the arguments and return values of
public functions, never from the package's private state, so two traced runs
of the same inputs give identical counts.
"""

import functools
import sys
import time
import weakref

# Public functions timed, by module.  Functions that other modules imported
# with `from ... import` are rebound in every namespace that holds them.
WRAPPED = {
    "fock": (
        "build_space", "ladder", "second_quantize_onebody", "second_quantize_twobody", "entropy",
    ),
    "coulomb": (
        "coulomb_hamiltonian", "two_species_hamiltonian", "ground_state_energy",
        "free_energy", "movable_nuclei_energy", "classical_nuclei_free_energy",
    ),
    "geometry": ("tile_weight_table",),
    "inequalities": ("graf_schenker_deficit", "lieb_yau_suite", "ims_residual"),
    "localization": (
        "localization_isometry", "localize_positive_operator", "ssa_gap", "cq_ssa_gap",
    ),
    "scan": ("run_scan", "perturbation_compare"),
    "cli": ("emit",),
}
# Methods patched on their class: (module, class, method).
WRAPPED_METHODS = (("geometry", "Tiling", "locate"),)

MODULES = ("fock", "coulomb", "geometry", "inequalities", "localization", "scan", "cli")
ROOT = "cli.cli_main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = {}
        self.run_id = 0
        self._stack = []
        self._ladder_keys = weakref.WeakKeyDictionary()

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every function in WRAPPED and rebind each namespace of the
        package that holds the original object."""
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "coulomblab"]
        for mod_name, names in WRAPPED.items():
            module = sys.modules[f"coulomblab.{mod_name}"]
            for fname in names:
                original = getattr(module, fname)
                traced = self.wrap(f"{mod_name}.{fname}", original)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, attr, traced)
        for mod_name, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"coulomblab.{mod_name}"], cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))


# -- counts from arguments and return values --------------------------------


def _ladder(tr, args, out):
    space, mode, kind = args[:3]
    keys = tr._ladder_keys.setdefault(space, set())
    if (mode, kind) in keys:
        tr.add("fock.ladder.hits", 1)
    else:
        keys.add((mode, kind))
        tr.add("fock.ladder.nnz", int(out.nnz))


def _build_space(tr, args, out):
    tr.add("fock.build_space.dim_sum", int(out.dim))


def _dense(tr, dim):
    tr.add("coulomb.dense_eig.n", 1)
    tr.add("coulomb.dense_eig.dim3_sum", dim ** 3)
    tr.add("coulomb.dense_eig.bytes", 8 * dim ** 2)
    tr.maximum("coulomb.sector_dim.max", dim)


def _ground_state_energy(tr, args, out):
    for info in out.method.values():
        if info["solver"] == "dense":
            _dense(tr, int(info["dim"]))
        else:
            tr.add("coulomb.lanczos.n", 1)
            tr.maximum("coulomb.lanczos.residual_max", float(info["residual"]))
            tr.maximum("coulomb.sector_dim.max", int(info["dim"]))


def _free_energy(tr, args, out):
    for eigs in out.sector_eigs.values():
        _dense(tr, len(eigs))


def _locate(tr, args, out):
    tr.add("geometry.Tiling.locate.points", int(out.shape[0]))


_OBSERVERS = {
    "fock.ladder": _ladder,
    "fock.build_space": _build_space,
    "coulomb.ground_state_energy": _ground_state_energy,
    "coulomb.free_energy": _free_energy,
    "geometry.Tiling.locate": _locate,
}


# -- summary ----------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus what its child spans cover.
    Calls are single-threaded, so children nest and never overlap."""
    own = [end - start for _name, start, end, _parent, _run in spans]
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts):
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    own = self_times(spans)
    total, self_s, calls = {}, {}, {}
    for (name, start, end, _parent, _run), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    out = {}

    def t(name, key):
        out[f"{name}.{key}"] = ({"s": total, "self_s": self_s}[key].get(name, 0.0), "s")

    def c(name):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")

    for mod in MODULES:
        share = sum((v for k, v in self_s.items() if k.split(".")[0] == mod), 0.0)
        out[f"{mod}.self_s"] = (share, "s")
    t("fock.ladder", "s")
    c("fock.ladder")
    out["fock.ladder.nnz"] = (counts.get("fock.ladder.nnz", 0), "count")
    n_ladder = calls.get("fock.ladder", 0)
    hits = counts.get("fock.ladder.hits", 0)
    out["fock.ladder.hit_ratio"] = (hits / n_ladder if n_ladder else 0.0, "ratio")
    t("fock.second_quantize_onebody", "self_s")
    t("fock.second_quantize_twobody", "s")
    t("fock.build_space", "s")
    out["fock.build_space.dim_sum"] = (counts.get("fock.build_space.dim_sum", 0), "count")
    t("fock.entropy", "s")
    for fname in WRAPPED["coulomb"]:
        t(f"coulomb.{fname}", "s")
        t(f"coulomb.{fname}", "self_s")
        c(f"coulomb.{fname}")
    for key, unit in (
        ("coulomb.dense_eig.n", "count"),
        ("coulomb.dense_eig.dim3_sum", "count"),
        ("coulomb.dense_eig.bytes", "B"),
        ("coulomb.lanczos.n", "count"),
        ("coulomb.lanczos.residual_max", "norm"),
        ("coulomb.sector_dim.max", "count"),
    ):
        out[key] = (counts.get(key, 0), unit)
    t("geometry.Tiling.locate", "s")
    c("geometry.Tiling.locate")
    out["geometry.Tiling.locate.points"] = (counts.get("geometry.Tiling.locate.points", 0), "count")
    t("geometry.tile_weight_table", "s")
    for fname in WRAPPED["inequalities"]:
        t(f"inequalities.{fname}", "s")
        t(f"inequalities.{fname}", "self_s")
    for fname in WRAPPED["localization"]:
        t(f"localization.{fname}", "s")
        t(f"localization.{fname}", "self_s")
        c(f"localization.{fname}")
    n_loc = calls.get("localization.localize_positive_operator", 0)
    n_iso = calls.get("localization.localization_isometry", 0)
    out["localization.isometry_per_localize"] = (n_iso / n_loc if n_loc else 0.0, "ratio")
    t("scan.run_scan", "self_s")
    t("scan.perturbation_compare", "self_s")
    t("cli.emit", "s")
    return out
