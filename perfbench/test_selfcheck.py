"""Self-tests of the benchmark harness (not part of the package's tests).

Run from the root of the repository: python3 -m pytest -q perfbench
"""

import json
import os
import time

import check
import run
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF = os.path.join(run.REFERENCE, "thermo-scan", "v0", "scan-crystal.csv")

# Small calls that reach every traced module: fock, coulomb, scan, cli,
# geometry (Tiling.locate), inequalities and localization.
SMALL_CALLS = [
    ["scan", "--config", None],
    ["verify", "graf-schenker", "--config", None],
    ["ssa", "quantum", "--config", None],
]
SMALL_CONFIGS = [
    {"model": "crystal", "sides": [2, 3], "z": 0.5, "mu": -4.0, "n_max": 1},
    {"n_configs": 2, "samples": 500, "ell_list": [4.0, 8.0]},
    {"n_states": 2, "modes": 4},
]


def _reference():
    with open(REF) as fh:
        return fh.read()


def _set_field(text, row, col, value):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][lines[0].index(col)] = value
    return "\n".join(",".join(f) for f in lines) + "\n"


def test_reference_matches_itself_and_within_tolerance():
    ref = _reference()
    assert check.problems(ref, ref) == []
    energy = float(ref.splitlines()[2].split(",")[2])
    assert check.problems(_set_field(ref, 2, "energy", repr(energy * (1 + 1e-12))), ref) == []


def test_corrupted_output_is_reported():
    ref = _reference()
    energy = float(ref.splitlines()[2].split(",")[2])
    assert check.problems(_set_field(ref, 2, "energy", repr(energy * (1 + 1e-6))), ref)
    assert check.problems(_set_field(ref, 1, "flags", ""), ref)
    assert check.problems(ref + "5,1.0,1.0,1.0,1.0,1.0,1.0,1.0,\n", ref)
    assert check.problems(_set_field(ref, 2, "delta_e", "nan"), ref)


def test_false_verdict_is_reported():
    text = "check,passed\nx,true\n"
    assert check.problems(text, text) == []
    assert check.problems("check,passed\nx,false\n", "check,passed\nx,false\n")


class _FakeRunner:
    """Stands in for run.Runner: writes a given output and exit code."""

    def __init__(self, work, text, code):
        self.work, self.n, self.text, self.code = str(work), 0, text, code

    def child(self, calls, trace=False):
        self.n += 1
        out = calls[0][calls[0].index("--out") + 1]
        with open(out, "w") as fh:
            fh.write(self.text)
        return {"codes": [self.code]}


def test_corrupted_output_counts_as_failed(tmp_path):
    ref = _reference()
    ref_dir = os.path.dirname(REF)
    calls = [("scan-crystal", ["scan"])]
    bad = _set_field(ref, 3, "free_energy", "1.0")
    for text, code, n_failed in ((ref, 0, 0), (bad, 0, 1), (ref, 1, 1)):
        runner = _FakeRunner(tmp_path / f"{code}-{len(text)}", text, code)
        os.makedirs(runner.work)
        _res, _digest, failures = run._iteration(runner, calls, False, ref_dir)
        assert len(failures) == n_failed


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    m = tracer.layer_metrics(
        [["fock.ladder", 0.0, 2.0, -1, 0], ["fock.ladder", 2.0, 3.0, -1, 0]],
        {"fock.ladder.hits": 1},
    )
    assert m["fock.ladder.s"] == (3.0, "s")
    assert m["fock.ladder.hit_ratio"] == (0.5, "ratio")


def _traced_counts(tmp_path, label):
    work = tmp_path / label
    os.makedirs(work)
    runner = run.Runner(ROOT, str(work), dict(os.environ), time.monotonic() + 120)
    calls = []
    for i, (argv, cfg) in enumerate(zip(SMALL_CALLS, SMALL_CONFIGS)):
        path = work / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        argv = [str(path) if a is None else a for a in argv]
        calls.append(argv + ["--out", str(work / f"{i}.csv")])
    res = runner.child(calls, trace=True)
    assert res is not None and res["codes"] == [0, 0, 0]
    metrics = tracer.layer_metrics(res["spans"], res["counts"])
    counts = {k: v for k, (v, unit) in metrics.items() if unit not in ("s", "norm")}
    spans = res["spans"]
    edges = {(name, spans[parent][0]) for name, _s, _e, parent, _r in spans if parent >= 0}
    return counts, edges


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, edges = _traced_counts(tmp_path, "a")
    assert first == _traced_counts(tmp_path, "b")[0]
    # names bound by `from ... import` are traced too (cli.run_scan,
    # localization.ladder), and Tiling.locate is patched on the class
    assert ("scan.run_scan", "cli.cli_main") in edges
    assert ("fock.ladder", "localization.localization_isometry") in edges
    assert ("geometry.Tiling.locate", "inequalities.graf_schenker_deficit") in edges
    for key in (
        "fock.ladder.calls", "fock.ladder.nnz", "coulomb.dense_eig.n",
        "geometry.Tiling.locate.points", "localization.localization_isometry.calls",
    ):
        assert first[key] > 0, key
    assert first["localization.isometry_per_localize"] == 1.0
