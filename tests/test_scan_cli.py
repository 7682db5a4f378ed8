import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import coulomblab
from coulomblab import cli
from coulomblab import coulomb as cb
from coulomblab import fock
from coulomblab import localization as loc
from coulomblab.cli import _COMMANDS, _SSA, _VERIFY, _read_config, cli_main
from coulomblab.scan import (
    ScanSpec,
    _candidate_positions,
    _cube,
    _estimate_dim,
    perturbation_compare,
    run_scan,
)


class TestScanSpec:
    def test_sides_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ScanSpec(sides=(3, 3))

    def test_sides_must_not_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ScanSpec(sides=())

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ScanSpec(model="continuum")

    def test_reader_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown keys \['turbo'\]"):
            _read_config(_COMMANDS["scan"][1], {"model": "crystal", "turbo": True})

    def test_reader_fills_defaults_and_never_converts(self):
        cfg = _read_config(_COMMANDS["scan"][1], {"sides": [2, 3], "z": 1, "mu": [-1, -2]})
        assert ScanSpec(**cfg) == ScanSpec(sides=(2, 3), z=1, mu=[-1, -2])
        assert type(cfg["z"]) is int and cfg["mu"] == [-1, -2]
        for bad in ({"n_max": True}, {"n_max": 2.0}, {"z": "1"}, {"mu": [1, "x"]}):
            with pytest.raises(ValueError, match="must be"):
                _read_config(_COMMANDS["scan"][1], bad)


class TestRunScan:
    def test_crystal_rows_and_floor(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, beta=1.0, mu=-4.0, n_max=1)
        res = run_scan(spec)
        assert len(res.rows) == 2
        assert all(np.isfinite(r.energy_per_volume) for r in res.rows)
        assert np.isfinite(res.floors["energy_per_volume"])
        assert np.isfinite(res.floors["f_per_volume"])
        assert res.floor_variation() >= 0.0
        assert np.isnan(res.rows[0].delta_e) and np.isfinite(res.rows[1].delta_e)

    def test_movable_kmax_zero_is_vacuum(self):
        spec = ScanSpec(
            model="movable", sides=(2, 3), z=2.0, mu=(-1.0, -2.0), n_max=0, movable_k_max=0
        )
        res = run_scan(spec)
        assert all(r.energy == 0.0 for r in res.rows)

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_movable_energy_matches_zero_temperature_search(self, n_max):
        spec = ScanSpec(model="movable", sides=(2, 3), z=2.0, mu=(-1.0, -2.0), n_max=n_max)
        res = run_scan(spec)
        for row in res.rows:
            dom = _cube(row.side, spec.spacing)
            ref = cb.movable_nuclei_energy(
                dom, spec.z, _candidate_positions(dom, spec.candidates_per_side),
                K_max=spec.movable_k_max, n_max=n_max, dim_cap=spec.dim_cap,
            )[0].value
            assert row.energy == pytest.approx(ref, rel=0, abs=1e-12)

    def test_quantum_nuclei_bounded(self):
        spec = ScanSpec(
            model="quantum-nuclei", sides=(2, 3), z=1.0, beta=1.0, mu=(-1.0, -1.0),
            n_max=1, nuc_max=1,
        )
        res = run_scan(spec)
        assert all(np.isfinite(r.f_per_volume) for r in res.rows)
        assert res.floors["f_per_volume"] > -10.0

    def test_estimated_dimension_matches_built(self):
        dom = _cube(2, 1.0)
        spec = ScanSpec(model="crystal", n_max=2)
        op = cb.coulomb_hamiltonian(dom, cb.NucleiConfig([]), n_max=spec.n_max)
        assert _estimate_dim("crystal", dom.n_sites, spec) == op.dim
        # the largest block, (1, 2) of 8 x 36 states, exceeds both species spaces (9, 45)
        spec = ScanSpec(model="quantum-nuclei", n_max=1, nuc_max=2, mu=(-1.0, -1.0))
        op = cb.two_species_hamiltonian(dom, 1.0, 100.0, el_max=1, nuc_max=2)
        largest = max(idx.size for idx in op.sectors.values())
        assert _estimate_dim("quantum-nuclei", dom.n_sites, spec) == largest == 288
        spec = ScanSpec(model="movable", n_max=3, mu=(-1.0, -2.0))
        electrons = cb._Electrons(dom, None, 3, 16384)
        assert _estimate_dim("movable", dom.n_sites, spec) == electrons.space.dim

    def test_budget_gate_flags_rows(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), n_max=2, dim_cap=10)
        res = run_scan(spec)
        assert all(r.flags == "skipped:dim_cap" for r in res.rows)

    def test_output_fields_exclude_timing(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, mu=-4.0, n_max=1)
        res = run_scan(spec)
        assert "seconds" not in res.rows[0].output_fields()


class TestPerturbationCompare:
    def test_empty_perturbation_zero_difference(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, n_max=1)
        out = perturbation_compare(spec)
        assert all(r["ratio"] == 0.0 for r in out["rows"])
        assert out["trend_nonincreasing"]

    def test_single_defect_ratio_decreases(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, n_max=1)
        out = perturbation_compare(spec, defects=[((0.65, 0.65, 0.65), 0.5)])
        ratios = [r["ratio"] for r in out["rows"]]
        assert ratios[0] > 0.0
        assert out["trend_nonincreasing"]

    def test_perturbed_energy_matches_fresh_build(self):
        spec = ScanSpec(model="crystal", sides=(2, 3), z=0.5, n_max=2)
        defects = [((0.65, 0.65, 0.65), 0.5)]
        out = perturbation_compare(spec, defects=defects)
        for row in out["rows"]:
            domain = _cube(row["side"], spec.spacing)
            pert = cb.NucleiConfig.from_lattice(domain, spec.z, defects)
            op = cb.coulomb_hamiltonian(domain, pert, n_max=spec.n_max, dim_cap=spec.dim_cap)
            e = cb.ground_state_energy(op).value
            assert abs(row["e_perturbed"] - e) < 1e-12


# an energy config; free-energy adds beta and mu, hf takes no n_max
MODEL_CONFIG = {
    "domain": {"shape": "cube", "side": 2.0, "spacing": 1.0},
    "nuclei": [{"position": [0.4, 0.4, 0.4], "z": 2.0}],
    "n_max": 2,
}
HF_CONFIG = {
    "domain": MODEL_CONFIG["domain"], "nuclei": MODEL_CONFIG["nuclei"], "beta": 1.0, "mu": 0.0,
}
MODEL_CONFIGS = {
    "energy": MODEL_CONFIG,
    "free-energy": {**MODEL_CONFIG, "beta": 1.0, "mu": 0.0},
    "hf": HF_CONFIG,
}

# the maximally mixed state on three fermion modes (dim 8), in the state-file
# layout the README documents
MIXED = [repr(x) for x in (np.eye(8) / 8).ravel().tolist()]
STATE_DOC = {
    "name": "mixed", "shape": [8, 8], "dtype": "float", "order": "row-major", "data": MIXED,
}
BAD_STATE_DOCS = {
    "top-level-array": [STATE_DOC],
    "shape-not-a-list": {**STATE_DOC, "shape": 3},
    "negative-shape": {**STATE_DOC, "shape": [-1, 8]},
    "bool-shape": {**STATE_DOC, "shape": [True, 8]},
    "unknown-dtype": {**STATE_DOC, "dtype": "int"},
    "data-not-a-list": {**STATE_DOC, "data": 5},
    "nested-list-in-data": {**STATE_DOC, "data": [["0.125"]] + MIXED[1:]},
    "number-not-a-string": {**STATE_DOC, "data": [0.125] + MIXED[1:]},
    "pair-of-numbers": {
        **STATE_DOC, "dtype": "complex", "data": [[0.125, 0.0]] + [[x, "0.0"] for x in MIXED[1:]],
    },
    "nan-entry": {**STATE_DOC, "data": ["nan"] + MIXED[1:]},
}


def _nonfinite_keys(value, key=None):
    """The keys under which a config holds a NaN or infinite number."""
    if isinstance(value, dict):
        return [k for name, v in value.items() for k in _nonfinite_keys(v, name)]
    if isinstance(value, list):
        return [k for v in value for k in _nonfinite_keys(v, key)]
    return [key] if isinstance(value, float) and not np.isfinite(value) else []


def _write_state_file(path, doc=STATE_DOC):
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["energy", "--config", str(bad)]) == 2

    def test_model_subcommands(self, tmp_path, capsys):
        for cmd, model in MODEL_CONFIGS.items():
            cfg = tmp_path / f"{cmd}.json"
            cfg.write_text(json.dumps(model))
            out = tmp_path / f"{cmd}.csv"
            assert cli_main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            assert out.read_text().startswith("quantity,")

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # two matrix-vector products cannot converge on the dim-8 and dim-28 sectors
        monkeypatch.setattr(cb, "_LANCZOS_MATVECS", 2)
        monkeypatch.setattr(cb, "_LANCZOS_FROM", 2)  # Lanczos above dim 2
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(MODEL_CONFIG))
        out = tmp_path / "energy.csv"
        assert cli_main(["energy", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: iterative eigensolver failed on dim ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_defective_lift_exits_3(self, tmp_path, capsys, monkeypatch):
        real = fock.permutation_lift

        def halved_sign(space, sigma):
            perm, sign = real(space, sigma)
            return perm, 0.5 * sign

        monkeypatch.setattr(fock, "permutation_lift", halved_sign)
        cfg = tmp_path / "scan.json"
        # the side-3 N = 2 sector (351) is split by the coordinate swaps
        cfg.write_text(json.dumps({"model": "crystal", "sides": [3], "z": 0.5, "n_max": 2}))
        out = tmp_path / "scan.csv"
        assert cli_main(["scan", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error: reflection lift is not a signed permutation of sector dim 351"
        )
        assert "Traceback" not in err
        assert not out.exists()

    def test_energy_requires_config(self, capsys):
        assert cli_main(["energy"]) == 2

    def test_verify_lieb_yau_batch_config(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                {
                    "configs": [
                        {"electrons": [[0, 0, 0]], "nuclei": [[0, 0, 2.0]], "z": 1.5},
                        {
                            "electrons": [[0, 0, 0], [1, 0, 0]],
                            "nuclei": [[0.5, 0.5, 0.5]],
                            "z": 2.0,
                        },
                    ]
                }
            )
        )
        out = tmp_path / "gaps.csv"
        assert cli_main(["verify", "lieb-yau", "--config", str(batch), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("check,")
        assert len(lines) == 3

    def test_verify_graf_schenker_explicit_configs(self, tmp_path, capsys):
        from coulomblab import inequalities as ineq
        from coulomblab.cli import REPORT_COLUMNS, report_row, rows_to_csv

        configs = [
            {"points": [[0, 0, 0], [1.0, 0, 0]], "charges": [1.0, 1.0]},
            {"points": [[0.3, 0.1, -0.2]], "charges": [2.0]},
            {"points": [[0, 0, 0], [0.5, 0.2, 0], [-0.3, 0.4, 0.6]], "charges": [1.0, 2.0, 1.5]},
        ]
        cfg = tmp_path / "gs.json"
        cfg.write_text(json.dumps({"configs": configs, "ell_list": [4.0, 8.0], "samples": 300}))
        out = tmp_path / "gs.csv"
        code = cli_main(["verify", "graf-schenker", "--config", str(cfg), "--out", str(out)])
        # config i is sampled at the default seed 11 plus 7 i
        rows = []
        for i, c in enumerate(configs):
            charge_cfg = ineq.ChargeConfig(c["points"], c["charges"])
            reps = ineq.graf_schenker_deficit(charge_cfg, [4.0, 8.0], samples=300, seed=11 + 7 * i)
            rows += [report_row(r, config=str(i), scale=r.extras["ell"]) for r in reps]
        assert out.read_text() == rows_to_csv(rows, REPORT_COLUMNS)
        assert len(rows) == 6 and code == 0

    def test_verify_graf_schenker_nan_point_exits_2(self, tmp_path, capsys):
        # Python's json writes and reads NaN; the reader names the coordinate
        # (Tiling.locate's own NaN error is checked in test_geometry)
        cfg = tmp_path / "gs.json"
        nan_point = [[0, 0, 0], [0.5, float("nan"), 0.1]]
        cfg.write_text(json.dumps({"configs": [{"points": nan_point, "charges": [1.0, 1.0]}]}))
        out = tmp_path / "gs.csv"
        assert cli_main(["verify", "graf-schenker", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.configs[0].points[1][1] must be a finite number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "which, bad",
        [
            ("graf-schenker", {"ell_list": []}),
            ("graf-schenker", {"samples": 0}),
            ("graf-schenker", {"configs": [{"points": [[0, 0, 0]], "charges": [1.0]}], "ell_list": []}),
            ("ims", {"ell_list": []}),
            ("ims", {"ell_list": [0.0]}),
            ("ims", {"ell_list": [-4.0]}),
        ],
    )
    def test_verify_empty_scales_or_samples_exit_2(self, tmp_path, capsys, which, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "bad.csv"
        assert cli_main(["verify", which, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    # bad scales and sample counts are the cases of the test above
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["verify", "graf-schenker"], {"samples": 50.0}),
            (["verify", "graf-schenker"], {"n_configs": "2"}),
            (
                ["verify", "graf-schenker"],
                {"configs": [{"points": [[0, 0, 0], [1, 0, 0]], "charges": [0.0, 0.0]}], "samples": 50},
            ),
            (["verify", "graf-schenker"], {"ell_list": ["4"]}),
            (["verify", "dipole"], {"n_samples": 10.5}),
            (["scan"], {"sides": []}),
            (["verify", "lieb-yau"], {"n_configs": -1}),
            (["verify", "yukawa"], {"n_configs": True}),
            (["scan"], {"sides": [2.5]}),
            (["ssa", "quantum"], {"n_modes": 4}),
            (["ssa", "quantum"], {"n_weights": 2, "n_states": 1, "modes": 3}),
            (["compare-perturbation"], {"sides": [2], "turbo": 1}),
            (["verify", "lt"], {"site": 99}),
            (["verify", "lt"], {"k_list": [65]}),
            (["verify", "dipole"], {"n_samples": 0}),
            (["verify", "li-yau"], {"cases": [{"lengths": [1.0], "f": {"kind": "gauss"}}]}),
            (["verify", "ims", "--seed", "3"], None),
            (["scan", "--seed", "3"], None),
            (["energy"], {**MODEL_CONFIG, "domain": {"shape": "cube", "side": 2.0, "radius": 9}}),
            (["energy"], {**MODEL_CONFIG, "field": {"kind": "random", "sclae": 5.0}}),
            (["energy"], {**MODEL_CONFIG, "domain": {"shape": "cube", "side": "2"}}),
            (["energy"], {**MODEL_CONFIG, "field": {"kind": "constant"}}),
            # one coordinate would be broadcast to all three
            (
                ["energy"],
                {**MODEL_CONFIG, "domain": {"shape": "ball", "radius": 1.0, "center": [0.5]}},
            ),
            # keys of another model subcommand, which this one would ignore
            (["energy"], {**MODEL_CONFIG, "beta": 3.0, "mu": 1.0}),
            (["hf"], {**HF_CONFIG, "n_max": 1, "dim_cap": 5, "dense_cap": 1}),
            (["scan"], {"sides": [2], "budget": 10}),
            # dense_cap bounds densified blocks only: no lowest eigenvalue reads it
            (["energy"], {**MODEL_CONFIG, "dense_cap": 2048}),
            (["compare-perturbation"], {"sides": [2], "n_max": 1, "dense_cap": 4096}),
            # json writes and reads NaN and Infinity; the error names the key
            (["free-energy"], {**MODEL_CONFIGS["free-energy"], "beta": float("nan")}),
            (["free-energy"], {**MODEL_CONFIGS["free-energy"], "mu": float("nan")}),
            (["free-energy"], {**MODEL_CONFIGS["free-energy"], "beta": float("inf")}),
            (["scan"], {"sides": [2], "n_max": 1, "beta": float("nan")}),
            (["hf"], {**HF_CONFIG, "mu": float("inf")}),
            (
                ["energy"],
                {**MODEL_CONFIG, "nuclei": [{"position": [0.4, float("nan"), 0.4], "z": 2.0}]},
            ),
            (["scan"], {"sides": [2], "n_max": 1, "z": float("nan")}),
            (["compare-perturbation"], {"sides": [2], "n_max": 1, "z": float("nan")}),
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, argv, bad):
        if bad is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(bad))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "bad.csv"
        assert cli_main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for key in _nonfinite_keys(bad):
            assert f".{key}" in err and "must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, bad, message",
        [
            (["hf"], {**HF_CONFIG, "beta": 0}, "beta must be positive"),
            (["hf"], {**HF_CONFIG, "beta": -1.0}, "beta must be positive"),
            (["verify", "yukawa"], {"n_configs": 2, "nus": [-1.0]}, "nu must be nonnegative"),
            (
                ["verify", "li-yau"],
                {"cases": [{"lengths": [-1.0], "f": {"kind": "exp"}}]},
                "box lengths must be positive",
            ),
            (["ssa", "cq"], {"cells": 0, "n_states": 1}, "cells must be at least 1"),
            (["energy"], {**MODEL_CONFIG, "n_max": -1}, "n_max must be nonnegative, got -1"),
            (["scan"], {"sides": [2], "n_max": -1}, "n_max must be nonnegative, got -1"),
            (
                ["scan"],
                {"model": "quantum-nuclei", "sides": [2], "n_max": 1, "mu": [-1.0, -1.0],
                 "nuc_mass": 0},
                "mass M must be positive, got 0",
            ),
            (
                ["hf"],
                {**HF_CONFIG, "field": {"kind": "periodic_sine", "amplitude": 1.0, "period": 0}},
                "period must be nonzero, got 0",
            ),
            (["ssa", "cq"], {"cell_volume": -0.5, "n_states": 1}, "cell_volume must be positive"),
            (["ssa", "cq"], {"cell_volume": 0.0, "n_states": 1}, "cell_volume must be positive"),
            (
                ["scan"],
                {"sides": [2], "n_max": 1, "z": -1.0},
                "nuclear charges must be nonnegative, got -1.0",
            ),
            (
                ["compare-perturbation"],
                {"sides": [2], "n_max": 1, "z": -1.0},
                "nuclear charges must be nonnegative, got -1.0",
            ),
            (
                ["scan"],
                {"model": "movable", "sides": [2], "n_max": 1, "mu": [-1.0, -2.0],
                 "candidates_per_side": 0},
                "candidates_per_side must be at least 1, got 0",
            ),
            (
                ["scan"],
                {"model": "movable", "sides": [2], "n_max": 1, "mu": [-1.0, -2.0],
                 "movable_k_max": -1},
                "movable_k_max must be at least 0, got -1",
            ),
            (
                ["scan"],
                {"model": "quantum-nuclei", "sides": [2], "n_max": 1, "mu": [-1.0, -1.0],
                 "nuc_max": -1},
                "nuc_max must be at least 0, got -1",
            ),
            (["verify", "repelling"], {"N_list": [-1]}, "N_list entries must be nonnegative, got -1"),
            (
                ["energy"],
                {**MODEL_CONFIG, "domain": {"shape": "custom", "sites": [[0, 0, 0], [2 ** 20, 0, 0]]}},
                "site coordinate outside [-2^20, 2^20)",
            ),
        ],
        ids=["hf-beta-0", "hf-beta-negative", "yukawa-nu-negative", "li-yau-length-negative",
             "cq-no-cells", "energy-n_max-negative", "scan-n_max-negative", "quantum-nuclei-mass-0",
             "hf-sine-period-0", "cq-cell-volume-negative", "cq-cell-volume-0",
             "scan-z-negative", "compare-z-negative", "movable-candidates-0",
             "movable-kmax-negative", "quantum-nuclei-nuc_max-negative",
             "repelling-N-negative", "custom-site-out-of-range"],
    )
    def test_out_of_range_exits_2(self, tmp_path, capsys, argv, bad, message):
        # exit 1 means a paper inequality failed; a bad input is exit 2
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "bad.csv"
        assert cli_main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_lieb_yau_baxter_rows_take_suite_bounds(self):
        from coulomblab import inequalities as ineq
        from coulomblab.cli import report_row

        run, keys = _VERIFY["lieb-yau"]
        rows = run(_read_config(keys, {"n_configs": 30, "seed": 4, "n_max": 1, "k_max": 1}))
        baxter = ineq.lieb_yau_suite(30, seed=4, n_max=1, k_max=1, baxter=True)
        assert rows[30:] == [report_row(r, config=str(i)) for i, r in enumerate(baxter)]
        assert all(row["check"] == "baxter" for row in rows[30:])

    def test_verify_dipole_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["verify", "dipole", "--out", str(out1)]) == 0
        assert cli_main(["verify", "dipole", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_li_yau_json_format(self, tmp_path, capsys):
        out = tmp_path / "liyau.json"
        assert cli_main(["verify", "li-yau", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert all(r["passed"] for r in rows)

    def test_verify_yukawa_small(self, tmp_path, capsys):
        cfg = tmp_path / "yk.json"
        cfg.write_text(json.dumps({"n_configs": 10}))
        out = tmp_path / "yk.csv"
        assert cli_main(["verify", "yukawa", "--config", str(cfg), "--out", str(out)]) == 0

    def test_verify_repelling_size_guard_exits_2(self, tmp_path, capsys):
        # 125 sites, N = 3: the bosonic space up to N has 341 376 states
        cfg = tmp_path / "rep.json"
        cfg.write_text(json.dumps({"side": 5.0, "N_list": [3]}))
        assert cli_main(["verify", "repelling", "--config", str(cfg)]) == 2
        assert "exceeds cap 65536" in capsys.readouterr().err

    def test_verify_lt(self, tmp_path, capsys):
        out = tmp_path / "lt.csv"
        assert cli_main(["verify", "lt", "--out", str(out)]) == 0

    def test_scan_subcommand_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "scan.json"
        cfg.write_text(
            json.dumps(
                {"model": "movable", "sides": [2, 3], "z": 2.0, "mu": [-1.0, -2.0], "n_max": 1}
            )
        )
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["scan", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_perturbation(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(
            json.dumps(
                {
                    "sides": [2, 3],
                    "z": 0.5,
                    "n_max": 1,
                    "defects": [{"position": [0.65, 0.65, 0.65], "z": 0.5}],
                }
            )
        )
        out = tmp_path / "cmp.csv"
        assert cli_main(["compare-perturbation", "--config", str(cfg), "--out", str(out)]) == 0

    def test_ssa_quantum_small(self, tmp_path, capsys):
        cfg = tmp_path / "ssa.json"
        cfg.write_text(json.dumps({"n_states": 3, "modes": 4}))
        assert cli_main(["ssa", "quantum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("name", sorted(BAD_STATE_DOCS))
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, name):
        state = _write_state_file(tmp_path / "state.json", BAD_STATE_DOCS[name])
        cfg = tmp_path / "ssa.json"
        cfg.write_text(json.dumps({"state_files": [state], "n_states": 0, "modes": 3}))
        out = tmp_path / "ssa.csv"
        assert cli_main(["ssa", "quantum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: array ") and "Traceback" not in err
        assert state in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (BAD_STATE_DOCS["nan-entry"], "error: array data must be finite"),
            ({**STATE_DOC, "data": ["0.5"] + MIXED[1:]}, "error: state trace differs from one"),
        ],
        ids=["bad-array", "bad-state"],
    )
    def test_malformed_second_state_file_is_named(self, tmp_path, capsys, doc, message):
        good = _write_state_file(tmp_path / "good.json")
        bad = _write_state_file(tmp_path / "bad.json", doc)
        cfg = tmp_path / "ssa.json"
        cfg.write_text(json.dumps({"state_files": [good, bad], "n_states": 0, "modes": 3}))
        out = tmp_path / "ssa.csv"
        assert cli_main(["ssa", "quantum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert bad in err and good not in err
        assert not out.exists()

    def test_ssa_cq_small(self, tmp_path, capsys):
        cfg = tmp_path / "cq.json"
        cfg.write_text(json.dumps({"n_states": 2, "modes": 3, "cells": 2}))
        assert cli_main(["ssa", "cq", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = tmp_path / "yk.json"
        cfg.write_text(json.dumps({"n_configs": 5}))
        out1, out2 = tmp_path / "y1.csv", tmp_path / "y2.csv"
        assert cli_main(["verify", "yukawa", "--config", str(cfg), "--out", str(out1)]) == 0
        assert (
            cli_main(
                ["verify", "yukawa", "--config", str(cfg), "--seed", "99", "--out", str(out2)]
            )
            == 0
        )
        assert out1.read_bytes() != out2.read_bytes()


def states_first_ssa_quantum(cfg):
    """ssa quantum's rows as computed with every state held: the file
    states, then every random state from the seeded stream, then the weights
    of each state from the same stream.  The oracle of the states drawn as
    they are used."""
    rng = np.random.default_rng(cfg["seed"])
    space = fock.build_space(cfg["modes"], "fermion")
    states = []
    for path in cfg["state_files"]:
        with open(path) as fh:
            states.append(("file:" + path, fock.FockState(space, fock.array_from_json(fh.read()))))
    for trial in range(cfg["n_states"]):
        M = cli._random_psd(rng, space.dim)
        states.append((f"random{trial}", fock.FockState(space, M, validate=False)))
    rows = []
    for label, state in states:
        weights = cli._random_partition(rng, cfg["n_weights"], cfg["modes"], 0.1)
        rep = loc.ssa_gap(state, weights, [0], [1], [2])
        rows.append(cli._ssa_row(rep, label, cfg["modes"]))
    return rows


class TestSsaQuantumDraws:
    @pytest.mark.parametrize("with_file", [False, True])
    def test_rows_match_states_drawn_first(self, tmp_path, with_file):
        files = [_write_state_file(tmp_path / "mixed.json")] if with_file else []
        cfg = _read_config(
            _SSA["quantum"][1], {"modes": 3, "n_states": 6, "seed": 5, "state_files": files}
        )
        rows = cli._run_ssa_quantum(cfg)
        assert len(rows) == 6 + len(files)
        assert rows == states_first_ssa_quantum(cfg)


class TestDefaultRunMemory:
    """tracemalloc peaks of default CLI runs, each bound about 1.5 times the
    peak measured when the guard was set (numpy 2.4, Python 3.11)."""

    def traced_peak(self, argv, tmp_path):
        tracemalloc.start()
        try:
            assert cli_main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_graf_schenker(self, tmp_path):
        # measured 3.3 MiB: the motions of one scale (0.9 MiB) and one
        # 2048-sample block of pull-backs and keys; 10.5 MiB when every
        # sample's keys and pair matrix were held at once
        assert self.traced_peak(["verify", "graf-schenker"], tmp_path) < 5 * 2 ** 20

    def test_ssa_quantum(self, tmp_path):
        # measured 1.1 MiB with each random state drawn when it is used;
        # 7.3 MiB when all 100 (64 x 64 complex) states were held first
        assert self.traced_peak(["ssa", "quantum"], tmp_path) < 1.75 * 2 ** 20


class _ReadKeys(dict):
    """A config that records which of its keys are read.  It overrides
    __iter__, so ScanSpec(**cfg) reads each key through __getitem__."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def pop(self, key, *default):
        self.read.add(key)
        return super().pop(key, *default)

    def __iter__(self):
        return super().__iter__()


def _recording_spec(built, read):
    """A ScanSpec to stand in for cli.ScanSpec: each instance joins built
    once its __post_init__ is done, and from then on the names of the fields
    read from it join read."""

    class Recorded(ScanSpec):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

        def __getattribute__(self, name):
            if name in ScanSpec.__dataclass_fields__ and any(s is self for s in built):
                read.add(name)
            return super().__getattribute__(name)

    return Recorded


RUNNERS = {**_VERIFY, **_SSA, **_COMMANDS}
# a small valid scan config of each model: some keys only one model reads
SCAN_CONFIGS = [
    {"sides": [2], "n_max": 1},
    {"model": "quantum-nuclei", "sides": [2], "n_max": 1, "nuc_max": 1, "mu": [-1.0, -1.0]},
    {"model": "movable", "sides": [2], "n_max": 1, "mu": [-1.0, -2.0]},
]
# a small valid config of each subcommand
SMALL_CONFIGS = {
    "lieb-yau": {"n_configs": 2, "n_max": 2, "k_max": 2},
    "graf-schenker": {"n_configs": 1, "samples": 50, "ell_list": [4.0]},
    "lt": {"side": 2.0, "depths": [5.0], "k_list": [1]},
    "li-yau": {},
    "repelling": {"side": 2.0, "N_list": [1]},
    "ims": {"side": 2.0, "ell_list": [4.0]},
    "dipole": {"n_samples": 10},
    "yukawa": {"n_configs": 2},
    "quantum": {"n_states": 1, "modes": 4},
    "cq": {"n_states": 1, "modes": 3, "cells": 2},
    **MODEL_CONFIGS,
    "scan": SCAN_CONFIGS[0],
    "compare-perturbation": {"sides": [2], "n_max": 1},
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_reads_every_declared_key(name, monkeypatch):
    # a declared key that its runner never reads would be a silent knob.
    # ScanSpec(**cfg) reads every key it is passed, so those count only when
    # the run reads their ScanSpec field; scan counts the reads of all models
    assert len(RUNNERS) == len(_VERIFY) + len(_SSA) + len(_COMMANDS)
    run, keys = RUNNERS[name]
    read = set()
    for small in SCAN_CONFIGS if name == "scan" else [SMALL_CONFIGS[name]]:
        built, fields_read = [], set()
        monkeypatch.setattr(cli, "ScanSpec", _recording_spec(built, fields_read))
        cfg = _ReadKeys(_read_config(keys, small))
        run(cfg)
        if built:
            read |= cfg.read - set(ScanSpec.__dataclass_fields__) | fields_read & set(cfg)
        else:
            read |= cfg.read
    assert read == set(keys)


def test_readme_config_examples_pass_their_readers():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")) as fh:
        section = fh.read().split("### Config examples")[1].split("\n## ")[0]
    examples = [json.loads(part.split("```")[0]) for part in section.split("```json\n")[1:]]
    documented = [
        [_COMMANDS["free-energy"]],
        [_COMMANDS["scan"]],
        [_VERIFY["lieb-yau"]],
        [_VERIFY["graf-schenker"]],
    ]
    assert len(examples) == len(documented)
    for cfg, subcommands in zip(examples, documented):
        for _run, keys in subcommands:
            _read_config(keys, cfg)


def _loaded_after_cli_import(modules):
    """Which of modules a fresh `import coulomblab.cli` has loaded."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"import sys, coulomblab.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_quadrature_and_kd_trees_out():
    # scipy.integrate and scipy.spatial are imported only where they are used
    assert _loaded_after_cli_import(("scipy.integrate", "scipy.spatial")) == "[]"


def test_cli_import_leaves_dense_linalg_and_special_functions_out():
    # the Lanczos kernel and logsumexp are numpy; schur is imported where used
    modules = ("scipy.sparse.linalg", "scipy.linalg", "scipy.special")
    assert _loaded_after_cli_import(modules) == "[]"



# Public names no CLI runner reaches, each with the reason it stays public:
# invariants an acceptance criterion or a test checks but no CLI row reports,
# the Part I regularity geometry, and paths too rare for a small config.
UNREACHED_ALLOWED = {
    "coulomb.EigensolverError": "raised only when an iterative sector solve fails (exit 3)",
    "coulomb.ground_state_vector": "the ground-state vectors of the density tests",
    "coulomb.variational_free_energy": "the variational bound, minimized by the Gibbs state",
    "coulomb.charge_concavity_scan": "acceptance criterion 8",
    "coulomb.movable_nuclei_energy": "acceptance criterion 8, the movable scan's oracle",
    "fock.ReducedDensity": "what reduced_density returns",
    "fock.reduced_density": "acceptance criterion 5 and the Wick and density tests",
    "fock.permutation_lift": "runs only on split sectors, dimension >= 300",
    "fock.entropy": "the dense entropy oracle of the SSA and variational tests",
    "fock.split_isomorphism": "acceptance criteria 2 and 5, the tensor-factor isomorphism",
    "fock.quasi_free_state": "acceptance criterion 5",
    "geometry.RegularityProfile": "what regularity_profile returns",
    "geometry.ConeCheckResult": "what cone_check returns",
    "geometry.cone_check": "Part I regularity diagnostic, not a CLI column yet",
    "geometry.regularity_profile": "Part I regularity diagnostic, not a CLI column yet",
    "inequalities.smooth_gs_check": "the mollified Graf-Schenker check, not a CLI row yet",
    "inequalities.w_kernel_quadrature_error": "quadrature check of the kernel W verify yukawa uses",
    "inequalities.peierls_gap": "acceptance criterion 7",
    "inequalities.diamagnetic_gap": "acceptance criterion 7",
    "localization.localization_isometry": "acceptance criterion 5",
    "localization.localize_positive_operator": "acceptance criterion 5",
    "localization.cq_entropy": "acceptance criterion 4",
    "localization.cq_localize": "the per-set oracle of cq_ssa_gap's one-pass entropies",
    "localization.quantize_cq": "acceptance criterion 4",
    "localization.QuantizeResult": "what quantize_cq returns",
}


# Public methods and properties of exported classes that no CLI runner
# reaches, each with the reason it stays.
MEMBERS_ALLOWED = {
    "coulomb.FreeEnergyResult.gibbs_matrix": "the Gibbs state, the variational bound's minimizer",
    "fock.FockSpaceDesc.vacuum_index": "the doubled vacuum of localization_isometry",
    "geometry.Domain.boundary_sites": "Part I regularity diagnostic (cone_check)",
    "geometry.Domain.boundary_points": "Part I regularity diagnostic (regularity_profile)",
    "geometry.Domain.diameter": "Part I regularity diagnostic (regularity_profile)",
    "localization.LocalizationWeight.zero": "q of an empty index set; no CLI set is empty",
    "localization.QuantizeResult.corrected_entropy": "acceptance criterion 4",
    "scan.ScanResult.running_floors": "acceptance criterion 9",
    "scan.ScanResult.floor_variation": "acceptance criterion 9",
}


# Defaulted parameters of public functions and methods that no call in the
# package passes, each with the reason it stays settable.
PARAMS_ALLOWED = {
    "coulomb.MagneticField.random_bounded.scale": "set through the CLI's **f of a random field",
    "coulomb.two_species_hamiltonian.field": "the periodic field of the two-species model, "
    "which its field tests set and no scan config reaches yet",
    "coulomb.charge_concavity_scan.n_max": "acceptance criterion 8",
    "coulomb.movable_nuclei_energy.K_max": "acceptance criterion 8, the movable scan's oracle",
    "coulomb.movable_nuclei_energy.n_max": "acceptance criterion 8, the movable scan's oracle",
    "coulomb.movable_nuclei_energy.dim_cap": "the movable scan's oracle takes the scan's cap",
    "fock.reduced_density.k": "acceptance criterion 5 and the Wick tests read k = 1 and 2",
    "geometry.regularity_profile.seed": "Part I regularity diagnostic, not a CLI column yet",
    "inequalities.smooth_gs_check.r_j": "the mollified Graf-Schenker check, not a CLI row yet",
    "inequalities.smooth_gs_check.samples": "the mollified Graf-Schenker check, not a CLI row yet",
    "inequalities.smooth_gs_check.seed": "the mollified Graf-Schenker check, not a CLI row yet",
    "inequalities.ims_residual.field": "the IMS residual in a field; verify ims has no field key",
    "inequalities.diamagnetic_gap.mass_scale": "the one library path to kinetic_operator's "
    "mass scale",
    "localization.CQState.__init__.norm_tol": "criterion 4 builds unnormalized states (None)",
    "localization.cq_localize.k_max": "the truncated localization of the cq tests",
    "localization.quantize_cq.dim_cap": "the size guard of quantize_cq, set by its test",
    "scan.ScanResult.floor_variation.which": "acceptance criterion 9 reads both floors",
}


def _package_calls():
    """(callee name, ast.Call) of every call in the package: the name a call
    is written with, and a cls(...) call the name of its class."""
    calls = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.append((owner if name == "cls" else name, node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    src = os.path.dirname(coulomblab.__file__)
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                visit(ast.parse(fh.read()), None)
    return calls


def _passes(call, name, index):
    """Whether call passes parameter name (positional index, or None): by
    keyword, through a ** mapping, or by position before any *args."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    return index is not None and len(positional) == len(call.args) and len(call.args) > index


def test_every_defaulted_parameter_is_passed_or_allowed():
    # each __all__ function, and __init__ and each public method of each
    # __all__ class, matched with the calls written with its name
    calls = _package_calls()
    unpassed = []
    for module in coulomblab.__all__:
        mod = importlib.import_module(f"coulomblab.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            targets = [(f"{module}.{name}", name, obj)]
            if isinstance(obj, type):
                targets = [
                    (f"{module}.{name}.{attr}", name if attr == "__init__" else attr, member)
                    for attr, member in vars(obj).items()
                    if attr == "__init__" or not attr.startswith("_")
                ]
            for qual, callee, member in targets:
                for attr in ("fget", "func", "__func__"):  # property, cached_property, classmethod
                    member = getattr(member, attr, member)
                if not inspect.isfunction(member):
                    continue
                sig = [p for p in inspect.signature(member).parameters.values()
                       if p.name not in ("self", "cls")]
                for index, p in enumerate(sig):
                    if p.default is inspect.Parameter.empty:
                        continue
                    if p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
                        index = None
                    if not any(n == callee and _passes(c, p.name, index) for n, c in calls):
                        unpassed.append(f"{qual}.{p.name}")
    assert [p for p in unpassed if p not in PARAMS_ALLOWED] == []
    assert sorted(set(PARAMS_ALLOWED) - set(unpassed)) == []



def _member_code(member):
    """The code object a call of a class member runs, or None for a member
    that is not a method or property."""
    for attr in ("fget", "func", "__func__"):  # property, cached_property, classmethod
        member = getattr(member, attr, member)
    return getattr(member, "__code__", None)


def test_every_public_name_is_reached_or_allowed(tmp_path):
    # every runner on its small config, plus the paths those configs leave out
    runs = [(name, SMALL_CONFIGS[name]) for name in sorted(RUNNERS)] + [
        ("quantum", {"state_files": [_write_state_file(tmp_path / "mixed.json")],
                     "n_states": 0, "modes": 3}),
        *[("scan", cfg) for cfg in SCAN_CONFIGS[1:]],
        ("energy", {**MODEL_CONFIG, "field": {"kind": "constant", "B": [0.0, 0.0, 0.5]}}),
        ("energy", {**MODEL_CONFIG, "field": {"kind": "periodic_sine", "amplitude": 1.0,
                                              "period": 4.0}}),
        ("hf", {**HF_CONFIG, "field": {"kind": "random", "seed": 3}}),
        ("lieb-yau", {"configs": [{"electrons": [[0, 0, 0]], "nuclei": [[0, 0, 2.0]], "z": 1.5}]}),
    ]
    codes, types = set(), set()

    def profile(frame, event, arg):
        # a class is reached when one of its methods runs on an instance
        if event == "call":
            codes.add(frame.f_code)
            types.add(type(frame.f_locals.get("self")))

    jobs = [(RUNNERS[name][0], _read_config(RUNNERS[name][1], cfg)) for name, cfg in runs]
    # module-level caches filled by earlier tests would hide their functions
    for module in coulomblab.__all__:
        for obj in vars(importlib.import_module(f"coulomblab.{module}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.setprofile(profile)
    try:
        for run, cfg in jobs:
            run(cfg)
    finally:
        sys.setprofile(None)
    public, unreached = set(), []
    members, unreached_members = set(), []
    for module in coulomblab.__all__:
        mod = importlib.import_module(f"coulomblab.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            public.add(f"{module}.{name}")
            reached = obj in types if isinstance(obj, type) else obj.__code__ in codes
            if not reached:
                unreached.append(f"{module}.{name}")
            if not isinstance(obj, type):
                continue
            for attr, member in vars(obj).items():
                code = _member_code(member)
                if attr.startswith("_") or code is None:
                    continue
                members.add(f"{module}.{name}.{attr}")
                if code not in codes:
                    unreached_members.append(f"{module}.{name}.{attr}")
    assert [n for n in unreached if n not in UNREACHED_ALLOWED] == []
    assert sorted(set(UNREACHED_ALLOWED) - public) == []
    assert [m for m in unreached_members if m not in MEMBERS_ALLOWED] == []
    assert sorted(set(MEMBERS_ALLOWED) - members) == []
