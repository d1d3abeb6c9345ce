import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import pwlcycles
from pwlcycles import (
    Point, cycles, find_limit_cycles, hypotheses, oracle, portrait, render, sample_orbit)
from pwlcycles.cli import main
from pwlcycles.oracle import segments_to_csv

EXP_M_075PI = 0.09478022484215486

# the README sine n=2 sampled at quarter-integer nodes (h, h' given), exact zeros at 1 and 2
_AMP, _SLOPE = 1.5 / (1.5625 * math.pi), 1.5 / 1.5625
TABLE_CFG = {"gamma": 0.75, "boundary": {"family": "table", "params": {"samples": [
    [i / 4, 0.0 if i % 4 == 0 else _AMP * math.sin(math.pi * i / 4),
     _SLOPE * math.cos(math.pi * i / 4)] for i in range(11)]}}}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_sine_passes(self, capsys):
        code, out, _ = run(capsys, ["check", "--gamma", "0.75", "--family", "sine",
                                    "--n", "2", "--range", "0.1", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["violations"] == []

    def test_sine_out_of_range_rejected_at_construction(self, capsys):
        code, _, err = run(capsys, ["check", "--gamma", "0.8", "--family", "sine",
                                    "--n", "2", "--range", "0.1", "4"])
        assert code == 1
        assert "sine family requires" in err

    def test_oscillatory_alpha_gate(self, capsys):
        code, _, _ = run(capsys, ["check", "--gamma", "1", "--family", "oscillatory",
                                  "--alpha", "0.36", "--range", "0.01", "1"])
        assert code == 0
        code, _, err = run(capsys, ["check", "--gamma", "1", "--family", "oscillatory",
                                    "--alpha", "0.4", "--range", "0.01", "1"])
        assert code == 1
        assert "oscillatory family requires" in err

    def test_forced_table_shape_reflects_grid_verdict(self, capsys, tmp_path):
        # sine-like shape at a rate outside the closed-form range: build it
        # as a table so construction passes, then let the grid check decide
        gamma = 0.9
        amp = 2 * gamma / ((gamma * gamma + 1) * math.pi)
        slope = 2 * gamma / (gamma * gamma + 1)
        samples = []
        y = 0.0
        while y <= 4.0001:
            samples.append([y, amp * math.sin(math.pi * y), slope * math.cos(math.pi * y)])
            y += 0.02
        cfg = {"gamma": gamma, "boundary": {"family": "table", "params": {"samples": samples}},
               "range": [0.1, 3.9]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, ["check", "--config", str(path)])
        report = json.loads(out)
        assert code == (0 if report["passed"] else 2)
        assert code == 2  # this shape violates the crossing margins near y=2/3
        assert report["violations"]


class TestCycles:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["cycles", "--gamma", "0.75", "--family", "sine",
                                    "--n", "3", "--range", "0.1", "5", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert [row["stability"] for row in rows] == ["unstable", "stable", "unstable"]
        assert float(rows[0]["y_star"]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_family_continuum(self, capsys):
        code, out, err = run(capsys, ["cycles", "--gamma", "0.75", "--family", "zero",
                                      "--range", "0.1", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["continuum"] is True and payload["cycles"] == []
        assert "continuum" in err

    def test_oscillatory_family_aware_path(self, capsys):
        code, out, _ = run(capsys, ["cycles", "--gamma", "1", "--family", "oscillatory",
                                    "--alpha", "0.3", "--kmax", "4"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cycles"]) == 4
        got = [c["y_star"] for c in payload["cycles"]]
        expected = sorted(1.0 / (k * math.pi) for k in range(1, 5))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_config_with_flag_override(self, capsys, tmp_path):
        cfg = {"gamma": 0.75, "boundary": {"family": "sine", "params": {"n": 2}},
               "range": [0.1, 5.0], "format": "csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, ["cycles", "--config", str(path),
                                    "--family", "sine", "--n", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3  # the flag n=3 beats the config n=2

    def test_family_flag_naming_the_config_family_keeps_its_params(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(TABLE_CFG))
        argv = ["cycles", "--config", str(path), "--range", "0.1", "2.4"]
        code, plain, _ = run(capsys, argv)
        assert code == 0
        code, flagged, err = run(capsys, argv + ["--family", "table"])
        assert code == 0, err
        assert flagged == plain
        assert [c["y_star"] for c in json.loads(flagged)["cycles"]] == pytest.approx([1.0, 2.0])

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "cycles.json"
        code, out, _ = run(capsys, ["cycles", "--gamma", "0.75", "--family", "sine",
                                    "--n", "1", "--range", "0.1", "3", "--out", str(dest)])
        assert code == 0 and out == ""
        assert len(json.loads(dest.read_text())["cycles"]) == 1


class TestDisplacement:
    def test_zero_family_columns_vanish(self, capsys):
        code, out, _ = run(capsys, ["displacement", "--gamma", "0.75", "--family", "zero",
                                    "--range", "0.5", "2", "--points", "8"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for row in rows:
            assert float(row["f_analytic"]) == 0.0
            assert abs(float(row["f_numeric"])) < 1e-8

    def test_sine_scan_sign_and_accuracy(self, capsys, sine_system):
        code, out, _ = run(capsys, ["displacement", "--gamma", "0.75", "--family", "sine",
                                    "--n", "2", "--range", "0.15", "3.9", "--points", "16"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            h = float(sine_system.boundary.evaluate(float(row["y"])))
            f = float(row["f_analytic"])
            assert math.copysign(1.0, f) == math.copysign(1.0, h)
            assert float(row["abs_diff"]) < 1e-6


class TestVerify:
    def test_sine_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--gamma", "0.75", "--family", "sine",
                                    "--n", "2", "--range", "0.1", "4", "--points", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["cycles"]) == 2
        for rec in payload["cycles"]:
            assert rec["oracle"] == rec["classified"]
            assert rec["sigma_crossings"] == 1

    def test_broken_step_fails(self, capsys):
        code, out, _ = run(capsys, ["verify", "--gamma", "0.75", "--family", "sine",
                                    "--n", "2", "--range", "0.1", "4", "--points", "10",
                                    "--step", "0.1"])
        assert code == 3
        payload = json.loads(out)
        assert payload["discrepancies"]

    def test_step_no_leg_can_take_is_a_usage_error(self, capsys, monkeypatch):
        # refused before any work, with no numpy warning (the plan's product overflowed)
        monkeypatch.setattr(oracle, "_plan", lambda *a: pytest.fail("a plan was built"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify", "--gamma", "0.75", "--family", "sine",
                                          "--n", "2", "--range", "0.1", "4", "--step", "1e80"])
        assert code == 1 and out == ""
        assert err == f"error: step must be at most {0.5 * oracle.MAX_TIME!r}, got 1e+80\n"

    @pytest.mark.parametrize("flag, config", [("nan", None), ("inf", None), ("0", None),
                                              ("-1", None), (None, "nan")])
    def test_tol_must_be_finite_and_positive(self, capsys, tmp_path, monkeypatch, flag, config):
        # every "> tol" comparison is false for a nan tol, so it would hide discrepancies
        for name in ("return_map", "resolve_stability", "numeric_displacement"):
            monkeypatch.setattr(oracle, name, lambda *a, **k: pytest.fail("oracle ran"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SINE_CFG if config is None else {**SINE_CFG, "tol": config}))
        argv = ["verify", "--config", str(path)] + ([] if flag is None else [f"--tol={flag}"])
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "tol must be finite and > 0" in err


class TestPortrait:
    def test_calls_in_one_process_do_not_share_options(self, tmp_path, monkeypatch):
        # the parser is built once per process; each parse starts from its defaults
        from pwlcycles import cli
        seeds = []
        monkeypatch.setattr(portrait, "sample_orbit",
                            lambda system, seed, turns: seeds.append(seed) or [])
        argv = ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                "--range", "0.1", "4", "--out", str(tmp_path / "p.svg")]
        for given, expected in ((["--seed", "0,2.2", "--seed", "0,0.4"],
                                 [Point(0.0, 2.2), Point(0.0, 0.4)]),
                                ([], []), (["--seed", "0,1.5"], [Point(0.0, 1.5)])):
            seeds.clear()
            assert main(argv + given) == 0
            assert seeds == expected
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("given, config", [
        (["--seed", "-0.5,1"], {"seeds": [[-0.5, 1]]}),
        (["--window", "-1e-1", "1e-1", "-1e-1", "1e-1", "--seed", "0,0.05"],
         {"window": [-0.1, 0.1, -0.1, 0.1], "seeds": ["0,0.05"]}),
    ], ids=["seed", "window"])
    def test_negative_values_parse_as_through_config(self, capsys, tmp_path, given, config):
        # a value that starts with "-" and is not a plain decimal is a value, not a flag
        argv = ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                "--range", "0.1", "4", "--turns", "1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outputs = []
        for extra in (given, ["--config", str(cfg)]):
            svg, dump = tmp_path / f"{len(outputs)}.svg", tmp_path / f"{len(outputs)}.csv"
            code, _, err = run(capsys, argv + extra + ["--out", str(svg), "--csv", str(dump)])
            assert code == 0, err
            outputs.append((svg.read_bytes(), dump.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_writes_deterministic_svg(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                "--range", "0.1", "4", "--seed", "0,2.2", "--turns", "2"]
        assert run(capsys, argv + ["--out", str(a)])[0] == 0
        assert run(capsys, argv + ["--out", str(b)])[0] == 0
        content = a.read_text()
        assert content == b.read_text()
        assert content.startswith("<svg")

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2"])
        assert err.value.code == 1

    def test_csv_companion(self, capsys, tmp_path):
        svg, dump = tmp_path / "p.svg", tmp_path / "orbit.csv"
        code, _, _ = run(capsys, ["portrait", "--gamma", "0.75", "--family", "zero",
                                  "--range", "0.1", "3", "--seed", "0,1", "--turns", "1",
                                  "--out", str(svg), "--csv", str(dump)])
        assert code == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,zone"
        assert len(lines) > 100

    def test_orbits_sampled_once_for_svg_and_csv(self, capsys, tmp_path, monkeypatch,
                                                 sine_system):
        seeds = [Point(0.0, 2.2), Point(0.0, 0.5)]
        calls = []

        def counting(system, seed, turns, *args, **kwargs):
            calls.append(seed)
            return sample_orbit(system, seed, turns, *args, **kwargs)

        monkeypatch.setattr(portrait, "sample_orbit", counting)
        svg, dump = tmp_path / "p.svg", tmp_path / "p.csv"
        code, _, _ = run(capsys, ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                                  "--range", "0.1", "4", "--window", "-2.6", "2.6", "-2.6", "2.6",
                                  "--seed", "0,2.2", "--seed", "0,0.5", "--turns", "2",
                                  "--out", str(svg), "--csv", str(dump)])
        assert code == 0
        assert calls == seeds
        monkeypatch.undo()
        # the same bytes as rendering and exporting with separate sampling
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        segments = [seg for seed in seeds for seg in sample_orbit(sine_system, seed, 2)]
        assert svg.read_bytes() == render(sine_system, (-2.6, 2.6, -2.6, 2.6),
                                          cycles, segments).encode()
        assert dump.read_bytes() == segments_to_csv(segments).encode()

    def test_no_cycles_draws_none_in_the_cycle_window(self, capsys, tmp_path, sine_system):
        svg = tmp_path / "p.svg"
        code, _, _ = run(capsys, ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                                  "--range", "0.1", "4", "--seed", "0,2.2", "--turns", "1",
                                  "--no-cycles", "--out", str(svg)])
        assert code == 0
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        window = portrait.default_window(cycles)
        assert window != portrait.default_window([])
        segments = sample_orbit(sine_system, Point(0.0, 2.2), 1)
        assert svg.read_bytes() == render(sine_system, window, [], segments).encode()


def test_table_runs_without_scipy(tmp_path):
    # scipy is only a test reference: with every scipy import made to fail, a
    # table still fills a missing slope, evaluates, and runs cycles and verify
    src = str(pathlib.Path(pwlcycles.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "from pwlcycles import make_table",
        "from pwlcycles.cli import main",
        "b = make_table([(0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.2)])",
        "assert type(b.evaluate(0.5)) is float and b.derivative(np.linspace(0, 2, 5)).shape == (5,)",
        "for command in ('cycles', 'verify'):",
        "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0, command",
        "print('ok')",
    ])
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps({**TABLE_CFG, "range": [0.1, 2.4]}))
    done = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_underspecified_system(self, capsys):
        code, _, err = run(capsys, ["cycles", "--gamma", "0.75", "--range", "0.1", "1"])
        assert code == 1
        assert "underspecified" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, ["cycles", "--config", "/nonexistent/cfg.json"])
        assert code == 1

    def test_hypothesis_violation_exit_code(self, capsys, tmp_path):
        # linear boundary close to the cone edge: construction-legal but
        # the certificate fails on the range
        samples = [[0.0, 0.0, 1.4], [4.0, 5.6, 1.4]]
        cfg = {"gamma": 0.75, "boundary": {"family": "table", "params": {"samples": samples}},
               "range": [0.1, 3.9]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, ["cycles", "--config", str(path)])
        assert code == 2
        assert "violation" in err


SINE_CFG = {"gamma": 0.75, "boundary": {"family": "sine", "params": {"n": 2}}, "range": [0.1, 4]}
OSC_CFG = {"gamma": 1, "boundary": {"family": "oscillatory", "params": {"alpha": 0.3}}}
OSC_CYCLES = ["cycles", "--gamma", "1", "--family", "oscillatory", "--alpha", "0.3"]
PORTRAIT = ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2", "--range", "0.1", "4"]


@pytest.mark.parametrize("argv, cfg", [
    (PORTRAIT + ["--seed", "0"], None),
    (PORTRAIT + ["--seed", "a,b"], None),
    (["displacement"], {**SINE_CFG, "step": "abc"}),
    (["check"], {"gamma": 0.75, "range": [0.1, 1],
                 "boundary": {"family": "table", "params": {"samples": [[0, 0], [1]]}}}),
    (["check"], {"gamma": 0.75, "boundary": {"family": "table", "params": {"samples": 5}}}),
    (["check"], {"gamma": 0.75, "boundary": {"family": "sine", "params": 5}}),
    (["check", "--family", "sine"], {"gamma": 0.75, "boundary": 5}),
    (["displacement", "--points", "-1"], SINE_CFG),
    (OSC_CYCLES + ["--kmax", "-2"], None),
    (OSC_CYCLES + ["--kmax", "0"], None),
    (["displacement", "--gamma", "1", "--family", "oscillatory", "--alpha", "0.3",
      "--range", "1e-310", "1", "--points", "2"], None),
    (PORTRAIT + ["--turns", "0"], None),
    (["displacement", "--points", "0", "--step", "0"], SINE_CFG),
    (["displacement", "--points", "0", "--step", "1e-13"], SINE_CFG),
    (["displacement", "--points", "0", "--step", "1e-6"], SINE_CFG),
    (["displacement"], {**SINE_CFG, "step": None}),
    (["displacement"], {**SINE_CFG, "points": None}),
    (["verify"], {**SINE_CFG, "tol": None}),
    (["portrait"], {**SINE_CFG, "turns": None}),
    (["check"], {**SINE_CFG, "grid-points": None}),
    (["cycles"], {**OSC_CFG, "kmax": 2.7}),
    (["displacement"], {**SINE_CFG, "points": 3.9}),
    (["displacement", "--points", "2"], {**SINE_CFG, "step": True}),
    (["cycles"], {**SINE_CFG, "format": "xml"}),
], ids=["seed-one-number", "seed-not-numbers", "config-step-text", "table-short-sample",
        "table-samples-not-list", "params-not-object", "family-flag-boundary-not-object",
        "negative-points", "kmax-negative", "kmax-zero", "oscillatory-y-below-1-over-dbl-max",
        "portrait-turns-zero", "step-zero", "step-below-event-tol", "step-below-min-step",
        "config-step-null", "config-points-null", "config-tol-null", "config-turns-null",
        "config-grid-points-null", "config-kmax-fraction", "config-points-fraction",
        "config-step-bool", "config-format-unknown"])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, cfg):
    argv = argv + ["--out", str(tmp_path / "out")]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert "np.float64" not in err


def test_config_option_with_a_whole_float_value_is_accepted(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SINE_CFG, "points": 4.0, "step": 1e-3}))
    code, out, err = run(capsys, ["displacement", "--config", str(path)])
    assert code == 0, err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 4


@pytest.mark.parametrize("argv, cfg", [
    (["verify", "--points", "-1"], {}),
    (["verify", "--kmax", "0"], {}),
    (["portrait", "--turns", "0"], {}),
    (["portrait", "--seed", "a,b"], {}),
    (["portrait"], {"seeds": [[0, 1, 2]]}),
    (["portrait"], {"turns": 1.5}),
    (["portrait"], {"window": [0, 1]}),
    (["cycles"], {"format": "xml"}),
    (["portrait", "--seed", "0,0"], {}),
    (["portrait", "--window", "1", "0", "-1", "1"], {}),
], ids=["verify-points-negative", "verify-kmax-zero", "portrait-turns-zero",
        "portrait-seed-not-numbers", "portrait-seed-three-numbers", "portrait-turns-fraction",
        "portrait-window-two-numbers", "cycles-format-unknown", "portrait-seed-origin",
        "portrait-window-degenerate"])
def test_options_are_checked_before_any_work(capsys, tmp_path, monkeypatch, argv, cfg):
    for module, name in ((cycles, "find_limit_cycles"), (hypotheses, "check_boundary_hypotheses"),
                         (portrait, "sample_orbit"), (oracle, "return_map"),
                         (oracle, "resolve_stability"), (oracle, "numeric_displacement")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work began"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SINE_CFG, **cfg}))
    code, out, err = run(capsys, argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1 and out == ""
    assert "error:" in err and "Traceback" not in err
