import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import numpy as np

import dotgates
from dotgates.cli import (
    _CSV_BLOCK_ROWS,
    _SCAN_BYTES,
    _format_rows,
    _write_csv,
    _write_trajectories,
    main,
    round_floats,
)
from dotgates.config import ConfigError, build_config
from dotgates.dynamics import IntegratorConfig, Trajectory, accumulated_phase
from dotgates.gates import run_cphase
from dotgates.operators import Basis

RUNNER = CliRunner()


def _invoke(args):
    return RUNNER.invoke(main, args, catch_exceptions=False)


def _text(result):
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


def test_round_floats_normalizes_nested_values():
    obj = {"a": 0.1234567890123456, "b": [1.0, {"c": 2e-300}], "d": "s",
           "e": 7, "f": None, "g": True}
    out = round_floats(obj)
    assert out["a"] == float("%.12g" % 0.1234567890123456)
    assert out["b"][1]["c"] == 2e-300
    assert out["d"] == "s" and out["e"] == 7 and out["f"] is None
    assert out["g"] is True
    # idempotent: rounding an already-rounded tree changes nothing
    assert round_floats(out) == out


def test_cphase_writes_report_and_trajectories(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["cphase", "--out", str(out)])
    assert result.exit_code == 0, _text(result)
    assert "wrote" in result.output
    names = sorted(p.name for p in out.iterdir())
    assert names == ["report.json", "traj_00.csv", "traj_01.csv",
                     "traj_10.csv", "traj_11.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "cphase"
    assert report["fidelity"] == pytest.approx(0.994363760415689, abs=1e-9)
    assert report["theta"] == pytest.approx(-2.849673475814201, abs=1e-9)
    assert report["pulse"]["shape"] == "square"
    assert report["warnings"] == []


def test_cphase_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = _invoke(["cphase", "--out", str(out)])
        assert result.exit_code == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "traj_11.csv").read_bytes() == (b / "traj_11.csv").read_bytes()


def test_cphase_trajectory_csv_columns(tmp_path):
    out = tmp_path / "run"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    header, rows = _read_csv(out / "traj_11.csv")
    assert header[0] == "t_ps"
    assert "re_11" in header and "im_11" in header and "phase_11" in header
    re_cols = [i for i, h in enumerate(header) if h.startswith("re_")]
    im_cols = [i for i, h in enumerate(header) if h.startswith("im_")]
    for row in rows[:: max(1, len(rows) // 20)]:
        norm = sum(row[i] ** 2 for i in re_cols) + sum(row[i] ** 2 for i in im_cols)
        assert norm == pytest.approx(1.0, abs=2e-6)
    assert rows[-1][header.index("phase_11")] == pytest.approx(
        -3.107928498975977, abs=1e-6)


def test_config_file_with_set_override_precedence(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "cphase", "omega": 0.2}))
    out = tmp_path / "run"
    result = _invoke(["cphase", "--config", str(cfg), "--out", str(out),
                      "--set", "omega=0.1"])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    # --set wins over the file: the slower drive needs the longer gate
    assert report["gate_time"] == pytest.approx(29.24358673002839, rel=1e-9)


def test_unknown_key_fails_with_suggestion(tmp_path):
    result = _invoke(["cphase", "--out", str(tmp_path / "x"),
                      "--set", "omge=0.1"])
    assert result.exit_code == 1
    text = _text(result)
    assert "config error" in text
    assert "omega" in text  # close-match hint


def test_cphase_rejects_solver_tolerances(tmp_path):
    # no cphase run takes an adaptive solve, so the keys would do nothing
    for key, readers in (("rtol=1e-3", "read only by zrot"), ("atol=1e-3", "no run reads it"),
                         ("max_step=5", "read only by zrot")):
        result = _invoke(["cphase", "--out", str(tmp_path / "x"),
                          "--set", "pulse_shape=gaussian", "--set", key])
        assert result.exit_code == 1
        assert f"unknown config key {key.split('=')[0]!r} for kind 'cphase'" in _text(result)
        assert readers in _text(result)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kind": "sweep", "sweep_kind": "cphase",
                               "sweep_param": "rtol", "sweep_values": [1e-6]}))
    result = _invoke(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert result.exit_code == 1
    assert "config error" in _text(result)
    assert not (tmp_path / "x").exists() and not (tmp_path / "s").exists()
    # zrot still reads rtol and max_step on its Magnus path
    cfg = build_config({"kind": "zrot", "rtol": 1e-10, "max_step": 0.5})
    assert cfg.integrator() == IntegratorConfig(rtol=1e-10, max_step=0.5)
    with pytest.raises(ConfigError, match="'atol' for kind 'zrot'; no run reads it"):
        build_config({"kind": "zrot", "atol": 1e-13})
    for key, readers in (("rtol", "; read only by zrot"), ("atol", "; no run reads it"),
                         ("max_step", "; read only by zrot")):
        with pytest.raises(ConfigError, match=f"'{key}' for kind 'raman'{readers}"):
            build_config({"kind": "raman", key: 0.5})


def test_zrot_rejects_the_pair_couplings(tmp_path):
    # the addressed dot's blocks read omega_a only
    for key in ("v_f=0.9", "v_xx=4.4"):
        result = _invoke(["zrot", "--out", str(tmp_path / "z"), "--set", key])
        assert result.exit_code == 1
        assert (f"unknown config key {key.split('=')[0]!r} for kind 'zrot'; "
                "read only by cphase and conditions") in _text(result)
    assert not (tmp_path / "z").exists()
    assert build_config({"kind": "zrot", "omega_a": 300.0}).dot_params().omega_a == 300.0


def test_kind_mismatch_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "raman"}))
    result = _invoke(["cphase", "--config", str(cfg),
                      "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "config error" in _text(result)


def test_invalid_json_reports_position(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"kind": "cphase",\n  omega: 0.1}')
    result = _invoke(["cphase", "--config", str(cfg),
                      "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "line" in _text(result)


def test_missing_config_file_is_config_error(tmp_path):
    result = _invoke(["cphase", "--config", str(tmp_path / "absent.json"),
                      "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "config error" in _text(result)


def test_wrong_pulse_area_is_runtime_error(tmp_path):
    result = _invoke(["cphase", "--out", str(tmp_path / "x"),
                      "--set", "duration=20"])
    assert result.exit_code == 2
    assert "runtime error" in _text(result)


def test_zero_duration_run_writes_single_row(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["cphase", "--out", str(out),
                      "--set", "omega=0", "--set", "duration=0"])
    assert result.exit_code == 0
    text = (out / "traj_11.csv").read_text().strip().splitlines()
    assert len(text) == 2  # header plus the single sample
    assert "nan" in text[1]  # phase is undefined on a single sample


def test_conditions_report(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["conditions", "--out", str(out), "--set", "omega=0.2"])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    cond = report["conditions"]
    assert cond["r_spectator"] == pytest.approx(0.11764705882352942, rel=1e-9)
    assert cond["spectator_ok"] is False
    assert cond["biexciton_ok"] is True
    assert report["pulse"]["shape"] == "square"
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_zrot_outputs(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["zrot", "--out", str(out), "--set", "wait=0.05"])
    assert result.exit_code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["report.json", "trajectory_lab.csv", "trajectory_rot.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "zrot"
    assert report["target_phase"] == pytest.approx(1.1302974273026685, abs=1e-9)
    assert abs(report["phase_error"]) < 1e-6
    assert abs(report["composite_phase"]) == pytest.approx(math.pi, abs=1e-5)
    header, rows = _read_csv(out / "trajectory_rot.csv")
    assert "re_X" in header and header[0] == "t_ps"
    assert len(rows) > 100


def test_raman_population_csv(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["raman", "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fidelity"] == pytest.approx(0.9565232098141527, abs=1e-9)
    assert report["pi_time"] == pytest.approx(9.365697321865879, abs=1e-6)
    header, rows = _read_csv(out / "populations.csv")
    for lbl in ("0", "1", "e", "s"):
        assert f"pop_{lbl}" in header
    pop_cols = [i for i, h in enumerate(header) if h.startswith("pop_")]
    for row in rows[:: max(1, len(rows) // 20)]:
        assert sum(row[i] for i in pop_cols) == pytest.approx(1.0, abs=1e-6)
        assert all(row[i] >= -1e-9 for i in pop_cols)


def test_raman_family_outputs(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["raman", "--out", str(out), "--set", "detunings=[2, 4]"])
    assert result.exit_code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["raman_nu_2_gamma_0.1.csv", "raman_nu_4_gamma_0.1.csv",
                     "report.json", "schema.json"]
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "raman_family"
    by_nu = {r["detuning"]: r for r in report["runs"]}
    assert by_nu[2.0]["fidelity"] == pytest.approx(0.9184818519264073, abs=1e-9)
    assert by_nu[4.0]["fidelity"] == pytest.approx(0.9565232098141527, abs=1e-9)
    # losing less to the intermediate level at larger detuning, but slower
    assert by_nu[4.0]["pi_time"] > by_nu[2.0]["pi_time"]
    schema = json.loads((out / "schema.json").read_text())
    assert schema["files"] == [r["file"] for r in report["runs"]]


def test_cphase_family_outputs(tmp_path):
    out = tmp_path / "run"
    result = _invoke(["cphase", "--out", str(out), "--set", "ratios=[0.05]"])
    assert result.exit_code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["family_ratio_0.05.csv", "report.json", "schema.json"]
    report = json.loads((out / "report.json").read_text())
    run = report["runs"][0]
    assert run["omega"] == pytest.approx(0.05 * 0.85)
    assert run["fidelity"] == pytest.approx(0.9987213204406525, abs=1e-9)
    header, rows = _read_csv(out / "family_ratio_0.05.csv")
    assert header == ["t_ps", "phase_10", "amp_10", "phase_11", "amp_11"]
    assert rows[-1][0] == pytest.approx(run["gate_time"], rel=1e-9)
    assert rows[-1][1] == pytest.approx(-0.05497491612349329, abs=1e-6)
    assert rows[-1][4] == pytest.approx(1.0, abs=1e-6)


def test_sweep_serial(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "sweep", "sweep_kind": "raman",
        "sweep_param": "detuning", "sweep_values": [2.0, 4.0],
    }))
    out = tmp_path / "run"
    result = _invoke(["sweep", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sweep_param"] == "detuning"
    assert [r["value"] for r in report["runs"]] == [2.0, 4.0]
    assert [r["dir"] for r in report["runs"]] == ["detuning_2", "detuning_4"]
    for d in ("detuning_2", "detuning_4"):
        child = json.loads((out / d / "report.json").read_text())
        assert child["kind"] == "raman"
        assert (out / d / "populations.csv").exists()
    assert report["runs"][1]["report"]["fidelity"] == pytest.approx(
        0.9565232098141527, abs=1e-9)


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "sweep", "sweep_kind": "raman",
        "sweep_param": "detuning", "sweep_values": [2.0, 4.0],
    }))
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert _invoke(["sweep", "--config", str(cfg), "--out", str(serial)]).exit_code == 0
    assert _invoke(["sweep", "--config", str(cfg), "--out", str(parallel),
                    "--jobs", "2"]).exit_code == 0
    assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()
    assert (serial / "detuning_4" / "populations.csv").read_bytes() == \
        (parallel / "detuning_4" / "populations.csv").read_bytes()


def test_sweep_with_no_values_writes_nothing(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "sweep", "sweep_kind": "raman",
        "sweep_param": "detuning", "sweep_values": [],
    }))
    out = tmp_path / "run"
    result = _invoke(["sweep", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    assert "nothing to run" in result.output
    assert not out.exists()


def test_cphase_family_report_keeps_each_runs_warnings(tmp_path):
    out = tmp_path / "fam"
    assert _invoke(["cphase", "--out", str(out), "--set", "ratios=[0.3,1e300]"]).exit_code == 0
    runs = json.loads((out / "report.json").read_text())["runs"]
    # the huge ratio is far past both validity thresholds
    assert [w.split()[0] for w in runs[1]["warnings"]] == ["biexciton", "spectator"]
    for run in runs:
        single = tmp_path / f"single_{run['ratio']:g}"
        assert _invoke(["cphase", "--out", str(single),
                        "--set", f"omega={run['omega']!r}"]).exit_code == 0
        assert run["warnings"] == json.loads((single / "report.json").read_text())["warnings"]


def test_cphase_warnings_print_a_huge_ratio_on_one_short_line(tmp_path):
    out = tmp_path / "fam"
    assert _invoke(["cphase", "--out", str(out), "--set", "ratios=[0.3,1e300]"]).exit_code == 0
    runs = json.loads((out / "report.json").read_text())["runs"]
    assert runs[0]["warnings"] == [
        "spectator ratio 0.150 >= threshold 0.1: idle blocks are driven hard"]
    assert runs[1]["warnings"] == [
        "biexciton ratio 1.821e+299 >= threshold 0.1: XX leakage is not negligible",
        "spectator ratio 5.000e+299 >= threshold 0.1: idle blocks are driven hard"]


def test_empty_family_lists_write_nothing(tmp_path):
    # the rule of an empty sweep holds for every family list
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sweep", "sweep_param": "omega",
                               "sweep_values": [0.1], "ratios": []}))
    cases = [("ratios", ["cphase", "--set", "ratios=[]"]),
             ("gammas", ["raman", "--set", "gammas=[]"]),
             ("detunings", ["raman", "--set", "detunings=[]"]),
             ("ratios", ["sweep", "--config", str(cfg)])]
    for i, (key, args) in enumerate(cases):
        out = tmp_path / f"run{i}"
        result = _invoke([*args, "--out", str(out)])
        assert result.exit_code == 0, _text(result)
        assert result.output == f"{key} is empty; nothing to run\n"
        assert not out.exists()


@pytest.mark.parametrize("gamma", ["1e10", "1e308"])
def test_raman_with_a_stiff_loss_rate_exits_at_once(tmp_path, gamma):
    # from gamma ~2e8 the Liouvillian's eigenvectors fail the conditioning
    # check; a subprocess with a timeout fails here instead of hanging
    src = str(Path(dotgates.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "r"
    proc = subprocess.run([sys.executable, "-m", "dotgates.cli", "raman", "--set",
                           f"gamma={gamma}", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: generator too stiff")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("args", [
    # nan from overflow used to pass the norm and trace checks
    ("cphase", "v_xx=1e308"),
    ("raman", "rabi=1e150", "detuning=1e300"),
    # a Raman rate that overflows or underflows
    ("raman", "rabi=1e200"),
    ("raman", "rabi=1e-300"),
    ("raman", "detuning=1e308", "time_window=1"),
    # t_start + duration == t_start leaves no pulse
    ("zrot", "t_start=1e300"),
    ("cphase", "t_start=1e300"),
    # a report value of inf, and numpy overflow warnings before the message
    ("conditions", "v_f=1e-320"),
    ("zrot", "omega=1e300"),
    # a block energy that overflows to inf
    ("cphase", "v_f=1e308"),
    # a sample count too large to round up
    ("cphase", "duration=1e308"),
    ("zrot", "wait=1e308"),
    ("raman", "time_window=1e308"),
], ids="-".join)
def test_hostile_input_exits_with_one_line(tmp_path, args):
    src = str(Path(dotgates.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "h"
    sets = [a for key in args[1:] for a in ("--set", key)]
    proc = subprocess.run([sys.executable, "-m", "dotgates.cli", args[0], *sets,
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode in (1, 2), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(("config error:", "runtime error:"))
    assert not (out / "report.json").exists()


def test_gaussian_cphase_at_a_huge_peak_gives_the_sudden_kick(tmp_path):
    # The calibrated pulse is ~1e-199 ps long, so each block takes the kick
    # exp(-i sqrt2 pi v) of the pulse area: v has the eigenvalues 0 and +-1
    # on 11, psi+, XX and +-1/2 on an idle block.  The Magnus exponent never
    # multiplies two drive values, so nothing overflows.
    out = tmp_path / "k"
    result = _invoke(["cphase", "--set", "pulse_shape=gaussian", "--set", "omega=1e200",
                      "--out", str(out)])
    assert result.exit_code == 0, _text(result)
    code, lines = _verify_lines(out)
    assert code == 0 and lines[-1] == "verified 5 files, 0 failures", lines
    amps = json.loads((out / "report.json").read_text())["amplitudes"]
    a11 = (1.0 + math.cos(math.sqrt(2.0) * math.pi)) / 2.0
    a01 = math.cos(math.pi / math.sqrt(2.0))
    for key, closed in (("11", a11), ("01", a01), ("10", a01)):
        assert abs(complex(amps[key]["re"], amps[key]["im"]) - closed) < 1e-9


@pytest.mark.parametrize("sets, energy, keys", [
    (["v_f=1e308"], "2 v_f", ["v_f=1e+308"]),
    (["omega_a=1e308"], "2 omega_a + v_xx", ["omega_a=1e+308", "v_xx=5"]),
    (["v_f=-8e307", "v_xx=1.7e308"], "v_xx - 2 v_f", ["v_f=-8e+307", "v_xx=1.7e+308"]),
], ids=["v_f", "omega_a", "v_xx"])
def test_overflowing_block_energy_is_a_config_error(tmp_path, sets, energy, keys):
    out = tmp_path / "e"
    result = _invoke(["cphase", *[a for key in sets for a in ("--set", key)], "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"config error: the block energy {energy} is not finite for " + ", ".join(keys)]
    assert not out.exists()


def test_sweep_rejects_bad_parameter(tmp_path):
    base = {"kind": "sweep", "sweep_kind": "raman", "sweep_values": [1.0]}
    for param in ("bogus", "detunings"):  # unknown, and not sweepable
        cfg = tmp_path / f"{param}.json"
        cfg.write_text(json.dumps({**base, "sweep_param": param}))
        result = _invoke(["sweep", "--config", str(cfg),
                          "--out", str(tmp_path / param)])
        assert result.exit_code == 1
        assert "config error" in _text(result)


def test_sweep_rejects_bad_child_before_running(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "sweep", "sweep_kind": "cphase",
        "sweep_param": "v_f", "sweep_values": [0.85, 0.0],
    }))
    out = tmp_path / "run"
    result = _invoke(["sweep", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert "config error" in _text(result)
    assert not out.exists()


def test_verify_accepts_good_run_and_catches_corruption(tmp_path):
    out = tmp_path / "run"
    assert _invoke(["raman", "--out", str(out)]).exit_code == 0
    result = _invoke(["verify", "--out", str(out)])
    assert result.exit_code == 0
    assert "0 failures" in result.output

    # inflate one population cell: the row no longer sums to one
    path = out / "populations.csv"
    lines = path.read_text().strip().splitlines()
    cells = lines[5].split(",")
    cells[1] = "%.11e" % (float(cells[1]) + 0.5)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    result = _invoke(["verify", "--out", str(out)])
    assert result.exit_code == 2
    assert "FAIL" in result.output

    (out / "report.json").write_text("{broken")
    result = _invoke(["verify", "--out", str(out)])
    assert "invalid JSON" in result.output
    assert result.exit_code == 2


def _reference_csv(header, columns):
    rows = zip(*(c.tolist() for c in columns)) if columns else ()
    lines = [",".join(header)] + [",".join("%.11e" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _assert_writes_like_percent(tmp_path, values, ncols=3):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-values.size % ncols)])
    columns = list(values.reshape(-1, ncols).T)
    header = [f"c{i}" for i in range(ncols)]
    path = tmp_path / "golden.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == _reference_csv(header, columns)
    assert not (tmp_path / "golden.csv.tmp").exists()


def test_csv_writer_matches_percent_format_on_special_values(tmp_path):
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-300, 1e300, 1e-301, 1e301,
                1e308, -1e308, 1.7976931348623157e308, 1e100, -1e-100, 1.5e-245,
                9.99999999999e99, 9.999999999995e99, 1.0, -1.0, 0.5, 123.456]
    for ncols in (1, 3, len(specials)):
        _assert_writes_like_percent(tmp_path, specials, ncols)


def test_csv_writer_matches_percent_format_on_decimal_ties(tmp_path):
    # 13-digit decimals ending in 5 sit on (or next to) a 12-digit rounding tie
    rng = np.random.default_rng(5)
    ties = [float(f"{m}5e{k}") for k in range(-300, 300, 7)
            for m in rng.integers(10**11, 10**12, 20)]
    ties += [float("1.000000000005e5"), float("9.999999999995e11"),
             float("2.500000000005e-3"), float("9.999999999995e-1")]
    ties = np.array(ties)
    _assert_writes_like_percent(tmp_path, np.concatenate([
        ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))


def test_csv_writer_matches_percent_format_around_powers_of_ten(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(powers, 0)
    _assert_writes_like_percent(tmp_path, np.concatenate([
        powers, below, np.nextafter(below, 0), np.nextafter(powers, np.inf), -powers]))


def test_csv_writer_matches_percent_format_on_random_values(tmp_path):
    rng = np.random.default_rng(11)
    values = 10 ** rng.uniform(-300, 300, 60000) * rng.choice([-1.0, 1.0], 60000)
    values[rng.integers(0, values.size, 300)] = 0.0
    values[rng.integers(0, values.size, 300)] = math.nan
    bits = rng.integers(-2**63, 2**63 - 1, 20000, dtype=np.int64).view(np.float64)
    _assert_writes_like_percent(tmp_path, np.concatenate([values, bits]), ncols=13)


@pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                  _CSV_BLOCK_ROWS + 1])
def test_csv_writer_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    _assert_writes_like_percent(tmp_path, rng.standard_normal(rows * 4), ncols=4)


def _set_cell(path, line, column, text):
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _verify_lines(out):
    result = _invoke(["verify", "--out", str(out)])
    return result.exit_code, result.output.strip().splitlines()


def test_verify_fails_non_finite_amplitude(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    for text in ("nan", "inf"):
        _set_cell(out / "traj_11.csv", 7, "re_11", text)
        code, lines = _verify_lines(out)
        assert code == 2
        assert f"FAIL traj_11.csv: line 7: norm {text} deviates from 1" in lines


def test_verify_reports_unparseable_cell_and_short_row(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    _set_cell(out / "traj_10.csv", 4, "im_10", "1.0x")
    path = out / "traj_01.csv"
    lines = path.read_text().splitlines()
    lines[9] = lines[9].rsplit(",", 1)[0]  # drop the last cell of one row
    path.write_text("\n".join(lines) + "\n")
    code, lines = _verify_lines(out)
    assert code == 2
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert [ln.split(":")[0] for ln in fails] == ["FAIL traj_01.csv", "FAIL traj_10.csv"]
    assert all(": unparseable (" in ln for ln in fails)
    assert "'1.0x'" in fails[1]
    assert lines[-1] == "verified 3 files, 2 failures"


def test_verify_checks_family_csvs(tmp_path):
    out = tmp_path / "fam"
    assert _invoke(["cphase", "--out", str(out), "--set", "ratios=[0.3,0.15]"]).exit_code == 0
    code, lines = _verify_lines(out)
    assert code == 0
    assert lines[-1] == "verified 4 files, 0 failures"
    assert "ok   family_ratio_0.3.csv: 1148 rows, amplitudes within [0, 1]" in lines

    _set_cell(out / "family_ratio_0.3.csv", 5, "amp_11", "1.5")
    code, lines = _verify_lines(out)
    assert code == 2
    assert "FAIL family_ratio_0.3.csv: line 5: amp_11 1.500000000 outside [0, 1]" in lines


def test_verify_fails_csvs_without_checkable_content(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header_only.csv").write_text("t_ps,re_0,im_0\n")
    (tmp_path / "times.csv").write_text("t_ps,phase_0\n0.0,1.0\n")
    code, lines = _verify_lines(tmp_path)
    assert code == 2
    assert lines == [
        "FAIL empty.csv: empty file",
        "FAIL header_only.csv: no data rows",
        "FAIL times.csv: no re_, pop_ or amp_ columns to check",
        "verified 0 files, 3 failures",
    ]


def test_sample_count_cap_rejects_run_before_allocating(tmp_path):
    # 1e-9 ps over a 29 ps gate would be 3e10 samples (hundreds of GiB)
    for raw in ({"kind": "cphase", "sample_interval": 1e-9},
                {"kind": "cphase", "ratios": [0.3, 0.01], "sample_interval": 1e-4},
                {"kind": "zrot", "wait": 5e4},
                {"kind": "raman", "detunings": [2.0, 4e5]},
                {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "omega",
                 "sweep_values": [0.1], "sample_interval": 1e-9}):
        with pytest.raises(ConfigError, match="samples"):
            build_config(raw)
    build_config({"kind": "cphase", "ratios": [0.3, 0.15], "sample_interval": 1e-4})
    out = tmp_path / "x"
    result = _invoke(["cphase", "--out", str(out), "--set", "sample_interval=1e-9"])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error")
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate and scipy.special cost ~0.6 s of every CLI start
    src = str(Path(dotgates.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, dotgates.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_zrot_runs_leave_scipy_integrate_unloaded(tmp_path):
    # both envelopes take the batched Magnus path, so no zrot run needs DOP853
    src = str(Path(dotgates.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from pathlib import Path; "
        "from dotgates.cli import run_experiment; from dotgates.config import build_config; "
        "run_experiment(build_config({'kind': 'zrot'}), Path('square')); "
        "run_experiment(build_config({'kind': 'zrot', 'pulse_shape': 'gaussian', "
        "'omega_a': 300.0}), Path('gaussian')); "
        "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, check=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "square" / "report.json").exists()
    assert (tmp_path / "gaussian" / "report.json").exists()


def test_verify_missing_directory(tmp_path):
    result = _invoke(["verify", "--out", str(tmp_path / "absent")])
    assert result.exit_code == 1


def test_installed_entry_point_runs():
    exe = shutil.which("dotgates")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("cphase", "zrot", "raman", "conditions", "sweep", "verify"):
        assert sub in proc.stdout


def test_zrot_gaussian_pulse_runs_and_verifies(tmp_path):
    # the shifted second pulse used to start an ulp before the wait ended
    out = tmp_path / "zg"
    result = _invoke(["zrot", "--out", str(out), "--set", "pulse_shape=gaussian",
                      "--set", "omega_a=300"])
    assert result.exit_code == 0, _text(result)
    report = json.loads((out / "report.json").read_text())
    assert abs(report["phase_error"]) < (1.0 / 300.0) ** 2
    code, lines = _verify_lines(out)
    assert code == 0
    assert lines[-1] == "verified 3 files, 0 failures"


def test_zrot_gaussian_pulse_runs_at_the_default_carrier(tmp_path):
    # on DOP853 this run took ~10 s and then failed its norm check (exit 2)
    out = tmp_path / "zg"
    start = time.perf_counter()
    result = _invoke(["zrot", "--out", str(out), "--set", "pulse_shape=gaussian"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, _text(result)
    report = json.loads((out / "report.json").read_text())
    assert report["omega_a"] == 2.0e3
    assert abs(report["phase_error"]) < (1.0 / 2.0e3) ** 2
    code, lines = _verify_lines(out)
    assert code == 0
    assert lines[-1] == "verified 3 files, 0 failures"
    assert elapsed < 60.0


@pytest.mark.parametrize("dt", ["2", "20"])
def test_zrot_gaussian_pulse_runs_at_coarse_sampling(tmp_path, dt):
    # a coarse sample cell spans hundreds of carrier periods, so it takes
    # more Magnus cells than one chunk holds
    out = tmp_path / "zg"
    result = _invoke(["zrot", "--out", str(out), "--set", "pulse_shape=gaussian",
                      "--set", "omega_a=300", "--set", f"sample_interval={dt}"])
    assert result.exit_code == 0, _text(result)
    report = json.loads((out / "report.json").read_text())
    assert abs(report["phase_error"]) < (1.0 / 300.0) ** 2
    code, lines = _verify_lines(out)
    assert code == 0
    assert lines[-1] == "verified 3 files, 0 failures"


def test_zrot_magnus_work_limit_exits_at_once(tmp_path):
    # a max_step asking for billions of Magnus cells is refused before any run
    start = time.perf_counter()
    result = _invoke(["zrot", "--out", str(tmp_path / "z"), "--set", "max_step=1e-12"])
    assert result.exit_code == 2
    assert "Magnus solve would take" in _text(result)
    assert time.perf_counter() - start < 5.0


def test_cphase_magnus_work_limit_exits_at_once(tmp_path):
    # the norm guard asks ~1.5e4 substeps in each of ~9300 sample cells; the
    # work bound refuses it after one chunk instead of running for minutes
    src = str(Path(dotgates.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "c"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dotgates.cli", "cphase", "--set",
                           "pulse_shape=gaussian", "--set", "v_xx=1e5", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("runtime error: the Magnus solve would take 1.42e+08 steps")
    assert lines[0].endswith("(limit 1.6e+07)")
    assert not (out / "report.json").exists()


def test_verify_fails_row_with_extra_cell(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / "traj_01.csv"
    lines = path.read_text().splitlines()
    lines[5] += ",1.0"  # file line 6
    path.write_text("\n".join(lines) + "\n")
    code, lines = _verify_lines(out)
    assert code == 2
    assert "FAIL traj_01.csv: unparseable (line 6: 8 cells, the header has 7)" in lines


def test_verify_numbers_parse_errors_by_file_line(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    _set_cell(out / "traj_10.csv", 4, "im_10", "1.0x")
    path = out / "traj_01.csv"
    lines = path.read_text().splitlines()
    lines[9] = lines[9].rsplit(",", 1)[0]  # file line 10 loses its last cell
    path.write_text("\n".join(lines) + "\n")
    code, lines = _verify_lines(out)
    assert code == 2
    assert "FAIL traj_01.csv: unparseable (line 10: 6 cells, the header has 7)" in lines
    assert ("FAIL traj_10.csv: unparseable (line 4: could not convert string to float: "
            "'1.0x')") in lines


def test_format_rows_matches_percent_on_edge_cells():
    # 13-digit decimals ending in 5: the 12-digit mantissa sits next to a half
    ties = [float(f"{m}5e{k}") for m in (100000000000, 123456789012, 999999999999)
            for k in (-320, -17, 0, 9, 290)]
    values = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
              2.2250738585072009e-308, -1e-310, 1e300, -1e300, 1e-300, -1e-300,
              *ties, *np.nextafter(ties, 0), *np.nextafter(ties, np.inf)]
    values += [0.0] * (-len(values) % 4)
    for ncols in (1, 4):
        block = np.array(values).reshape(-1, ncols)
        expected = "".join(",".join("%.11e" % v for v in row) + "\n"
                           for row in block.tolist())
        assert _format_rows(block) == expected.encode()


def test_idle_block_csvs_share_one_body(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    head01, body01 = (out / "traj_01.csv").read_bytes().split(b"\n", 1)
    head10, body10 = (out / "traj_10.csv").read_bytes().split(b"\n", 1)
    assert head01 == b"t_ps,re_01,im_01,re_0X,im_0X,phase_01,phase_0X"
    assert head10 == b"t_ps,re_10,im_10,re_X0,im_X0,phase_10,phase_X0"
    assert body10 == body01
    cfg = build_config({"kind": "cphase"})
    _, trajs = run_cphase(cfg.dot_params(), cfg.envelope(), cfg.integrator(),
                          cfg["threshold_biexciton"], cfg["threshold_spectator"])
    for key in ("01", "10"):
        traj, labels = trajs[key], trajs[key].basis.labels
        columns = [traj.times]
        for lbl in labels:
            columns += [traj.amplitude(lbl).real, traj.amplitude(lbl).imag]
        columns += [accumulated_phase(traj, lbl).values for lbl in labels]
        header = (out / f"traj_{key}.csv").read_text().split("\n", 1)[0].split(",")
        assert (out / f"traj_{key}.csv").read_bytes() == _reference_csv(header, columns)


@pytest.mark.parametrize("changed, kept", [("10", "01"), ("01", "10")])
def test_verify_fails_only_the_changed_twin(tmp_path, changed, kept):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / f"traj_{changed}.csv"
    _set_cell(path, 7, f"re_{changed}", "%.11e" % 0.5)
    header, rows = _read_csv(path)
    row = dict(zip(header, rows[5]))  # file line 7
    norm = sum(v * v for h, v in row.items() if h.startswith(("re_", "im_")))
    verdict = {changed: f"FAIL traj_{changed}.csv: line 7: norm {norm:.9f} deviates from 1",
               kept: f"ok   traj_{kept}.csv: 2926 rows, norm conserved"}
    code, lines = _verify_lines(out)
    assert code == 2
    assert lines == ["ok   traj_00.csv: 2926 rows, norm conserved", verdict["01"],
                     verdict["10"], "ok   traj_11.csv: 2926 rows, norm conserved",
                     "ok   report.json: valid JSON", "verified 4 files, 1 failures"]
    # the line it gets when checked alone
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(path, alone)
    assert _verify_lines(alone)[1][0] == verdict[changed]


def test_verify_streams_each_csv(tmp_path):
    # verify holds two 64 KiB buffers and at most two parsed arrays (the one
    # being loaded and, during the row checks, its squares); it never reads
    # a whole file into memory: traj_11.csv alone is ~2 MB
    out = tmp_path / "g"
    assert _invoke(["cphase", "--set", "pulse_shape=gaussian", "--out", str(out)]).exit_code == 0
    parsed = []
    for path in out.glob("*.csv"):
        header, rows = _read_csv(path)
        parsed.append(len(rows) * (sum(h.startswith(("re_", "im_")) for h in header) + 1) * 8)
    largest = max(p.stat().st_size for p in out.glob("*.csv"))
    bound = 4 * _SCAN_BYTES + 2 * max(parsed)
    assert largest > bound
    _verify_lines(out)
    tracemalloc.start()
    try:
        code, lines = _verify_lines(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and lines[-1] == "verified 5 files, 0 failures"
    assert peak < bound


def test_twin_trajectories_are_found_bit_for_bit(tmp_path):
    basis = Basis(("a", "b"), "pair")
    times = np.linspace(0.0, 1.0, 4)
    states = np.array([[1.0, 0.0]] * 4, dtype=complex)
    flipped = states.copy()
    flipped[2, 1] = -0.0  # equal to 0.0, but it prints as -0.00000000000e+00
    trajs = {name: Trajectory(times, s, basis, "lab")
             for name, s in (("a.csv", states), ("b.csv", states), ("c.csv", flipped))}
    _write_trajectories(tmp_path, trajs)
    for name, traj in trajs.items():
        columns = [times, traj.states[:, 0].real, traj.states[:, 0].imag,
                   traj.states[:, 1].real, traj.states[:, 1].imag,
                   accumulated_phase(traj, "a").values, np.full(4, math.nan)]
        header = ["t_ps", "re_a", "im_a", "re_b", "im_b", "phase_a", "phase_b"]
        assert (tmp_path / name).read_bytes() == _reference_csv(header, columns)
    assert not list(tmp_path.glob("*.tmp"))


def test_verify_parses_a_header_with_a_carriage_return_alone(tmp_path):
    # np.loadtxt reads the bare carriage return as a line end, so b.csv's
    # second line is its header text: its rows must not borrow a.csv's parse
    (tmp_path / "a.csv").write_bytes(b"t_ps,re_a,im_a\n0,0.6,0.8\n")
    (tmp_path / "b.csv").write_bytes(b"x\rt_ps,re_b,im_b\n0,0.6,0.8\n")
    code, lines = _verify_lines(tmp_path)
    assert code == 2
    assert lines == ["ok   a.csv: 1 rows, norm conserved",
                     "FAIL b.csv: unparseable (line 2: could not convert string to float: "
                     "'t_ps')",
                     "verified 1 files, 1 failures"]

