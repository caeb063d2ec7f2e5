import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from click.testing import CliRunner

import numpy as np

import dotgates
from dotgates.cli import (
    _CSV_BLOCK_ROWS,
    _KINDS,
    _SCAN_BYTES,
    _STAGE_PREFIX,
    _format_rows,
    _write_csv,
    _write_trajectories,
    main,
    round_floats,
)
from dotgates.config import EXPERIMENT_KINDS, ConfigError, build_config
from dotgates.dynamics import IntegratorConfig, Trajectory, accumulated_phase
from dotgates.gates import RamanParams, run_cphase
from dotgates.model import DotPairParams, GaussianPulse
from dotgates.operators import Basis

RUNNER = CliRunner()


def _invoke(args):
    return RUNNER.invoke(main, args, catch_exceptions=False)


def _text(result):
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


def _subprocess_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(dotgates.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


def _tree(root):
    """``relpath -> bytes`` of every file under ``root``."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_cphase_reruns_are_byte_identical(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    replace, taken = os.replace, []

    def spy(src, dst):
        taken.append((Path(dst), os.path.lexists(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    # defaults, then a run whose every file changes size, then defaults again
    for sets in ([], ["--set", "omega=0.17"], []):
        assert _invoke(["cphase", *sets, "--out", str(a)]).exit_code == 0
    monkeypatch.undo()
    assert _invoke(["cphase", "--out", str(b)]).exit_code == 0
    assert len(taken) == 3 * len(_tree(b))
    assert [dst for dst, existed in taken if existed] == []
    assert _tree(a) == _tree(b)
    # nothing else: no staging directory and no partial file
    assert {p.relative_to(a) for p in a.rglob("*")} == set(_tree(b))


@dataclass(frozen=True)
class _Rejection:
    """``dotgates <args> --out <tmp>/out`` must exit ``code`` with the one line
    ``line`` and write nothing; ``<tmp>`` stands for the test's tmp path.
    ``config`` (a dict, or raw text) is written to ``c.json`` and passed as
    ``--config``; ``files`` (relpath -> text) exist before the run."""
    args: str
    code: int
    line: str
    config: dict | str | None = None
    files: dict[str, str] = field(default_factory=dict)


def _sweep(kind, param, values, **base):
    return {"kind": "sweep", "sweep_kind": kind, "sweep_param": param,
            "sweep_values": values, **base}


_UNKNOWN = "config error: unknown config key"
_SWEEP_PARAM = "config error: sweep_param"
_RAMAN = "give a Raman rate, pi time or window that is not finite and positive"
_CPHASE_AREA = "config error: sqrt(2)-enhanced pulse area"
_OF_2PI = "deviates from 2*pi*hbar = 4.135668 by"
_ENERGY = "config error: the block energy"
_ZROT_AREA = ("config error: pulse area 5.012939 deviates from pi*hbar = 2.067834 by 142.42% "
              "(limit 1%)")
_LATE = "config error: the pulse support [1e+300, 1e+300] ps does not span the pulse's"
_SUPPORT = "ps (limit 1e-09 relative); keep t_start near 0 and the pulse length finite"
_TINY_V_F = "omega=0.1, v_f=9.99989e-321"  # 1e-320 is subnormal: %g shows its stored value
_SPECTATOR = f"config error: the spectator ratio is not finite for {_TINY_V_F}"
_INF_SAMPLES = ("config error: sample_interval 0.01 ps over a 1e+308 ps span asks for inf "
                "samples; the limit is 1e+06")
_CARRIER = ("config error: lab-frame carrier would oscillate through 7.04e+09 radians; this "
            "is impractically slow to integrate.  The imprinted phase depends only on "
            "omega_a * wait / hbar, so rerun with a scaled-down omega_a (e.g. 2e3 meV) and a "
            "correspondingly chosen wait.")
_MAGNUS = "runtime error: the Magnus solve would take"
_NAN_NORM = "runtime error: norm drifted by nan; the inputs overflow double precision"
_SHARED = "config error: runs at"

REJECTIONS = {
    # an output that cannot be written; the files already there stay
    "out is a file": _Rejection(
        "cphase", 2, "runtime error: [Errno 17] File exists: '<tmp>/out'",
        files={"out": "not a directory\n"}),
    "a csv name is a directory": _Rejection(
        "cphase", 2, "runtime error: [Errno 21] Is a directory: '<tmp>/out/traj_00.csv'",
        files={"out/traj_00.csv/keep.txt": "kept\n", "out/notes.txt": "notes\n"}),
    "verify without a directory": _Rejection("verify", 1, "config error: no such directory "
                                             "'<tmp>/out'"),
    "verify a regular file": _Rejection("verify", 1, "config error: no such directory '<tmp>/out'",
                                        files={"out": "not a directory\n"}),
    # config files
    "kind mismatch": _Rejection("cphase", 1, "config error: config kind 'raman' does not match "
                                "subcommand 'cphase'", config={"kind": "raman"}),
    "invalid json": _Rejection(
        "cphase", 1, "config error: invalid JSON in <tmp>/c.json: line 2 column 3: Expecting "
        "property name enclosed in double quotes", config='{"kind": "cphase",\n  omega: 0.1}'),
    "missing config file": _Rejection(
        "cphase --config <tmp>/absent.json", 1, "config error: cannot read config file "
        "<tmp>/absent.json: [Errno 2] No such file or directory: '<tmp>/absent.json'"),
    # keys: a typo gets a hint, a key of other kinds names its readers; no
    # cphase run takes an adaptive solve, and the addressed dot reads omega_a only
    "misspelt key": _Rejection("cphase --set omge=0.1", 1,
                               f"{_UNKNOWN} 'omge' for kind 'cphase'; did you mean 'omega'?"),
    "cphase rtol": _Rejection("cphase --set pulse_shape=gaussian --set rtol=1e-3", 1,
                              f"{_UNKNOWN} 'rtol' for kind 'cphase'; read only by zrot"),
    "cphase atol": _Rejection("cphase --set pulse_shape=gaussian --set atol=1e-3", 1,
                              f"{_UNKNOWN} 'atol' for kind 'cphase'; no run reads it"),
    "cphase max_step": _Rejection("cphase --set pulse_shape=gaussian --set max_step=5", 1,
                                  f"{_UNKNOWN} 'max_step' for kind 'cphase'; no run reads it"),
    "zrot v_f": _Rejection("zrot --set v_f=0.9", 1, f"{_UNKNOWN} 'v_f' for kind 'zrot'; "
                           "read only by cphase and conditions"),
    "zrot v_xx": _Rejection("zrot --set v_xx=4.4", 1, f"{_UNKNOWN} 'v_xx' for kind 'zrot'; "
                            "read only by cphase and conditions"),
    # not a key, or not a number: the message names the sweep, not a probe value
    "sweep over cphase rtol": _Rejection(
        "sweep", 1, f"{_SWEEP_PARAM} 'rtol' is not a config key of kind 'cphase'",
        config=_sweep("cphase", "rtol", [1e-6])),
    "sweep over an unknown key": _Rejection(
        "sweep", 1, f"{_SWEEP_PARAM} 'bogus' is not a config key of kind 'raman'",
        config=_sweep("raman", "bogus", [1.0])),
    "sweep over a list key": _Rejection(
        "sweep", 1, f"{_SWEEP_PARAM} 'detunings' is not a numeric key of kind 'raman'",
        config=_sweep("raman", "detunings", [1.0])),
    # an empty sweep or family list runs nothing and checks no sample count ...
    "empty sweep_values": _Rejection("sweep", 0, "sweep_values is empty; nothing to run",
                                     config=_sweep("raman", "detuning", [])),
    "empty ratios": _Rejection("cphase --set ratios=[]", 0, "ratios is empty; nothing to run"),
    "empty gammas": _Rejection("raman --set gammas=[]", 0, "gammas is empty; nothing to run"),
    "empty detunings": _Rejection("raman --set detunings=[]", 0,
                                  "detunings is empty; nothing to run"),
    "empty child ratios": _Rejection("sweep", 0, "ratios is empty; nothing to run", config={
        "kind": "sweep", "sweep_param": "omega", "sweep_values": [0.1], "ratios": []}),
    "empty ratios, huge duration": _Rejection(
        "cphase --set ratios=[] --set duration=1e308", 0, "ratios is empty; nothing to run"),
    # ... but leaves the other runs' inputs checked
    "empty gammas, huge rabi": _Rejection("raman --set gammas=[] --set rabi=1e200", 1,
                                          f"config error: rabi=1e+200 and detuning=4 {_RAMAN}"),
    "empty gammas, bad angle": _Rejection("raman --set gammas=[] --set target_angle=4", 1,
                                          "config error: target_angle must be in (0, pi]"),
    # a Raman rate that overflows or underflows
    "huge rabi": _Rejection(
        "raman --set rabi=1e200", 1, f"config error: rabi=1e+200 and detuning=4 {_RAMAN}"),
    "tiny rabi": _Rejection(
        "raman --set rabi=1e-300", 1, f"config error: rabi=1e-300 and detuning=4 {_RAMAN}"),
    "huge detuning": _Rejection("raman --set detuning=1e308 --set time_window=1", 1,
                                f"config error: rabi=1.33 and detuning=1e+308 {_RAMAN}"),
    # each run's pulse area is checked before --out is made, a commensurate
    # one after the snap to whole spectator periods: fine near omega=0.1
    "off-area duration": _Rejection("cphase --set duration=20", 1,
                                    f"{_CPHASE_AREA} 2.828427 {_OF_2PI} 31.61% (limit 1%)"),
    "off-area ratio": _Rejection("cphase --set ratios=[0.3] --set duration=29.2", 1,
                                 f"{_CPHASE_AREA} 10.530234 {_OF_2PI} 154.62% (limit 1%)"),
    "off-area zrot": _Rejection(
        "zrot --set pulse_shape=gaussian --set omega_a=300 --set sigma=2", 1, _ZROT_AREA),
    "off-area commensurate": _Rejection("cphase --set omega=0.3 --set commensurate=true", 1,
                                        f"{_CPHASE_AREA} 3.893142 {_OF_2PI} 5.86% (limit 1%)"),
    "huge duration": _Rejection("cphase --set duration=1e308", 1, f"{_CPHASE_AREA} "
                                f"{1.4142135623730953e307:.6f} {_OF_2PI} inf% (limit 1%)"),
    # t_start + duration == t_start leaves no pulse
    "zrot late start": _Rejection("zrot --set t_start=1e300", 1, f"{_LATE} 2.06783385 {_SUPPORT}"),
    "cphase late start": _Rejection("cphase --set t_start=1e300", 1,
                                    f"{_LATE} 29.2435867 {_SUPPORT}"),
    # a block energy or a validity ratio that overflows
    "huge v_f": _Rejection("cphase --set v_f=1e308", 1,
                           f"{_ENERGY} 2 v_f is not finite for v_f=1e+308"),
    "huge omega_a": _Rejection("cphase --set omega_a=1e308", 1, f"{_ENERGY} 2 omega_a + v_xx is "
                               "not finite for omega_a=1e+308, v_xx=5"),
    "huge v_xx - 2 v_f": _Rejection("cphase --set v_f=-8e307 --set v_xx=1.7e308", 1, f"{_ENERGY} "
                                    "v_xx - 2 v_f is not finite for v_f=-8e+307, v_xx=1.7e+308"),
    "cphase tiny v_f": _Rejection("cphase --set v_f=1e-320", 1, _SPECTATOR),
    "conditions tiny v_f": _Rejection("conditions --set v_f=1e-320", 1, _SPECTATOR),
    "cphase tiny v_xx - 2 v_f": _Rejection(
        "cphase --set v_f=1e-320 --set v_xx=1.7e-320", 1,
        f"config error: the biexciton ratio is not finite for {_TINY_V_F}, v_xx=1.70008e-320"),
    # a lab-frame carrier too fast to integrate
    "zrot huge omega_a": _Rejection("zrot --set omega_a=1e9", 1, _CARRIER),
    # a sample count too large to allocate, or to round up
    "tiny sample_interval": _Rejection(
        "cphase --set sample_interval=1e-9", 1, "config error: sample_interval 1e-09 ps over "
        "a 29.2436 ps span asks for 2.92e+10 samples; the limit is 1e+06"),
    "runaway family detuning": _Rejection(
        "raman --set detunings=[2,4e5]", 1, "config error: sample_interval 0.01 ps over a "
        "1.49631e+06 ps span asks for 1.5e+08 samples; the limit is 1e+06"),
    "huge wait": _Rejection("zrot --set wait=1e308", 1, _INF_SAMPLES),
    "huge time_window": _Rejection("raman --set time_window=1e308", 1, _INF_SAMPLES),
    # every sweep child is built before the first runs
    "sweep child zero v_f": _Rejection("sweep", 1, "config error: key 'v_f' must be nonzero",
                                       config=_sweep("cphase", "v_f", [0.85, 0.0])),
    "sweep child off-area zrot": _Rejection("sweep", 1, _ZROT_AREA, config=_sweep(
        "zrot", "sigma", [0.825, 2], pulse_shape="gaussian", omega_a=300)),
    "sweep child tiny v_f": _Rejection(
        "sweep", 1, _SPECTATOR, config=_sweep("cphase", "v_f", [0.85, 1e-320])),
    "sweep child huge omega_a": _Rejection(
        "sweep", 1, _CARRIER, config=_sweep("zrot", "omega_a", [2000, 1e9])),
    # two runs whose %g names are one: the second would overwrite the first
    "colliding sweep values": _Rejection(
        "sweep", 1, f"{_SHARED} omega=0.1000001 and omega=0.1000002 share the name omega_0.1",
        config=_sweep("cphase", "omega", [0.1000001, 0.1000002])),
    "colliding ratios": _Rejection(
        "cphase --set ratios=[0.15,0.15]", 1,
        f"{_SHARED} ratio=0.15 and ratio=0.15 share the name family_ratio_0.15.csv"),
    "colliding detunings": _Rejection(
        "raman --set detunings=[4.0000001,4.0000002]", 1, f"{_SHARED} detuning=4.0000001, "
        "gamma=0.1 and detuning=4.0000002, gamma=0.1 share the name raman_nu_4_gamma_0.1.csv"),
    # refused at run time before the first file: nan from overflow fails the
    # norm or trace check, a stiff loss the Liouvillian's conditioning check,
    # and the Magnus work bound a solve that would run for minutes
    "cphase huge v_xx": _Rejection("cphase --set v_xx=1e308", 2, _NAN_NORM),
    # a sweep child that fails at run time: the children before it are not published,
    # and an older run's file of the same name stays as it was
    "sweep child huge v_xx": _Rejection("sweep", 2, _NAN_NORM,
                                        config=_sweep("cphase", "v_xx", [5, 1e308])),
    "sweep child huge v_xx over an older run": _Rejection(
        "sweep", 2, _NAN_NORM, config=_sweep("cphase", "v_xx", [5, 1e308]),
        files={"out/v_xx_5/report.json": "older run\n"}),
    "raman huge rabi and detuning": _Rejection(
        "raman --set rabi=1e150 --set detuning=1e300", 2,
        "runtime error: trace drifted by 2.000e+00; the generator does not conserve the trace"),
    "stiff loss": _Rejection("raman --set gamma=1e10", 2, "runtime error: generator too stiff: "
                             "DOP853 would need ~1.5e+11 steps (limit 1e+06)"),
    "overflowing loss": _Rejection("raman --set gamma=1e308", 2, "runtime error: generator too "
                                   "stiff: DOP853 would need ~inf steps (limit 1e+06)"),
    "gaussian cphase huge v_xx": _Rejection(
        "cphase --set pulse_shape=gaussian --set v_xx=1e5", 2, f"{_MAGNUS} 1.42e+08 steps, "
        "1.52e+04 substeps in each of 9334 cells (limit 1.6e+07)"),
    "zrot huge omega": _Rejection("zrot --set omega=1e300", 2, f"{_MAGNUS} inf steps, inf "
                                  "substeps in each of 1 cells (limit 1.6e+07)"),
}


def _refusal_args(row, tmp_path):
    """Make ``row``'s files and config under ``tmp_path``; return its arguments."""
    for rel, text in row.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    args = row.args.replace("<tmp>", str(tmp_path)).split()
    if row.config is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(row.config if isinstance(row.config, str) else json.dumps(row.config))
        args += ["--config", str(cfg)]
    return [*args, "--out", str(tmp_path / "out")]


def _assert_refused(row, tmp_path, code, stdout, stderr):
    """One line on stdout for exit 0, on stderr otherwise; the other stream empty."""
    shown, other = (stdout, stderr) if row.code == 0 else (stderr, stdout)
    assert (code, shown.replace(str(tmp_path), "<tmp>"), other) == (row.code, row.line + "\n", "")


@pytest.fixture
def _deadline():
    """Fail a test still running after 30 s.  ``pytest.fail`` raises an
    ``OutcomeException``, which no ``except OSError`` in the CLI swallows."""
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("still running after 30 s"))
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_refused_input_exits_with_one_line_and_writes_nothing(tmp_path, case, _deadline):
    row = REJECTIONS[case]
    args = _refusal_args(row, tmp_path)
    before, made = _tree(tmp_path), (tmp_path / "out").exists()
    entries = sorted((tmp_path / "out").rglob("*"))  # directories too: no staging left
    start = time.perf_counter()
    with warnings.catch_warnings():  # a Python or numpy warning fails the row
        warnings.simplefilter("error")
        result = RUNNER.invoke(main, args, catch_exceptions=False)
    assert time.perf_counter() - start < 5.0
    _assert_refused(row, tmp_path, result.exit_code, result.stdout, result.stderr)
    assert _tree(tmp_path) == before
    assert sorted((tmp_path / "out").rglob("*")) == entries
    if row.code < 2:
        assert (tmp_path / "out").exists() == made


def test_a_refusal_reads_the_same_from_a_fresh_process(tmp_path):
    row = REJECTIONS["stiff loss"]
    argv = [sys.executable, "-m", "dotgates.cli", *_refusal_args(row, tmp_path)]
    before = _tree(tmp_path)
    proc = subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env(), timeout=60)
    _assert_refused(row, tmp_path, proc.returncode, proc.stdout, proc.stderr)
    assert _tree(tmp_path) == before


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


def test_bare_configs_take_the_library_defaults():
    for kind in ("cphase", "conditions"):
        assert build_config({"kind": kind}).dot_params() == DotPairParams()
    assert build_config({"kind": "raman"}).raman_params() == RamanParams()
    for kind in ("cphase", "zrot", "raman"):
        assert build_config({"kind": kind}).integrator() == IntegratorConfig()
    gauss = build_config({"kind": "cphase", "pulse_shape": "gaussian"}).envelope()
    assert gauss.truncation == GaussianPulse(1.0, 1.0).truncation


def test_zrot_alone_reads_rtol_and_omega_a():
    # zrot reads rtol on its Magnus path, and omega_a is its one pair energy
    cfg = build_config({"kind": "zrot", "rtol": 1e-10, "omega_a": 300.0})
    assert cfg.integrator() == IntegratorConfig(rtol=1e-10)
    assert cfg.dot_params().omega_a == 300.0
    for kind, key, readers in (("zrot", "atol", "no run reads it"),
                               ("zrot", "max_step", "no run reads it"),
                               ("raman", "rtol", "read only by zrot"),
                               ("raman", "atol", "no run reads it"),
                               ("raman", "max_step", "no run reads it")):
        with pytest.raises(ConfigError, match=f"'{key}' for kind '{kind}'; {readers}"):
            build_config({"kind": kind, key: 0.5})


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


def test_sweep_serial(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "sweep", "sweep_kind": "raman",
        "sweep_param": "detuning", "sweep_values": [2.0, 4.0],
    }))
    out = tmp_path / "run"
    replace, published = os.replace, []

    def spy(src, dst):
        rel = Path(dst).relative_to(out)
        if not any(part.startswith(_STAGE_PREFIX) for part in rel.parts):
            published.append(rel.as_posix())
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    result = _invoke(["sweep", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    # every file once, each report after the files beside it, the top one last
    assert published == ["detuning_2/populations.csv", "detuning_4/populations.csv",
                         "detuning_2/report.json", "detuning_4/report.json", "report.json"]
    # and nothing else: no staging directory
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "detuning_2", "detuning_2/populations.csv", "detuning_2/report.json",
        "detuning_4", "detuning_4/populations.csv", "detuning_4/report.json", "report.json"]
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


def test_raman_gammas_alone_run_at_the_configured_detuning(tmp_path):
    out = tmp_path / "run"
    assert _invoke(["raman", "--set", "gammas=[0.05,0.15]", "--out", str(out)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "raman_nu_4_gamma_0.05.csv", "raman_nu_4_gamma_0.15.csv", "report.json", "schema.json"]
    runs = json.loads((out / "report.json").read_text())["runs"]
    assert [(r["detuning"], r["gamma"]) for r in runs] == [(4.0, 0.05), (4.0, 0.15)]


@pytest.mark.parametrize("command, help_line, extra", [
    ("cphase", "Two-qubit controlled-phase gate from one calibrated pulse.", []),
    ("zrot", "Single-qubit phase gate via exciton shelving between two pi pulses.", []),
    ("raman", "Raman spin flip through a lossy excited level.", []),
    ("conditions", "Evaluate the weak-driving validity ratios for a pulse, no integration.",
     []),
    ("sweep", "Run a child experiment once per value of one numeric config key.", []),
])
def test_subcommand_help_names_its_options(command, help_line, extra):
    # every experiment kind is registered from the one table
    assert set(_KINDS) == set(EXPERIMENT_KINDS)
    result = _invoke([command, "--help"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].endswith(f" {command} [OPTIONS]") and lines[2].strip() == help_line
    options = [line.split()[0] for line in lines[lines.index("Options:") + 1:]]
    assert options == ["--set", "--out", "--config", *extra, "--help"]
    listed = _invoke(["--help"]).output.splitlines()
    assert any(line.split()[:1] == [command] for line in listed)


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


def test_sweep_has_no_jobs_option(tmp_path):
    # children run in turn; there is no parallel path to select
    out = tmp_path / "run"
    result = _invoke(["sweep", "--jobs", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option '--jobs'" in _text(result)
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


_SPECIAL_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-300, 1e300, 1e-301, 1e301,
                   1e308, -1e308, 1.7976931348623157e308, 1e100, -1e-100, 1.5e-245,
                   9.99999999999e99, 9.999999999995e99, 1.0, -1.0, 0.5, 123.456]


def test_csv_writer_matches_percent_format_on_special_values(tmp_path):
    for ncols in (1, 3, len(_SPECIAL_VALUES)):
        _assert_writes_like_percent(tmp_path, _SPECIAL_VALUES, ncols)


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


def _write_shrinking_shapes(directory, seed):
    """Write 13 x (_CSV_BLOCK_ROWS + 1), 4 x 3, 7 x _CSV_BLOCK_ROWS and 1 x 1
    (columns x rows) files into ``directory``, in that order; the special
    values go only into the three later, smaller ones.  Returns the names of
    the files that differ from ``"%.11e"``."""
    rng = np.random.default_rng(seed)
    wrong = []
    shapes = [(13, _CSV_BLOCK_ROWS + 1), (4, 3), (7, _CSV_BLOCK_ROWS), (1, 1)]
    for index, (ncols, rows) in enumerate(shapes):
        values = rng.standard_normal(rows * ncols) * 10.0 ** rng.integers(-300, 300, rows * ncols)
        if index:
            picks = rng.permutation(len(_SPECIAL_VALUES))[:values.size]
            values[rng.choice(values.size, picks.size, replace=False)] = \
                np.array(_SPECIAL_VALUES)[picks]
        columns = list(values.reshape(rows, ncols).T)
        header = [f"c{i}" for i in range(ncols)]
        path = directory / f"shape{index}.csv"
        _write_csv(path, header, columns)
        if path.read_bytes() != _reference_csv(header, columns):
            wrong.append(path.name)
    return wrong


def test_csv_writer_reuses_its_working_set_across_shapes(tmp_path):
    # the formatter's working set is grown to the largest block so far: a
    # smaller block must print none of an earlier block's cells
    assert _write_shrinking_shapes(tmp_path, 21) == []
    _assert_writes_like_percent(tmp_path, [], ncols=4)  # header only


def test_csv_writer_keeps_one_working_set_per_thread(tmp_path):
    # threads that format at once must not share one working set
    names = ["t1", "t2", "t3"]
    barrier = threading.Barrier(len(names), timeout=60)
    results = {}

    def worker(name, seed):
        directory = tmp_path / name
        directory.mkdir()
        results[name] = []
        for r in range(4):
            barrier.wait()
            results[name].append(_write_shrinking_shapes(directory, seed + r))

    threads = [threading.Thread(target=worker, args=(name, 100 * i))
               for i, name in enumerate(names)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {name: [[]] * 4 for name in names}


def test_format_rows_allocates_little_beyond_its_output():
    # numpy reports its buffers to tracemalloc; fresh temporaries for every
    # block peaked at 6.8 times the output
    columns = list(np.random.default_rng(8).standard_normal((_CSV_BLOCK_ROWS, 13)).T)
    ratio = []

    def measure():  # in a new thread, whose working set is only this shape's
        _format_rows(columns)
        tracemalloc.start()
        try:
            out = _format_rows(columns)
            ratio.append(tracemalloc.get_traced_memory()[1] / len(out))
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert ratio and ratio[0] <= 1.5


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


@pytest.mark.parametrize("phase", [None, "abc"])
@pytest.mark.parametrize("time, verdict", [
    ("xyz", "unparseable (line 5: could not convert string to float: 'xyz')"),
    ("nan", "line 5: non-finite t_ps nan"),
    ("-inf", "line 5: non-finite t_ps -inf"),
    ("0.01", "line 5: t_ps 0.01 runs back"),
])
def test_verify_checks_the_time_column(tmp_path, time, verdict, phase):
    # the phase columns stay unchecked: a word there alone passes
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / "traj_01.csv"
    if phase:
        _set_cell(path, 9, "phase_01", phase)
        assert _verify_lines(out)[0] == 0
    _set_cell(path, 5, "t_ps", time)
    code, lines = _verify_lines(out)
    assert code == 2
    assert [ln for ln in lines if ln.startswith("FAIL")] == [f"FAIL traj_01.csv: {verdict}"]


def test_verify_skips_a_leftover_staging_directory(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    clean = _verify_lines(out)
    # what a run killed mid-write leaves: a truncated CSV and report
    stage = Path(tempfile.mkdtemp(prefix=_STAGE_PREFIX, dir=out))
    text = (out / "traj_00.csv").read_text()
    (stage / "traj_00.csv").write_text(text[:len(text) // 2])
    (stage / "report.json").write_text('{"kind": ')
    (out / "notes.csv").mkdir()  # a directory is no artifact either
    assert clean[0] == 0 and _verify_lines(out) == clean
    # read as a run directory of its own, the same files fail
    assert _verify_lines(stage)[0] == 2


def test_verify_lets_rounded_times_tie(tmp_path):
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / "traj_01.csv"
    _set_cell(path, 5, "t_ps", path.read_text().splitlines()[3].split(",")[0])
    assert _verify_lines(out)[0] == 0


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


def test_sample_count_cap_rejects_run_before_allocating():
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate and scipy.special cost ~0.6 s of every CLI start
    code = ("import sys, dotgates.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_zrot_runs_leave_scipy_integrate_unloaded(tmp_path):
    # both envelopes take the batched Magnus path, so no zrot run needs DOP853
    code = (
        "import sys; from pathlib import Path; "
        "from dotgates.cli import run_experiment; from dotgates.config import build_config; "
        "run_experiment(build_config({'kind': 'zrot'}), Path('square')); "
        "run_experiment(build_config({'kind': 'zrot', 'pulse_shape': 'gaussian', "
        "'omega_a': 300.0}), Path('gaussian')); "
        "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), cwd=tmp_path, check=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "square" / "report.json").exists()
    assert (tmp_path / "gaussian" / "report.json").exists()


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


@pytest.mark.parametrize("shift", [-1, 0])
def test_verify_fails_an_extra_cell_at_the_scan_buffer_edge(tmp_path, shift):
    # the extra comma is the last byte of the first 64 KiB buffer after the
    # header (shift -1) or the first byte of the second (shift 0), inside a
    # row that straddles the two
    out = tmp_path / "c"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / "traj_01.csv"
    data = path.read_bytes()
    edge = data.index(b"\n") + 1 + _SCAN_BYTES
    start = data.rindex(b"\n", 0, edge - 2) + 1
    cell = b"0" * (edge + shift - start - 1) + b"1,"  # reads as 1.0
    data = data[:start] + cell + data[start:]
    assert data[edge + shift] == ord(",") and data.index(b"\n", start) > edge
    path.write_bytes(data)
    code, lines = _verify_lines(out)
    assert code == 2
    line = data.count(b"\n", 0, start) + 1
    assert f"FAIL traj_01.csv: unparseable (line {line}: 8 cells, the header has 7)" in lines


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
    # a blank line is skipped, but still counted
    out = tmp_path / "blank"
    assert _invoke(["cphase", "--out", str(out)]).exit_code == 0
    path = out / "traj_01.csv"
    _set_cell(path, 7, "re_01", "abc")
    lines = path.read_text().splitlines()
    lines[3] = ""  # file line 4
    path.write_text("\n".join(lines) + "\n")
    code, lines = _verify_lines(out)
    assert code == 2
    assert ("FAIL traj_01.csv: unparseable (line 7: could not convert string to float: "
            "'abc')") in lines


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
        assert _format_rows(block.T) == expected.encode()


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
        columns += [accumulated_phase(traj, lbl) for lbl in labels]
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
    # verify holds two 64 KiB buffers, the parsed array (the checked columns,
    # the time and the last) and a few columns of row results, never a whole
    # file: traj_11.csv alone is ~2 MB
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
                   accumulated_phase(traj, "a"), np.full(4, math.nan)]
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

