"""Command-line front end: run experiments, write JSON reports and CSV curves.

Every subcommand reads an optional flat JSON config (``--config``), applies
``--set key=value`` overrides, runs, and writes into ``--out``:

* ``report.json``   - the experiment report, floats rounded to 12
  significant digits so a rewrite of identical physics is byte-identical;
* ``*.csv``         - sampled trajectories (``t_ps`` plus ``re_``/``im_``
  amplitude columns and ``phase_`` columns for pure states, ``pop_`` and
  ``coh_`` columns for density matrices).  Phase columns hold ``nan``
  where the amplitude is too small to carry a phase.

Exit codes: 0 on success, 1 for configuration problems, 2 for runtime
failures (integration, pulse calibration, undefined phases).

``dotgates verify --out DIR`` re-reads emitted CSV files and checks the
conservation laws (norm or trace) row by row; it exits 2 on violation.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import click
import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_config_file,
)
from .dynamics import (
    IntegrationError,
    PhaseUndefinedError,
    Trajectory,
    accumulated_phase,
    to_rotating_frame,
)
from .gates import (
    PulseAreaError,
    pulse_summary,
    run_cphase,
    run_raman_x,
    run_z_rotation,
)
from .model import check_conditions

__all__ = ["main", "run_experiment", "round_floats"]

_CSV_FMT = "%.11e"  # 12 significant digits
_NORM_CHECK_TOL = 2e-6  # integration drift plus serialization rounding


def round_floats(obj: Any, significant: int = 12) -> Any:
    """Round every float in a JSON-like structure to ``significant`` digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if obj == 0.0 or not math.isfinite(obj):
            return obj
        return float(f"{obj:.{significant - 1}e}")
    if isinstance(obj, dict):
        return {k: round_floats(v, significant) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, significant) for v in obj]
    return obj


def _write_json(path: Path, obj: Mapping[str, Any]) -> None:
    payload = json.dumps(round_floats(dict(obj)), indent=2, sort_keys=True,
                         allow_nan=False)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(payload + "\n")
    os.replace(tmp, path)


def _fmt_cell(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return _CSV_FMT % x


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    n = int(columns[0].size) if columns else 0
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt_cell(float(c[i])) for c in columns))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _pure_traj_columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    header = ["t_ps"]
    cols: list[np.ndarray] = [traj.times]
    for lbl in traj.basis.labels:
        amp = traj.amplitude(lbl)
        header += [f"re_{lbl}", f"im_{lbl}"]
        cols += [amp.real, amp.imag]
    for lbl in traj.basis.labels:
        header.append(f"phase_{lbl}")
        try:
            cols.append(accumulated_phase(traj, lbl).values)
        except (PhaseUndefinedError, ValueError):
            cols.append(np.full(traj.times.size, math.nan))
    return header, cols


def _density_traj_columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    header = ["t_ps"]
    cols: list[np.ndarray] = [traj.times]
    labels = traj.basis.labels
    for lbl in labels:
        header.append(f"pop_{lbl}")
        cols.append(traj.population(lbl))
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            header.append(f"coh_{a}_{b}")
            cols.append(np.abs(traj.states[:, traj.basis.index(a), traj.basis.index(b)]))
    return header, cols


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    if traj.kind == "pure":
        header, cols = _pure_traj_columns(traj)
    else:
        header, cols = _density_traj_columns(traj)
    _write_csv(path, header, cols)


def _run_cphase_single(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    report, trajs = run_cphase(p, cfg.envelope(), cfg.integrator(),
                               cfg["threshold_biexciton"], cfg["threshold_spectator"])
    for key, traj in trajs.items():
        _write_trajectory(out / f"traj_{key}.csv", traj)
    d = report.to_dict()
    _write_json(out / "report.json", d)
    return d


def _run_cphase_family(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    """One run per drive-to-coupling ratio; emits per-ratio phase/amplitude
    curves for the driven (11) and idle-partner (10) blocks."""
    p = cfg.dot_params()
    runs = []
    for r in cfg["ratios"]:
        env = cfg.envelope(omega=r * abs(p.v_f))
        report, trajs = run_cphase(p, env, cfg.integrator(),
                                   cfg["threshold_biexciton"],
                                   cfg["threshold_spectator"])
        t10, t11 = trajs["10"], trajs["11"]
        header = ["t_ps", "phase_10", "amp_10", "phase_11", "amp_11"]
        cols = [
            t10.times,
            accumulated_phase(t10, "10").values,
            np.abs(t10.amplitude("10")),
            accumulated_phase(t11, "11").values,
            np.abs(t11.amplitude("11")),
        ]
        name = f"family_ratio_{r:g}.csv"
        _write_csv(out / name, header, cols)
        runs.append({
            "ratio": r,
            "omega": r * abs(p.v_f),
            "file": name,
            "gate_time": report.gate_time,
            "phases": dict(report.phases),
            "theta": report.theta,
            "fidelity": report.fidelity,
        })
    schema = {
        "family": "cphase_ratio",
        "parameter": "omega / v_f",
        "files": [run["file"] for run in runs],
        "columns": {
            "t_ps": "sample time (ps)",
            "phase_10": "unwrapped phase of the returning 10 amplitude (rad)",
            "amp_10": "magnitude of the 10 amplitude",
            "phase_11": "unwrapped phase of the returning 11 amplitude (rad)",
            "amp_11": "magnitude of the 11 amplitude",
        },
    }
    _write_json(out / "schema.json", schema)
    d = {"kind": "cphase_family", "runs": runs}
    _write_json(out / "report.json", d)
    return d


def _run_zrot(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    report, traj = run_z_rotation(p, cfg.zgate(), cfg.integrator())
    _write_trajectory(out / "trajectory_lab.csv", traj)
    # exciton amplitude with the optical carrier divided out
    _write_trajectory(out / "trajectory_rot.csv",
                      to_rotating_frame(traj, p.omega_a, (0, 0, 1)))
    d = report.to_dict()
    _write_json(out / "report.json", d)
    return d


def _run_raman_single(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    report, traj = run_raman_x(cfg.raman_params(), cfg.integrator(),
                               cfg["time_window"])
    _write_trajectory(out / "populations.csv", traj)
    d = report.to_dict()
    _write_json(out / "report.json", d)
    return d


def _run_raman_family(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    detunings = cfg["detunings"] or (cfg["detuning"],)
    gammas = cfg["gammas"] if cfg["gammas"] is not None else (cfg["gamma"],)
    runs = []
    for g in gammas:
        for nu in detunings:
            report, traj = run_raman_x(cfg.raman_params(detuning=nu, gamma=g),
                                       cfg.integrator(), cfg["time_window"])
            name = f"raman_nu_{nu:g}_gamma_{g:g}.csv"
            header, cols = _density_traj_columns(traj)
            _write_csv(out / name, header, cols)
            runs.append({
                "detuning": nu,
                "gamma": g,
                "file": name,
                "pi_time_estimate": report.pi_time_estimate,
                "pi_time": report.pi_time,
                "fidelity": report.fidelity,
                "lost": report.lost,
            })
    schema = {
        "family": "raman_detuning_gamma",
        "parameters": ["detuning", "gamma"],
        "files": [run["file"] for run in runs],
        "columns": {
            "t_ps": "sample time (ps)",
            "pop_*": "level populations",
            "coh_*": "coherence magnitudes |rho_ij|",
        },
    }
    _write_json(out / "schema.json", schema)
    d = {"kind": "raman_family", "runs": runs}
    _write_json(out / "report.json", d)
    return d


def _run_conditions(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    env = cfg.envelope()
    rep = check_conditions(p, env, cfg["threshold_biexciton"],
                           cfg["threshold_spectator"])
    d = {
        "kind": "conditions",
        "dot_params": {"omega_a": p.omega_a, "v_f": p.v_f, "v_xx": p.v_xx},
        "pulse": pulse_summary(env),
        "conditions": rep.as_dict(),
    }
    _write_json(out / "report.json", d)
    return d


def _sweep_child_raws(cfg: ExperimentConfig) -> list[tuple[float, dict[str, Any]]]:
    base = dict(cfg["child_base"])
    return [
        (float(v), {**base, "kind": cfg["sweep_kind"], cfg["sweep_param"]: float(v)})
        for v in cfg["sweep_values"]
    ]


def _run_sweep_child(raw: dict[str, Any], out_str: str) -> dict[str, Any]:
    return run_experiment(build_config(raw), Path(out_str))


def _run_sweep(cfg: ExperimentConfig, out: Path, jobs: int) -> dict[str, Any]:
    children = _sweep_child_raws(cfg)
    param = cfg["sweep_param"]
    if not children:
        click.echo("sweep_values is empty; nothing to run")
        return {"kind": "sweep", "sweep_param": param, "runs": []}
    dirs = [out / f"{param}_{v:g}" for v, _ in children]
    raws = [raw for _, raw in children]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_sweep_child, raws, [str(d) for d in dirs]))
    else:
        reports = [_run_sweep_child(raw, str(d)) for raw, d in zip(raws, dirs)]
    runs = [
        {"value": v, "dir": d.name, "report": rep}
        for (v, _), d, rep in zip(children, dirs, reports)
    ]
    d = {"kind": "sweep", "sweep_kind": cfg["sweep_kind"], "sweep_param": param,
         "runs": runs}
    _write_json(out / "report.json", d)
    return d


def run_experiment(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict[str, Any]:
    """Run one validated experiment and write its artifacts under ``out``.

    Returns the report dict exactly as serialized (before rounding).
    """
    out = Path(out)
    if cfg.kind == "sweep" and not cfg["sweep_values"]:
        return _run_sweep(cfg, out, jobs)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.kind == "cphase":
        if cfg["ratios"] is not None:
            return _run_cphase_family(cfg, out)
        return _run_cphase_single(cfg, out)
    if cfg.kind == "zrot":
        return _run_zrot(cfg, out)
    if cfg.kind == "raman":
        if cfg["detunings"] is not None or cfg["gammas"] is not None:
            return _run_raman_family(cfg, out)
        return _run_raman_single(cfg, out)
    if cfg.kind == "conditions":
        return _run_conditions(cfg, out)
    if cfg.kind == "sweep":
        return _run_sweep(cfg, out, jobs)
    raise ConfigError(f"unknown kind {cfg.kind!r}")


def _prepare(kind: str, config_path: str | None,
             overrides: tuple[str, ...]) -> ExperimentConfig:
    raw = load_config_file(config_path) if config_path else {}
    if "kind" in raw and raw["kind"] != kind:
        raise ConfigError(
            f"config kind {raw['kind']!r} does not match subcommand {kind!r}")
    raw = apply_overrides(raw, overrides)
    raw["kind"] = kind
    return build_config(raw)


def _execute(kind: str, config_path: str | None, out: str,
             overrides: tuple[str, ...], jobs: int = 1) -> None:
    try:
        cfg = _prepare(kind, config_path, overrides)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(1)
    try:
        run_experiment(cfg, Path(out), jobs=jobs)
    except (IntegrationError, PulseAreaError, PhaseUndefinedError) as e:
        click.echo(f"runtime error: {e}", err=True)
        sys.exit(2)
    if cfg.kind == "sweep" and not cfg["sweep_values"]:
        return
    click.echo(f"wrote {Path(out) / 'report.json'}")


def _common_options(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file.")(fn)
    fn = click.option("--out", default="out", show_default=True,
                      help="Output directory.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override a config key (repeatable).")(fn)
    return fn


@click.group()
@click.version_option(package_name="dotgates")
def main() -> None:
    """Simulate optically driven spin gates in a coupled quantum-dot pair."""


@main.command()
@_common_options
def cphase(config_path: str | None, out: str, overrides: tuple[str, ...]) -> None:
    """Two-qubit controlled-phase gate from one calibrated pulse."""
    _execute("cphase", config_path, out, overrides)


@main.command()
@_common_options
def zrot(config_path: str | None, out: str, overrides: tuple[str, ...]) -> None:
    """Single-qubit phase gate via exciton shelving between two pi pulses."""
    _execute("zrot", config_path, out, overrides)


@main.command()
@_common_options
def raman(config_path: str | None, out: str, overrides: tuple[str, ...]) -> None:
    """Raman spin flip through a lossy excited level."""
    _execute("raman", config_path, out, overrides)


@main.command()
@_common_options
def conditions(config_path: str | None, out: str, overrides: tuple[str, ...]) -> None:
    """Evaluate the weak-driving validity ratios for a pulse, no integration."""
    _execute("conditions", config_path, out, overrides)


@main.command()
@_common_options
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="Parallel worker processes.")
def sweep(config_path: str | None, out: str, overrides: tuple[str, ...],
          jobs: int) -> None:
    """Run a child experiment once per value of one numeric config key."""
    _execute("sweep", config_path, out, overrides, jobs=jobs)


def _verify_csv(path: Path) -> tuple[str, str]:
    """Check conservation laws in one CSV; returns (status, message)."""
    lines = path.read_text().strip().splitlines()
    if not lines:
        return "skip", "empty file"
    header = lines[0].split(",")
    re_cols = [i for i, h in enumerate(header) if h.startswith("re_")]
    pop_cols = [i for i, h in enumerate(header) if h.startswith("pop_")]
    if re_cols:
        im_cols = [i for i, h in enumerate(header) if h.startswith("im_")]
        for ln, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            norm = sum(float(cells[i]) ** 2 for i in re_cols + im_cols)
            if abs(norm - 1.0) > _NORM_CHECK_TOL:
                return "fail", f"line {ln}: norm {norm:.9f} deviates from 1"
        return "ok", f"{len(lines) - 1} rows, norm conserved"
    if pop_cols:
        for ln, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            pops = [float(cells[i]) for i in pop_cols]
            if min(pops) < -1e-6:
                return "fail", f"line {ln}: negative population {min(pops):.3e}"
            if abs(sum(pops) - 1.0) > _NORM_CHECK_TOL:
                return "fail", f"line {ln}: trace {sum(pops):.9f} deviates from 1"
        return "ok", f"{len(lines) - 1} rows, trace conserved"
    return "skip", "no amplitude or population columns"


@main.command()
@click.option("--out", default="out", show_default=True,
              help="Directory with previously emitted artifacts.")
def verify(out: str) -> None:
    """Re-read emitted CSV/JSON artifacts and check conservation laws."""
    base = Path(out)
    if not base.exists():
        click.echo(f"config error: no such directory {out!r}", err=True)
        sys.exit(1)
    failed = 0
    checked = 0
    for f in sorted(base.rglob("*.csv")):
        status, msg = _verify_csv(f)
        rel = f.relative_to(base)
        if status == "fail":
            failed += 1
            click.echo(f"FAIL {rel}: {msg}")
        elif status == "ok":
            checked += 1
            click.echo(f"ok   {rel}: {msg}")
    for f in sorted(base.rglob("*.json")):
        rel = f.relative_to(base)
        try:
            json.loads(f.read_text())
        except json.JSONDecodeError as e:
            failed += 1
            click.echo(f"FAIL {rel}: invalid JSON ({e.msg})")
        else:
            checked += 1
            click.echo(f"ok   {rel}: valid JSON")
    click.echo(f"verified {checked} files, {failed} failures")
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    main()
