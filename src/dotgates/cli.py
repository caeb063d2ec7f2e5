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
failures (integration, a failed linear-algebra routine, pulse calibration,
undefined phases, a report value that is ``nan`` or ``inf``).  A run prints no numpy floating-point warning:
a non-finite result fails a conservation check or the report instead.

``dotgates verify --out DIR`` re-reads every emitted CSV and JSON file and
reports each one ``ok`` or ``FAIL``; it exits 2 on any failure.  CSV rows
must conserve the norm (``re_``/``im_`` files) or the trace (``pop_``
files, populations >= -1e-6) to 2e-6, and family ``amp_`` magnitudes must
lie in [0, 1 + 2e-6]; ``nan`` or ``inf`` in a checked column fails, and so
does an empty, header-only, uncheckable or unparseable CSV, and one with a
row of more or fewer cells than its header.  Failures name the file line,
counting the header as line 1.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

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

__all__ = ["main", "run_experiment", "round_floats", "NonFiniteReportError"]

_CSV_FMT = "%.11e"  # 12 significant digits
_CSV_BLOCK_ROWS = 1024  # rows formatted per numpy pass; bounds the writer's memory
_CELL_BYTES = 20  # a padded "-d.ddddddddddde+ddd" cell plus its separator
_EXP_OFFSET = 320  # decimal exponents handled by the lookup tables: [-320, 320)
_P10_OFFSET = 160  # correctly rounded 10**k in the scaling table: k in [-160, 160)
_NORM_CHECK_TOL = 2e-6  # integration drift plus serialization rounding
_SCAN_BYTES = 1 << 16  # verify counts commas in reused chunks: no per-file allocation
_RUN_LISTS = ("sweep_values", "ratios", "detunings", "gammas")  # empty: nothing to run


class NonFiniteReportError(ValueError):
    """A report holds ``nan`` or ``inf``, which JSON cannot carry."""


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


def _non_finite_key(obj: Any, key: str = "") -> str | None:
    """Dotted key of the first ``nan`` or ``inf`` float in a JSON-like ``obj``."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    pairs = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    found = (_non_finite_key(v, f"{key}.{k}" if key else str(k)) for k, v in pairs)
    return next(filter(None, found), None)


def _write_json(path: Path, obj: Mapping[str, Any]) -> None:
    try:
        payload = json.dumps(round_floats(dict(obj)), indent=2, sort_keys=True,
                             allow_nan=False)
    except ValueError:
        raise NonFiniteReportError(
            f"{path.name} would hold a non-finite {_non_finite_key(dict(obj))}") from None
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(payload + "\n")
    os.replace(tmp, path)


@functools.cache
def _cell_tables() -> dict[str, np.ndarray]:
    """Lookup tables for `_format_rows`, built on first use so that importing
    the CLI costs nothing for runs that write no CSV.

    A cell is five native ``uint32`` words of four ASCII bytes, 0 bytes being
    padding: ``[sign, d0, '.', d1] [d2..d5] [d6..d9] [d10, d11, 'e', esign]
    [e100, e10, e1, separator]``.
    """
    def words(rows: Any) -> np.ndarray:
        return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()

    def digits(n: int, width: int) -> np.ndarray:
        return 48 + np.arange(n)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10

    d2 = digits(100, 2)
    z = np.zeros(100, dtype=int)
    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET)
    ae, ze = np.abs(e), 0 * e
    return {
        "p10": np.array([float(f"1e{k}") for k in range(-_P10_OFFSET, _P10_OFFSET)]),
        "lead": words(np.column_stack([z, d2[:, 0], z + ord("."), d2[:, 1]])),
        "quad": words(digits(10000, 4)),
        "tail": words(np.column_stack([d2, z + ord("e"), z])),
        "esign": words(np.column_stack([ze, ze, ze, np.where(e < 0, ord("-"), ord("+"))])),
        "exp": words(np.column_stack([np.where(ae >= 100, 48 + ae // 100, 0),
                                      48 + ae // 10 % 10, 48 + ae % 10, ze])),
        "minus": words([ord("-"), 0, 0, 0]),
        "nan": words(list(b"nan") + [0]),
        "comma": words([0, 0, 0, ord(",")]),
        "newline": words([0, 0, 0, ord("\n")]),
        "separator_only": words([0, 0, 0, 255]),
    }


def _scaled(a: np.ndarray, e: np.ndarray, p10: np.ndarray) -> np.ndarray:
    """``a * 10**(11 - e)`` through two correctly rounded factors, so that
    no intermediate overflows or goes subnormal for ``a`` in [1e-300, 1e300]."""
    k = 11 - e
    h = k >> 1
    return a * p10[h + _P10_OFFSET] * p10[k - h + _P10_OFFSET]


def _format_rows(block: np.ndarray) -> bytes:
    """CSV lines for a 2-d float block, byte-identical to ``"%.11e" % x`` per cell.

    The decimal mantissa is ``rint(|x| * 10**(11-e))``; the float scaling is
    off the exact product by under 5e-16 relative, i.e. under 5e-4 for a
    12-digit mantissa, so the rounding is exact unless the scaled value lies
    within 1e-3 of a half.  Those cells, ``inf`` and magnitudes outside
    [1e-300, 1e300] are printed by ``%`` itself; zeros and ``nan`` take
    fixed patterns.
    """
    t = _cell_tables()
    rows, ncols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-300) & (a <= 1e300)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s = _scaled(a, e, t["p10"])
    off = (s >= 1e12).astype(np.intp) - (s < 1e11)
    if off.any():
        e += off
        s = _scaled(a, e, t["p10"])
    m = np.rint(s)
    fast &= (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) >= 1e-3)
    m = np.where(fast, m, 0.0)  # zeros print as 0.00000000000e+00
    # digit groups [d0 d1] [d2..d5] [d6..d9] [d10 d11]; every step is exact
    q0 = np.floor(m / 1e10)
    m -= q0 * 1e10
    q1 = np.floor(m / 1e6)
    m -= q1 * 1e6
    q2 = np.floor(m / 1e2)
    m -= q2 * 1e2
    e += _EXP_OFFSET
    cells = np.empty((rows, ncols, 5), dtype=np.uint32)
    w = cells.reshape(-1, 5)
    w[:, 0] = t["lead"][q0.astype(np.intp)] | np.signbit(x) * t["minus"]
    w[:, 1] = t["quad"][q1.astype(np.intp)]
    w[:, 2] = t["quad"][q2.astype(np.intp)]
    w[:, 3] = t["tail"][m.astype(np.intp)] | t["esign"][e]
    cells[:, :, 4] = t["exp"][e].reshape(rows, ncols)
    cells[:, :-1, 4] |= t["comma"]
    cells[:, -1, 4] |= t["newline"]
    buf = w.view(np.uint8)
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:
        nan = np.isnan(x[slow])
        w[slow[nan], 0] = t["nan"]
        w[slow[nan], 1:4] = 0
        w[slow[nan], 4] &= t["separator_only"]
        for i in slow[~nan]:
            txt = (_CSV_FMT % float(x[i])).encode()
            buf[i, :_CELL_BYTES - 1] = 0
            buf[i, :len(txt)] = np.frombuffer(txt, dtype=np.uint8)
    return buf[buf != 0].tobytes()


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    n = int(columns[0].size) if columns else 0
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(_format_rows(block.astype(np.float64, copy=False)))
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
    return report.to_dict()


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
    return {"kind": "cphase_family", "runs": runs}


def _run_zrot(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    report, traj = run_z_rotation(p, cfg.zgate(), cfg.integrator())
    _write_trajectory(out / "trajectory_lab.csv", traj)
    # exciton amplitude with the optical carrier divided out
    _write_trajectory(out / "trajectory_rot.csv",
                      to_rotating_frame(traj, p.omega_a, (0, 0, 1)))
    return report.to_dict()


def _run_raman_single(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    report, traj = run_raman_x(cfg.raman_params(), cfg.integrator(),
                               cfg["time_window"])
    _write_trajectory(out / "populations.csv", traj)
    return report.to_dict()


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
    return {"kind": "raman_family", "runs": runs}


def _run_conditions(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    env = cfg.envelope()
    rep = check_conditions(p, env, cfg["threshold_biexciton"],
                           cfg["threshold_spectator"])
    return {
        "kind": "conditions",
        "dot_params": {"omega_a": p.omega_a, "v_f": p.v_f, "v_xx": p.v_xx},
        "pulse": pulse_summary(env),
        "conditions": rep.as_dict(),
    }


def _run_sweep_child(raw: dict[str, Any], out_str: str) -> dict[str, Any]:
    return run_experiment(build_config(raw), Path(out_str))


def _run_sweep(cfg: ExperimentConfig, out: Path, jobs: int) -> dict[str, Any]:
    children = cfg.sweep_child_raws()
    param = cfg["sweep_param"]
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
    return {"kind": "sweep", "sweep_kind": cfg["sweep_kind"], "sweep_param": param,
            "runs": runs}


def _empty_run_list(cfg: ExperimentConfig) -> str | None:
    """The sweep or family list that ``cfg`` or its sweep children set to ``[]``, if any."""
    values = {**cfg.values.get("child_base", {}), **cfg.values}
    return next((k for k in _RUN_LISTS if values.get(k) in ((), [])), None)


@np.errstate(all="ignore")
def run_experiment(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> dict[str, Any]:
    """Run one validated experiment and write its artifacts under ``out``.

    Returns the report dict exactly as serialized (before rounding).  An
    empty sweep or family list prints ``nothing to run`` and writes nothing.
    numpy floating-point warnings are silenced: a ``nan`` or ``inf`` fails
    a conservation check or :func:`_write_json` instead.
    """
    out = Path(out)
    empty = _empty_run_list(cfg)
    if empty:
        click.echo(f"{empty} is empty; nothing to run")
        return {"kind": cfg.kind, "runs": []}
    out.mkdir(parents=True, exist_ok=True)
    if cfg.kind == "cphase":
        d = (_run_cphase_single if cfg["ratios"] is None else _run_cphase_family)(cfg, out)
    elif cfg.kind == "zrot":
        d = _run_zrot(cfg, out)
    elif cfg.kind == "raman":
        family = cfg["detunings"] is not None or cfg["gammas"] is not None
        d = (_run_raman_family if family else _run_raman_single)(cfg, out)
    elif cfg.kind == "conditions":
        d = _run_conditions(cfg, out)
    elif cfg.kind == "sweep":
        d = _run_sweep(cfg, out, jobs)
    else:
        raise ConfigError(f"unknown kind {cfg.kind!r}")
    _write_json(out / "report.json", d)
    return d


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
    except (IntegrationError, PulseAreaError, PhaseUndefinedError, NonFiniteReportError,
            np.linalg.LinAlgError) as e:
        click.echo(f"runtime error: {e}", err=True)
        sys.exit(2)
    if _empty_run_list(cfg):
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


def _load_columns(path: Path, cols: list[int], width: int) -> np.ndarray:
    """Parse the given columns of a CSV's data rows, in that order.

    The last column is parsed as well, so that a short row is an error, and
    a long row leaves more than ``width - 1`` commas per parsed line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header only: no data
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols + [width - 1],
                          ndmin=2, comments=None)
    buf, hit = np.empty(_SCAN_BYTES, dtype=np.uint8), np.empty(_SCAN_BYTES, dtype=bool)
    commas = 0
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            commas += np.count_nonzero(np.equal(buf[:n], ord(","), out=hit[:n]))
    if commas != (width - 1) * (data.shape[0] + 1):
        raise ValueError("a row's cell count differs from the header's")
    return data[:, :-1]


def _first_bad_line(path: Path, width: int) -> str | None:
    """``line N: <reason>`` for the first data row that does not have ``width``
    numeric cells; line numbers count the header."""
    with path.open(errors="replace") as fh:
        for n, line in enumerate(itertools.islice(fh, 1, None), start=2):
            if not line.strip():
                continue  # np.loadtxt skips blank lines too
            cells = line.rstrip("\n").split(",")
            if len(cells) != width:
                return f"line {n}: {len(cells)} cells, the header has {width}"
            try:
                np.asarray(cells, dtype=float)
            except ValueError as e:
                return f"line {n}: {e}"
    return None


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum across each row, column by column (the order a per-row loop adds in)."""
    total = np.zeros(terms.shape[0])
    for col in terms.T:
        total += col
    return total


def _first_failure(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> str | None:
    """Message for the first row that fails any ``(failed, describe)`` check.

    Within a row the checks are tried in order; line numbers count the header.
    """
    bad = np.flatnonzero(np.logical_or.reduce([failed for failed, _ in checks]))
    if not bad.size:
        return None
    i = int(bad[0])
    describe = next(d for failed, d in checks if failed[i])
    return f"line {i + 2}: {describe(i)}"


def _verify_csv(path: Path) -> tuple[bool, str]:
    """Check one CSV row by row; returns (passed, message).

    Amplitude files (``re_``/``im_``) must keep the norm at 1, population
    files (``pop_``) must keep populations non-negative and the trace at 1,
    and family files (``amp_``) must keep every magnitude in
    [0, 1 + _NORM_CHECK_TOL].  Comparisons are written so that ``nan`` and
    ``inf`` fail them.
    """
    header: list[str] = []
    try:
        with path.open("rb") as fh:  # decode the header line alone
            header = fh.readline().decode().rstrip("\n").split(",")
        if header == [""]:
            return False, "empty file"
        named = {pre: [i for i, h in enumerate(header) if h.startswith(pre)]
                 for pre in ("re_", "im_", "pop_", "amp_")}
        cols = (named["re_"] + named["im_"] if named["re_"]
                else named["pop_"] or named["amp_"])
        if not cols:
            return False, "no re_, pop_ or amp_ columns to check"
        data = _load_columns(path, cols, len(header))
    except ValueError as e:  # also a UnicodeDecodeError
        reason = _first_bad_line(path, len(header)) if header else None
        return False, f"unparseable ({reason or (str(e) or type(e).__name__).splitlines()[0]})"
    rows = data.shape[0]
    if not rows:
        return False, "no data rows"
    if named["re_"]:
        norm = _row_sum(data ** 2)
        failure = _first_failure([
            (~(np.abs(norm - 1.0) <= _NORM_CHECK_TOL),
             lambda i: f"norm {norm[i]:.9f} deviates from 1"),
        ])
        return failure is None, failure or f"{rows} rows, norm conserved"
    if named["pop_"]:
        low, trace = data.min(axis=1), _row_sum(data)
        failure = _first_failure([
            (~np.isfinite(data).all(axis=1), lambda i: "non-finite population"),
            (~(low >= -1e-6), lambda i: f"negative population {low[i]:.3e}"),
            (~(np.abs(trace - 1.0) <= _NORM_CHECK_TOL),
             lambda i: f"trace {trace[i]:.9f} deviates from 1"),
        ])
        return failure is None, failure or f"{rows} rows, trace conserved"
    inside = (data >= 0.0) & (data <= 1.0 + _NORM_CHECK_TOL)

    def outside(i: int) -> str:
        j = int(np.flatnonzero(~inside[i])[0])
        return f"{header[cols[j]]} {data[i, j]:.9f} outside [0, 1]"

    failure = _first_failure([(~inside.all(axis=1), outside)])
    return failure is None, failure or f"{rows} rows, amplitudes within [0, 1]"


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
        passed, msg = _verify_csv(f)
        rel = f.relative_to(base)
        if passed:
            checked += 1
            click.echo(f"ok   {rel}: {msg}")
        else:
            failed += 1
            click.echo(f"FAIL {rel}: {msg}")
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
