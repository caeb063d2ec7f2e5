"""Command-line front end: run experiments, write JSON reports and CSV curves.

Every subcommand reads an optional flat JSON config (``--config``), applies
``--set key=value`` overrides, runs, and writes into ``--out``:

* ``report.json``   - the experiment report, floats rounded to 12
  significant digits so a rewrite of identical physics is byte-identical;
* ``*.csv``         - sampled trajectories (``t_ps`` plus ``re_``/``im_``
  amplitude columns and ``phase_`` columns for pure states, ``pop_`` and
  ``coh_`` columns for density matrices).  Phase columns hold ``nan``
  where the amplitude is too small to carry a phase.  Bit-identical rows
  (the idle ``cphase`` blocks) are formatted, and re-read by ``verify``, once.

A run writes its files into a hidden ``.dotgates-stage-*`` directory in
``--out`` and moves each to its final name by one rename once the whole run
has succeeded, so a failed run leaves ``--out`` as it was; a killed run can
leave that directory behind, which ``verify`` skips.

Exit codes: 0 on success, 1 for configuration problems (a run's pulse
area, validity ratios and ``zrot`` carrier among them, checked before
``--out`` is made), 2 for runtime failures (integration, a failed
linear-algebra routine, undefined phases, a report value that is ``nan``
or ``inf``, an output that cannot be written).  A run prints no numpy
floating-point warning: a non-finite result fails a conservation check
or the report instead.

``dotgates verify --out DIR`` re-reads every emitted CSV and JSON file and
reports each one ``ok`` or ``FAIL``; it exits 2 on any failure.  CSV rows
must conserve the norm (``re_``/``im_`` files) or the trace (``pop_``
files, populations >= -1e-6) to 2e-6, and family ``amp_`` magnitudes must
lie in [0, 1 + 2e-6]; ``nan`` or ``inf`` in a checked column fails, and so
does an empty, header-only, uncheckable or unparseable CSV, and one with a
row of more or fewer cells than its header.  Failures name the file line,
counting the header as line 1.  It parses only the ``re_`` and ``im_``,
``pop_`` or ``amp_`` columns it checks, ``t_ps`` and the last column: text
in any other ``phase_`` or ``coh_`` cell passes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import threading
import warnings
from dataclasses import asdict
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
from .gates import pulse_summary, run_cphase, run_raman_x, run_z_rotation
from .model import check_conditions

__all__ = ["main", "run_experiment", "round_floats", "NonFiniteReportError"]

_CSV_FMT = "%.11e"  # 12 significant digits
# rows per numpy pass; every block is computed in one reused, per-thread working
# set (`_CellWork`) of at most this many rows x columns cells: fresh temporaries
# per block would be trimmed from the heap and faulted back in by the next block
_CSV_BLOCK_ROWS = 1024
_CELL_BYTES = 20  # a padded "-d.ddddddddddde+ddd" cell plus its separator
_EXP_OFFSET = 320  # decimal exponents handled by the lookup tables: [-320, 320)
_P10_OFFSET = 160  # correctly rounded 10**k in the scaling table: k in [-160, 160)
_NORM_CHECK_TOL = 2e-6  # integration drift plus serialization rounding
_SCAN_BYTES = 1 << 16  # verify streams each CSV through reused buffers of this size
_RUN_LISTS = ("sweep_values", "ratios", "detunings", "gammas")  # empty: nothing to run
_STAGE_PREFIX = ".dotgates-stage-"  # a run's files are written in here, then moved out


class NonFiniteReportError(ValueError):
    """A report holds ``nan`` or ``inf``, which JSON cannot carry."""


def round_floats(obj: Any) -> Any:
    """Round every float in a JSON-like structure to 12 significant digits."""
    if isinstance(obj, float):
        if obj == 0.0 or not math.isfinite(obj):
            return obj
        return float(f"{obj:.11e}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _non_finite_key(obj: Any, key: str = "") -> str | None:
    """Dotted key of the first ``nan`` or ``inf`` float in a JSON-like ``obj``."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    pairs = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    found = (_non_finite_key(v, f"{key}.{k}" if key else str(k)) for k, v in pairs)
    return next(filter(None, found), None)


def _publish(stage: Path, out: Path) -> None:
    """Move each file of the ``stage`` tree to its place under ``out`` by one
    rename: other files in path order, then each ``report.json`` after the
    files beside it (sort key 1 / depth: the top one last).  An old file of
    the name is removed just before, since renaming over one makes ext4
    start writeback of the new file (its replace-via-rename heuristic)."""
    files = (Path(d, n).relative_to(stage) for d, _, names in os.walk(stage) for n in names)
    for rel in sorted(files, key=lambda p: (p.name == "report.json" and 1 / len(p.parts), p)):
        (out / rel).parent.mkdir(exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            (out / rel).unlink()
        os.replace(stage / rel, out / rel)


def _write_json(path: Path, obj: Mapping[str, Any]) -> None:
    try:
        payload = json.dumps(round_floats(dict(obj)), indent=2, sort_keys=True,
                             allow_nan=False)
    except ValueError:
        raise NonFiniteReportError(
            f"{path.name} would hold a non-finite {_non_finite_key(dict(obj))}") from None
    path.write_bytes((payload + "\n").encode())


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


class _CellWork:
    """The buffers `_format_rows` reuses for every block of up to ``cells`` cells.

    ``floats`` holds the block (``x``), then ``|x|``, the scaled value and
    the mantissa, each also a scratch once its value is spent; ``ints`` the
    decimal exponent and two table indices; ``flags`` the fast-path mask
    and a scratch; ``word`` one gathered word a cell; ``text`` the 5-word
    cells, ``words`` its ``(cells, 5)`` view.  82 bytes a cell.
    """

    def __init__(self, cells: int) -> None:
        self.cells = cells
        self.floats = np.empty((4, cells))
        self.ints = np.empty((3, cells), dtype=np.intp)
        self.flags = np.empty((2, cells), dtype=bool)
        self.word = np.empty(cells, dtype=np.uint32)
        self.text = bytearray(cells * _CELL_BYTES)
        self.words = np.frombuffer(self.text, dtype=np.uint32).reshape(cells, 5)


_cell_work_local = threading.local()


def _cell_work(cells: int) -> _CellWork:
    """This thread's `_CellWork`, kept for the life of the process and
    replaced by a larger one only when ``cells`` exceeds every earlier block."""
    work = getattr(_cell_work_local, "work", None)
    if work is None or work.cells < cells:
        work = _cell_work_local.work = _CellWork(cells)
    return work


def _scaled(a: np.ndarray, e: np.ndarray, p10: np.ndarray, k: np.ndarray,
            h: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """``a * 10**(11 - e)`` into ``out`` through two correctly rounded
    factors, so that no intermediate overflows or goes subnormal for ``a``
    in [1e-300, 1e300]; ``k``, ``h`` and ``scratch`` are overwritten."""
    np.subtract(11, e, out=k)
    np.right_shift(k, 1, out=h)
    k -= h
    h += _P10_OFFSET
    k += _P10_OFFSET
    np.take(p10, h, out=out, mode="clip")
    np.multiply(a, out, out=out)
    np.take(p10, k, out=scratch, mode="clip")
    out *= scratch


def _format_rows(columns: Sequence[np.ndarray]) -> bytearray:
    """CSV lines for equal-length float columns (``block.T`` for a 2-d
    block), byte-identical to ``"%.11e" % x`` per cell.

    The decimal mantissa is ``rint(|x| * 10**(11-e))``; the float scaling is
    off the exact product by under 5e-16 relative, i.e. under 5e-4 for a
    12-digit mantissa, so the rounding is exact unless the scaled value lies
    within 1e-3 of a half.  Those cells, ``inf`` and magnitudes outside
    [1e-300, 1e300] are printed by ``%`` itself; zeros and ``nan`` take
    fixed patterns.

    Every intermediate lives in one reused, per-thread working set
    (`_CellWork`), kept for the life of the process and grown only for a
    block of more cells than any before it: at most ``_CSV_BLOCK_ROWS`` x
    columns cells.  Fresh temporaries for each block (1.7 MB at 1024 x 13)
    would be handed back to the kernel by glibc's heap trim and faulted in
    again by the next block, some 500-850 minor page faults a
    ``cphase-square`` job; a block allocates little beyond its output.
    Lookups use ``np.take(mode="clip")``: every index is in range, and the
    default ``"raise"`` copies through a temporary.
    """
    t = _cell_tables()
    ncols, rows = len(columns), len(columns[0])
    n = rows * ncols
    work = _cell_work(n)
    x, a, s, m = work.floats[:, :n]
    e, k, h = work.ints[:, :n]
    fast, tmp = work.flags[:, :n]
    word = work.word[:n]
    w = work.words[:n]
    block = x.reshape(rows, ncols)
    for j, c in enumerate(columns):
        block[:, j] = c
    np.abs(x, out=a)
    np.greater_equal(a, 1e-300, out=fast)
    fast &= np.less_equal(a, 1e300, out=tmp)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=tmp))
    np.log10(a, out=s)
    np.floor(s, out=s)
    np.copyto(e, s, casting="unsafe")
    _scaled(a, e, t["p10"], k, h, s, m)
    off = np.greater_equal(s, 1e12, out=tmp).any()
    e += tmp
    off |= np.less(s, 1e11, out=tmp).any()
    e -= tmp
    if off:
        _scaled(a, e, t["p10"], k, h, s, m)
    np.rint(s, out=m)
    fast &= np.greater_equal(s, 1e11, out=tmp)
    fast &= np.less(m, 1e12, out=tmp)
    np.floor(s, out=a)
    np.subtract(s, a, out=a)
    a -= 0.5
    np.abs(a, out=a)
    fast &= np.greater_equal(a, 1e-3, out=tmp)
    not_fast = np.logical_not(fast, out=fast)  # `fast` is spent
    np.copyto(m, 0.0, where=not_fast)  # zeros print as 0.00000000000e+00
    # digit groups [d0 d1] [d2..d5] [d6..d9] [d10 d11]; every step is exact
    for col, scale, table in ((0, 1e10, t["lead"]), (1, 1e6, t["quad"]), (2, 1e2, t["quad"])):
        np.divide(m, scale, out=a)
        np.floor(a, out=a)
        np.copyto(k, a, casting="unsafe")
        a *= scale
        m -= a
        np.take(table, k, out=word, mode="clip")
        w[:, col] = word
    np.bitwise_or(w[:, 0], t["minus"], out=w[:, 0], where=np.signbit(x, out=tmp))
    e += _EXP_OFFSET
    np.copyto(k, m, casting="unsafe")
    w[:, 3] = np.take(t["tail"], k, out=word, mode="clip")
    w[:, 3] |= np.take(t["esign"], e, out=word, mode="clip")
    cells = w.reshape(rows, ncols, 5)
    cells[:, :, 4] = np.take(t["exp"], e, out=word, mode="clip").reshape(rows, ncols)
    cells[:, :-1, 4] |= t["comma"]
    cells[:, -1, 4] |= t["newline"]
    buf = w.view(np.uint8)
    not_fast &= np.not_equal(x, 0, out=tmp)
    slow = np.flatnonzero(not_fast)
    if slow.size:
        nan = np.isnan(x[slow])
        w[slow[nan], 0] = t["nan"]
        w[slow[nan], 1:4] = 0
        w[slow[nan], 4] &= t["separator_only"]
        other = slow[~nan]
        # every "%.11e" text fits a cell's 19 bytes before its separator
        texts = b"".join([(_CSV_FMT % v).encode().ljust(_CELL_BYTES - 1, b"\0")
                          for v in x[other].tolist()])
        buf[other, :_CELL_BYTES - 1] = np.frombuffer(texts, np.uint8).reshape(-1, _CELL_BYTES - 1)
    # past a smaller block's cells lie an earlier, larger block's
    text = work.text if n == work.cells else work.text[:n * _CELL_BYTES]
    return text.translate(None, b"\0")


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    """Write the columns under ``header`` to ``path``."""
    n = int(columns[0].size) if columns else 0
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            fh.write(_format_rows([c[i:i + _CSV_BLOCK_ROWS] for c in columns]))


def _traj_header(traj: Trajectory) -> list[str]:
    labels = traj.basis.labels
    if traj.kind == "pure":
        return ["t_ps", *[f"{part}_{lbl}" for lbl in labels for part in ("re", "im")],
                *[f"phase_{lbl}" for lbl in labels]]
    return ["t_ps", *[f"pop_{lbl}" for lbl in labels],
            *[f"coh_{a}_{b}" for i, a in enumerate(labels) for b in labels[i + 1:]]]


def _traj_columns(traj: Trajectory) -> list[np.ndarray]:
    """The columns :func:`_traj_header` names: they depend on the kind, times
    and states alone."""
    d, s = traj.basis.dim, traj.states
    if traj.kind == "density":
        return [traj.times, *[s[:, i, i].real for i in range(d)],
                *[np.abs(s[:, i, j]) for i in range(d) for j in range(i + 1, d)]]
    cols = [traj.times, *[part for i in range(d) for part in (s[:, i].real, s[:, i].imag)]]
    for lbl in traj.basis.labels:
        try:
            cols.append(accumulated_phase(traj, lbl))
        except (PhaseUndefinedError, ValueError):
            cols.append(np.full(traj.times.size, math.nan))
    return cols


def _write_trajectories(out: Path, trajs: Mapping[str, Trajectory]) -> None:
    """Write each trajectory to ``out / name``.  One with the same rows as an
    earlier one (the idle ``cphase`` blocks of a resonant pair) streams that
    file's data rows under its own header instead of formatting them again."""
    written: list[tuple[str, list[np.ndarray], Path]] = []
    for name, traj in trajs.items():
        path = out / name
        # the same kind, times and states, bit for bit: -0.0 and 0.0 print differently
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (traj.times, traj.states)]
        twin = next((p for kind, b, p in written
                     if kind == traj.kind and all(map(np.array_equal, b, bits))), None)
        if twin is None:
            _write_csv(path, _traj_header(traj), _traj_columns(traj))
        else:
            with twin.open("rb") as src, path.open("wb") as fh:
                src.readline()
                fh.write((",".join(_traj_header(traj)) + "\n").encode())
                shutil.copyfileobj(src, fh)
        written.append((traj.kind, bits, path))


# the columns of a cphase ratio family's curves
_RATIO_COLUMNS = {
    "t_ps": "sample time (ps)",
    "phase_10": "unwrapped phase of the returning 10 amplitude (rad)",
    "amp_10": "magnitude of the 10 amplitude",
    "phase_11": "unwrapped phase of the returning 11 amplitude (rad)",
    "amp_11": "magnitude of the 11 amplitude",
}


def _family(out: Path, kind: str, rows: list[dict[str, Any]], **schema: Any) -> dict[str, Any]:
    """Write ``schema.json`` for a family's ``rows`` and return its report."""
    _write_json(out / "schema.json", {**schema, "files": [row["file"] for row in rows]})
    return {"kind": f"{kind}_family", "runs": rows}


def _run_cphase(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    """One run writes every block's trajectory; a ratio family, each run's
    phase and amplitude curves of the driven (11) and idle-partner (10) blocks."""
    p, rows = cfg.dot_params(), []
    for run in cfg.runs():
        report, trajs = run_cphase(p, run.input, cfg.integrator(),
                                   cfg["threshold_biexciton"], cfg["threshold_spectator"])
        if run.ratio is None:
            _write_trajectories(out, {f"traj_{key}.csv": traj for key, traj in trajs.items()})
            return report.to_dict()
        t10, t11 = trajs["10"], trajs["11"]
        _write_csv(out / run.name, list(_RATIO_COLUMNS),
                   [t10.times, accumulated_phase(t10, "10"), np.abs(t10.amplitude("10")),
                    accumulated_phase(t11, "11"), np.abs(t11.amplitude("11"))])
        d = report.to_dict()
        rows.append({"ratio": run.ratio, "omega": run.input.peak_value(), "file": run.name, **{
            k: d[k] for k in ("gate_time", "phases", "theta", "fidelity", "warnings")}})
    return _family(out, "cphase", rows, family="cphase_ratio", parameter="omega / v_f",
                   columns=_RATIO_COLUMNS)


def _run_zrot(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p = cfg.dot_params()
    (run,) = cfg.runs()
    report, traj = run_z_rotation(p, run.input, cfg.integrator())
    # the rotating-frame copy divides the optical carrier out of the exciton amplitude
    rot = to_rotating_frame(traj, p.omega_a, (0, 0, 1))
    _write_trajectories(out, {"trajectory_lab.csv": traj, "trajectory_rot.csv": rot})
    return report.to_dict()


def _run_raman(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    """One run writes ``populations.csv``; a family writes one file a run."""
    rows = []
    for run in cfg.runs():
        report, traj = run_raman_x(run.input, cfg.integrator(), cfg["time_window"])
        if run.name is None:
            _write_trajectories(out, {"populations.csv": traj})
            return report.to_dict()
        _write_trajectories(out, {run.name: traj})
        d = report.to_dict()
        rows.append({"file": run.name, **{k: d[k] for k in (
            "detuning", "gamma", "pi_time_estimate", "pi_time", "fidelity", "lost")}})
    return _family(out, "raman", rows, family="raman_detuning_gamma",
                   parameters=["detuning", "gamma"],
                   columns={"t_ps": "sample time (ps)", "pop_*": "level populations",
                            "coh_*": "coherence magnitudes |rho_ij|"})


def _run_conditions(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    p, env = cfg.dot_params(), cfg.envelope()
    rep = check_conditions(p, env, cfg["threshold_biexciton"], cfg["threshold_spectator"])
    return {"kind": "conditions", "dot_params": asdict(p), "pulse": pulse_summary(env),
            "conditions": rep.to_dict()}


def _run_sweep(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    """Run each child in turn, into ``<param>_<value>/``."""
    runs = [{"value": v, "dir": name, "report": run_experiment(build_config(raw), out / name)}
            for v, name, raw in cfg.sweep_children()]
    return {"kind": "sweep", "sweep_kind": cfg["sweep_kind"], "sweep_param": cfg["sweep_param"],
            "runs": runs}


# every subcommand but verify: kind -> (help line, adapter); every adapter looks
# the runners up as this module's globals when it is called
_KINDS: dict[str, tuple[str, Callable[[ExperimentConfig, Path], dict[str, Any]]]] = {
    "cphase": ("Two-qubit controlled-phase gate from one calibrated pulse.", _run_cphase),
    "zrot": ("Single-qubit phase gate via exciton shelving between two pi pulses.", _run_zrot),
    "raman": ("Raman spin flip through a lossy excited level.", _run_raman),
    "conditions": ("Evaluate the weak-driving validity ratios for a pulse, no integration.",
                   _run_conditions),
    "sweep": ("Run a child experiment once per value of one numeric config key.", _run_sweep),
}


def _empty_run_list(cfg: ExperimentConfig) -> str | None:
    """The sweep or family list that ``cfg`` or its sweep children set to ``[]``, if any."""
    values = {**cfg.values.get("child_base", {}), **cfg.values}
    return next((k for k in _RUN_LISTS if values.get(k) in ((), [])), None)


@np.errstate(all="ignore")
def run_experiment(cfg: ExperimentConfig, out: Path) -> dict[str, Any]:
    """Run one validated experiment and write its artifacts under ``out``.

    Returns the report dict exactly as serialized (before rounding).  Files
    are staged inside ``out`` and moved into place by :func:`_publish` once
    the run has succeeded, so a failed run leaves ``out`` as it was.  An
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
    with tempfile.TemporaryDirectory(prefix=_STAGE_PREFIX, dir=out) as stage:
        d = _KINDS[cfg.kind][1](cfg, Path(stage))
        _write_json(Path(stage) / "report.json", d)
        _publish(Path(stage), out)
    return d


def _execute(kind: str, config_path: str | None, out: str,
             overrides: tuple[str, ...]) -> None:
    try:
        raw = load_config_file(config_path) if config_path else {}
        if raw.get("kind", kind) != kind:
            raise ConfigError(f"config kind {raw['kind']!r} does not match subcommand {kind!r}")
        cfg = build_config({**apply_overrides(raw, overrides), "kind": kind})
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(1)
    try:
        run_experiment(cfg, Path(out))
    except (IntegrationError, PhaseUndefinedError, NonFiniteReportError,
            np.linalg.LinAlgError, OSError) as e:
        click.echo(f"runtime error: {e}", err=True)
        sys.exit(2)
    if not _empty_run_list(cfg):
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


# each experiment subcommand runs `_execute` of its kind with the common options
for _kind, (_help, _) in _KINDS.items():
    main.command(name=_kind, help=_help)(_common_options(functools.partial(_execute, _kind)))


class _CsvScan:
    """verify's reused read buffers and the last CSV that parsed."""

    def __init__(self) -> None:
        self.buf, self.prev = bytearray(_SCAN_BYTES), memoryview(bytearray(_SCAN_BYTES))
        self.bytes, self.hits = np.frombuffer(self.buf, np.uint8), np.empty(_SCAN_BYTES, bool)
        self.last: tuple[Path, int, tuple, np.ndarray] | None = None  # path, offset, key, data

    def parse(self, fh: Any, head: bytes, cols: list[int], width: int) -> np.ndarray:
        """The given columns of ``fh``'s rows after the header line ``head``, and
        the last column (a short row is an error, a long one adds commas).

        One pass reads ``fh`` in buffers of ``_SCAN_BYTES``, counts each
        buffer's commas as the nonzeros of one numpy comparison into a reused
        mask, and compares the bytes with the last parse, which it reuses if
        they and the columns match."""
        # np.loadtxt reads a carriage return as a line end: parse such a file alone
        key = None if b"\r" in head else (os.fstat(fh.fileno()).st_size - len(head), cols, width)
        twin, self.last = (self.last if key and self.last and self.last[2] == key else None), None
        commas, same = 0, twin is not None
        with (twin[0].open("rb") if twin else io.BytesIO()) as pf:
            pf.seek(twin[1] if twin else 0)
            while n := fh.readinto(self.buf):
                commas += np.count_nonzero(np.equal(self.bytes[:n], ord(","), out=self.hits[:n]))
                same = (same and pf.readinto(self.prev[:n]) == n
                        and self.buf.startswith(self.prev[:n]))
        # hold no other file's data while this one loads
        data, twin = (twin[3] if same else None), None
        if data is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header only: no data
                data = np.loadtxt(fh.name, delimiter=",", skiprows=1,
                                  usecols=cols + [width - 1], ndmin=2, comments=None)
        if commas != (width - 1) * data.shape[0]:
            raise ValueError("a row's cell count differs from the header's")
        if key:
            self.last = (Path(fh.name), len(head), key, data)
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


def _row_sum(terms: np.ndarray, power: int = 1) -> np.ndarray:
    """Sum of each row of ``terms ** power``, column by column (a per-row loop's order)."""
    total = np.zeros(terms.shape[0])
    for col in terms.T:
        total += col ** power
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


def _verify_csv(path: Path, scan: _CsvScan) -> tuple[bool, str]:
    """Check one CSV row by row; returns (passed, message).

    Amplitude files (``re_``/``im_``) must keep the norm at 1, population
    files (``pop_``) must keep populations non-negative and the trace at 1,
    and family files (``amp_``) must keep every magnitude in
    [0, 1 + _NORM_CHECK_TOL]; a ``t_ps`` column must be finite and never
    fall (rounding may tie it).  ``nan`` and ``inf`` fail every comparison.
    """
    header: list[str] = []
    try:
        with path.open("rb") as fh:  # decode the header line alone
            head = fh.readline()
            header = head.decode().rstrip("\n").split(",")
            if header == [""]:
                return False, "empty file"
            named = {pre: [i for i, h in enumerate(header) if h.startswith(pre)]
                     for pre in ("re_", "im_", "pop_", "amp_")}
            cols = (named["re_"] + named["im_"] if named["re_"]
                    else named["pop_"] or named["amp_"])
            if not cols:
                return False, "no re_, pop_ or amp_ columns to check"
            timed = "t_ps" in header
            data = scan.parse(fh, head, cols + [header.index("t_ps")] * timed, len(header))
    except ValueError as e:  # also a UnicodeDecodeError
        reason = _first_bad_line(path, len(header)) if header else None
        return False, f"unparseable ({reason or (str(e) or type(e).__name__).splitlines()[0]})"
    rows = data.shape[0]
    if not rows:
        return False, "no data rows"
    times = []
    if timed:
        t, data = data[:, -1], data[:, :-1]
        times = [(~np.isfinite(t), lambda i: f"non-finite t_ps {t[i]}"),
                 (np.append(False, ~(t[1:] >= t[:-1])), lambda i: f"t_ps {t[i]:.12g} runs back")]
    if named["re_"]:
        norm = _row_sum(data, 2)
        failure = _first_failure(times + [
            (~(np.abs(norm - 1.0) <= _NORM_CHECK_TOL),
             lambda i: f"norm {norm[i]:.9f} deviates from 1"),
        ])
        return failure is None, failure or f"{rows} rows, norm conserved"
    if named["pop_"]:
        low, trace = data.min(axis=1), _row_sum(data)
        failure = _first_failure(times + [
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

    failure = _first_failure(times + [(~inside.all(axis=1), outside)])
    return failure is None, failure or f"{rows} rows, amplitudes within [0, 1]"


def _verify_json(path: Path) -> tuple[bool, str]:
    try:
        json.loads(path.read_text())
    except json.JSONDecodeError as e:
        return False, f"invalid JSON ({e.msg})"
    return True, "valid JSON"


@main.command()
@click.option("--out", default="out", show_default=True,
              help="Directory with previously emitted artifacts.")
def verify(out: str) -> None:
    """Re-read emitted CSV/JSON artifacts and check conservation laws."""
    base = Path(out)
    if not base.is_dir():
        click.echo(f"config error: no such directory {out!r}", err=True)
        sys.exit(1)
    scan, failed = _CsvScan(), 0
    files = []
    for d, dirs, names in os.walk(base, followlinks=True):  # not into a staging directory
        dirs[:] = [n for n in dirs if not n.startswith(_STAGE_PREFIX)]
        files += [Path(d, n) for n in names if Path(n).suffix in (".csv", ".json")]
    files.sort(key=lambda f: (f.suffix == ".json", f))  # every CSV first, in path order
    for f in files:
        passed, msg = _verify_csv(f, scan) if f.suffix == ".csv" else _verify_json(f)
        failed += not passed
        click.echo(f"{'ok  ' if passed else 'FAIL'} {f.relative_to(base)}: {msg}")
    click.echo(f"verified {len(files) - failed} files, {failed} failures")
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    main()
