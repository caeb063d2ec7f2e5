"""Print digests of every artifact a fixed set of ``dotgates`` runs writes.

A refactor that should leave the output alone can be checked by running
this script against two checkouts and diffing the results::

    PYTHONPATH=<old checkout>/src python tools/artifact_digests.py > old.txt
    PYTHONPATH=<new checkout>/src python tools/artifact_digests.py > new.txt
    diff old.txt new.txt

Each invocation runs as ``python -m dotgates.cli`` in a fresh temporary
directory, followed by ``verify`` of its output.  For every invocation the
script prints the exit code, stdout and stderr (with the temporary
directory replaced by ``<tmp>``), then ``sha256  relpath`` for every file
written.  ``cphase-square-rerun`` writes ``cphase-square`` twice into one
directory, so that every file of the second run replaces one of the first;
the script prints whether its files equal those of ``cphase-square``.
Last, it runs ``verify`` on a copy of ``cphase-square`` with one cell of
``traj_10.csv`` changed, whose data rows otherwise equal those of
``traj_01.csv``, and on another with a word in one ``t_ps`` cell and one
phase cell of ``traj_01.csv``, and on the regular file ``sweep.json``.  It
needs nothing beyond the standard library and the package, which the runs'
interpreter must import: without it the script prints one line naming
``PYTHONPATH`` and exits 2 before the first run.

A change that moves the numbers within a stated tolerance is checked on
the artifacts themselves: ``--keep DIR`` runs in ``DIR`` (which must not
exist yet) and leaves the outputs there, and ``--compare OLD NEW`` reads
two kept trees and prints, for every CSV column and every number of a
JSON report, the largest absolute difference, then the largest of each
kind overall::

    PYTHONPATH=<old checkout>/src python tools/artifact_digests.py --keep old
    PYTHONPATH=<new checkout>/src python tools/artifact_digests.py --keep new
    python tools/artifact_digests.py --compare old new

CSV cells carry 12 significant digits, so a change below that precision
shows as one unit of a cell's last digit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

GAUSSIAN = ("--set", "pulse_shape=gaussian")
PAIR = ("--set", "omega=0.17", "--set", "v_f=0.9", "--set", "v_xx=4.4")
# sweep configs, each written to ``<name>.json`` and named ``{<name>}`` in RUNS
SWEEPS = {
    "sweep": {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "omega",
              "sweep_values": [0.08, 0.12]},
    "sweep-zrot": {"kind": "sweep", "sweep_kind": "zrot", "sweep_param": "wait",
                   "sweep_values": [0.1, 0.37]},
    "sweep-raman": {"kind": "sweep", "sweep_kind": "raman", "sweep_param": "detuning",
                    "sweep_values": [3, 5.5]},
    "sweep-zrot-sigma": {"kind": "sweep", "sweep_kind": "zrot", "sweep_param": "sigma",
                         "sweep_values": [0.825, 2], "pulse_shape": "gaussian",
                         "omega_a": 300},
    "sweep-tiny-v_f": {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "v_f",
                       "sweep_values": [0.85, 1e-320]},
    "sweep-zrot-omega_a": {"kind": "sweep", "sweep_kind": "zrot", "sweep_param": "omega_a",
                           "sweep_values": [2000, 1e9]},
    "sweep-huge-v_xx": {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "v_xx",
                        "sweep_values": [5, 1e308]},
    "sweep-colliding-omega": {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "omega",
                              "sweep_values": [0.1000001, 0.1000002]},
}

# (name, subcommand and options); the output directory is appended
RUNS: list[tuple[str, tuple[str, ...]]] = [
    ("cphase-square", ("cphase",)),
    ("cphase-square-pair", ("cphase", *PAIR)),
    ("cphase-gaussian", ("cphase", *GAUSSIAN)),
    ("cphase-gaussian-pair", ("cphase", *GAUSSIAN, *PAIR)),
    # 46670 samples: the 2x2 spectator crosses six 8192-cell Magnus chunks
    # and the 3x3 component thirteen of 3640 cells
    ("cphase-gaussian-dense", ("cphase", *GAUSSIAN, "--set", "sample_interval=0.002")),
    ("cphase-gaussian-split", ("cphase", *GAUSSIAN, "--set", "v_xx=30",
                               "--set", "sample_interval=0.2")),
    # a pulse ~1e-199 ps long: the sudden kick of its area
    ("cphase-gaussian-kick", ("cphase", *GAUSSIAN, "--set", "omega=1e200")),
    ("cphase-ratios-square", ("cphase", "--set", "ratios=[0.3,0.15]")),
    ("cphase-ratios-gaussian", ("cphase", *GAUSSIAN, "--set", "ratios=[0.3,0.15]")),
    ("cphase-commensurate", ("cphase", "--set", "commensurate=true")),
    # the snapped duration misses the cphase area by 5.86%: exit 1, nothing written
    ("cphase-commensurate-off-area", ("cphase", "--set", "omega=0.3",
                                      "--set", "commensurate=true")),
    # eigh at a midpoint away from the origin
    ("cphase-square-late", ("cphase", "--set", "t_start=3.3")),
    # an explicit duration, 0.15% short of the calibrated 29.24 ps
    ("cphase-square-duration", ("cphase", "--set", "duration=29.2")),
    ("zrot-square", ("zrot",)),
    # the second pulse straight after the first: one shared junction sample
    ("zrot-square-nowait", ("zrot", "--set", "wait=0")),
    ("zrot-square-shifted", ("zrot", "--set", "omega_a=173.3", "--set", "wait=0.37")),
    # a pulse shorter than one carrier period: Magnus, not Floquet
    ("zrot-square-subperiod", ("zrot", "--set", "omega_a=1.5")),
    # Floquet from a carrier origin away from zero
    ("zrot-square-late", ("zrot", "--set", "omega_a=173.3", "--set", "t_start=0.4")),
    ("zrot-gaussian", ("zrot", *GAUSSIAN, "--set", "omega_a=300")),
    ("zrot-gaussian-nowait", ("zrot", *GAUSSIAN, "--set", "omega_a=300", "--set", "wait=0")),
    ("zrot-gaussian-default", ("zrot", *GAUSSIAN)),
    # an explicit width instead of the one calibrated from omega
    ("zrot-gaussian-sigma", ("zrot", *GAUSSIAN, "--set", "sigma=0.825")),
    ("raman", ("raman",)),
    ("raman-detunings", ("raman", "--set", "detunings=[3,4,5.5]")),
    ("raman-detunings-gammas", ("raman", "--set", "detunings=[3,5.5]",
                                "--set", "gammas=[0,0.1]")),
    ("raman-gammas", ("raman", "--set", "gammas=[0.05,0.15]")),
    # a detuning whose window asks for 1.5e8 samples: nothing runs
    ("raman-detunings-runaway", ("raman", "--set", "detunings=[2,4e5]")),
    # an empty list still has the other keys checked: both exit 1
    ("raman-gammas-empty-rabi", ("raman", "--set", "gammas=[]", "--set", "rabi=1e200")),
    ("raman-gammas-empty-angle", ("raman", "--set", "gammas=[]", "--set", "target_angle=4")),
    # ... but checks no sample count: nothing to run, exit 0
    ("cphase-ratios-empty-duration", ("cphase", "--set", "ratios=[]",
                                      "--set", "duration=1e308")),
    # a ratio's pulse misses the cphase area: exit 1, nothing written
    ("cphase-ratios-off-area", ("cphase", "--set", "ratios=[0.3]", "--set", "duration=29.2")),
    ("conditions", ("conditions",)),
    ("sweep", ("sweep", "--config", "{sweep}")),
    ("sweep-zrot", ("sweep", "--config", "{sweep-zrot}")),
    ("sweep-raman", ("sweep", "--config", "{sweep-raman}")),
    # the second child's pulse misses pi*hbar: exit 1 before the first runs
    ("sweep-zrot-sigma-off-area", ("sweep", "--config", "{sweep-zrot-sigma}")),
    # a subnormal v_f makes a validity ratio infinite: exit 1, nothing written
    ("cphase-tiny-v_f", ("cphase", "--set", "v_f=1e-320")),
    ("conditions-tiny-v_f", ("conditions", "--set", "v_f=1e-320")),
    ("sweep-tiny-v_f", ("sweep", "--config", "{sweep-tiny-v_f}")),
    # a lab-frame carrier past 1e6 radians: exit 1, nothing written
    ("zrot-carrier-bound", ("zrot", "--set", "omega_a=1e9")),
    ("sweep-zrot-omega_a", ("sweep", "--config", "{sweep-zrot-omega_a}")),
    # the second child's norm drifts by nan at run time: exit 2, no file written,
    # not even the first child's
    ("sweep-huge-v_xx", ("sweep", "--config", "{sweep-huge-v_xx}")),
    # two runs whose %g names are one: exit 1, nothing written
    ("sweep-colliding-omega", ("sweep", "--config", "{sweep-colliding-omega}")),
    ("cphase-ratios-colliding", ("cphase", "--set", "ratios=[0.15,0.15]")),
    ("raman-detunings-colliding", ("raman", "--set", "detunings=[4.0000001,4.0000002]")),
]


def cli(args: list[str], tmp: Path) -> str:
    """Run ``dotgates`` with ``args``; return the exit code and both streams."""
    proc = subprocess.run([sys.executable, "-m", "dotgates.cli", *args],
                          capture_output=True, text=True)
    text = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    return text.replace(str(tmp), "<tmp>")


def check_package() -> None:
    """Exit 2 with one line unless the runs' interpreter imports ``dotgates.cli``."""
    probe = subprocess.run([sys.executable, "-c", "import dotgates.cli"], capture_output=True)
    if probe.returncode:
        print("cannot import dotgates.cli: run with PYTHONPATH=<checkout>/src", file=sys.stderr)
        sys.exit(2)


def digests(root: Path) -> list[str]:
    """``sha256  relpath`` of every file under ``root``, in path order."""
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
            for p in sorted(root.rglob("*")) if p.is_file()]


def edit_cell(path: Path, line: int, column: str, text: str) -> None:
    """Replace one cell of a CSV; ``line`` counts the header as line 1."""
    lines = path.read_text().split("\n")
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines))


def run_all(tmp: Path) -> None:
    """Run every invocation under ``tmp`` and print what each wrote."""
    configs = {}
    for name, sweep in SWEEPS.items():
        configs[f"{{{name}}}"] = path = tmp / f"{name}.json"
        path.write_text(json.dumps(sweep))
    runs = tmp / "runs"
    for run, args in RUNS:
        out = runs / run
        argv = [str(configs.get(a, a)) for a in args]
        print(f"=== {run}: {' '.join(args)}")
        print(cli([*argv, "--out", str(out)], tmp), end="")
        print(f"=== verify {run}")
        print(cli(["verify", "--out", str(out)], tmp), end="")
    rerun = runs / "cphase-square-rerun"
    for write in ("first", "second"):
        print(f"=== cphase-square-rerun, {write} write: cphase")
        print(cli(["cphase", "--out", str(rerun)], tmp), end="")
    same = digests(rerun) == digests(runs / "cphase-square")
    print(f"=== cphase-square-rerun files equal cphase-square's: {same}")
    edited = tmp / "edited"
    shutil.copytree(runs / "cphase-square", edited)
    edit_cell(edited / "traj_10.csv", 7, "re_10", "5.00000000000e-01")
    print("=== verify cphase-square, traj_10.csv line 7 re_10 set to 0.5")
    print(cli(["verify", "--out", str(edited)], tmp), end="")
    timed = tmp / "edited-t_ps"
    shutil.copytree(runs / "cphase-square", timed)
    edit_cell(timed / "traj_01.csv", 5, "t_ps", "xyz")
    edit_cell(timed / "traj_01.csv", 9, "phase_01", "abc")
    print("=== verify cphase-square, traj_01.csv line 5 t_ps set to xyz, line 9 phase_01 to abc")
    print(cli(["verify", "--out", str(timed)], tmp), end="")
    # a regular file is no run directory: exit 1, nothing written
    print("=== verify a regular file: sweep.json")
    print(cli(["verify", "--out", str(configs["{sweep}"])], tmp), end="")
    print("=== artifacts")
    print("\n".join(digests(runs)))


def leaves(value: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """Every leaf of a JSON value as ``(path, leaf)``, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def compare_csv(old: Path, new: Path) -> list[tuple[str, float]]:
    """``(column, largest absolute difference)`` for each column."""
    with old.open(newline="") as fa, new.open(newline="") as fb:
        ra, rb = csv.reader(fa), csv.reader(fb)
        header = next(ra)
        if next(rb) != header:
            raise ValueError("the headers differ")
        worst = [0.0] * len(header)
        for row_a, row_b in zip(ra, rb, strict=True):
            for i, (x, y) in enumerate(zip(row_a, row_b, strict=True)):
                a, b = float(x), float(y)
                if a != b and not (math.isnan(a) and math.isnan(b)):
                    worst[i] = max(worst[i], abs(a - b))
    return list(zip(header, worst))


def compare_json(old: Path, new: Path) -> list[tuple[str, Any]]:
    """``(path, difference)`` for each leaf: a number's absolute difference,
    ``"same"`` or ``"differs"`` for anything else."""
    a = list(leaves(json.loads(old.read_text())))
    b = list(leaves(json.loads(new.read_text())))
    if [p for p, _ in a] != [p for p, _ in b]:
        raise ValueError("the documents have different keys")
    out: list[tuple[str, Any]] = []
    for (path, x), (_, y) in zip(a, b):
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and not isinstance(x, bool) and not isinstance(y, bool):
            out.append((path, abs(x - y) if x != y else 0.0))
        else:
            out.append((path, "same" if x == y else "differs"))
    return out


def compare(old_root: Path, new_root: Path) -> int:
    """Print the differences between two kept trees; 1 if a file is missing,
    unreadable or differs in shape, else 0."""
    files = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    files |= {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    worst = {"csv": (0.0, ""), "json": (0.0, "")}
    status = 0
    for rel in sorted(files):
        old, new = old_root / rel, new_root / rel
        if not (old.is_file() and new.is_file()):
            print(f"== {rel}: only in {old_root if old.is_file() else new_root}")
            status = 1
            continue
        if rel.suffix not in (".csv", ".json"):
            continue
        print(f"== {rel}")
        try:
            if rel.suffix == ".csv":
                for name, diff in compare_csv(old, new):
                    print(f"  {name}  {diff:.3g}")
                    if diff > worst["csv"][0]:
                        worst["csv"] = (diff, f"{rel} {name}")
            else:
                for path, diff in compare_json(old, new):
                    print(f"  {path}  {diff if isinstance(diff, str) else format(diff, '.3g')}")
                    if diff == "differs":
                        status = 1
                    elif not isinstance(diff, str) and diff > worst["json"][0]:
                        worst["json"] = (diff, f"{rel} {path}")
        except (ValueError, json.JSONDecodeError) as e:
            print(f"  cannot compare: {e}")
            status = 1
    for kind, (diff, where) in worst.items():
        print(f"=== largest {kind} difference: {diff:.3g} {where}")
    return status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", type=Path, metavar="DIR",
                       help="run in DIR, which must not exist yet, and keep the outputs")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                       help="compare the outputs of two --keep runs")
    args = parser.parse_args()
    if args.compare:
        old, new = (root / "runs" for root in args.compare)
        sys.exit(compare(old, new))
    check_package()
    if args.keep:
        args.keep.mkdir(parents=True)
        run_all(args.keep.resolve())
        return
    with tempfile.TemporaryDirectory() as name:
        run_all(Path(name))


if __name__ == "__main__":
    main()
