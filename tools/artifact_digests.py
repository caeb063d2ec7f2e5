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
written.  Last, it runs ``verify`` on a copy of ``cphase-square`` with one
cell of ``traj_10.csv`` changed, whose data rows otherwise equal those of
``traj_01.csv``.  It needs nothing beyond the standard library and the
package.

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
SWEEP = {"kind": "sweep", "sweep_kind": "cphase", "sweep_param": "omega",
         "sweep_values": [0.08, 0.12]}

# (name, subcommand and options); the output directory is appended
RUNS: list[tuple[str, tuple[str, ...]]] = [
    ("cphase-square", ("cphase",)),
    ("cphase-square-pair", ("cphase", *PAIR)),
    ("cphase-gaussian", ("cphase", *GAUSSIAN)),
    ("cphase-gaussian-pair", ("cphase", *GAUSSIAN, *PAIR)),
    ("cphase-gaussian-split", ("cphase", *GAUSSIAN, "--set", "v_xx=30",
                               "--set", "sample_interval=0.2")),
    # a pulse ~1e-199 ps long: the sudden kick of its area
    ("cphase-gaussian-kick", ("cphase", *GAUSSIAN, "--set", "omega=1e200")),
    ("cphase-ratios-square", ("cphase", "--set", "ratios=[0.3,0.15]")),
    ("cphase-ratios-gaussian", ("cphase", *GAUSSIAN, "--set", "ratios=[0.3,0.15]")),
    ("cphase-commensurate", ("cphase", "--set", "commensurate=true")),
    # eigh at a midpoint away from the origin
    ("cphase-square-late", ("cphase", "--set", "t_start=3.3")),
    ("zrot-square", ("zrot",)),
    ("zrot-square-shifted", ("zrot", "--set", "omega_a=173.3", "--set", "wait=0.37")),
    # a pulse shorter than one carrier period: Magnus, not Floquet
    ("zrot-square-subperiod", ("zrot", "--set", "omega_a=1.5")),
    # Floquet from a carrier origin away from zero
    ("zrot-square-late", ("zrot", "--set", "omega_a=173.3", "--set", "t_start=0.4")),
    ("zrot-gaussian", ("zrot", *GAUSSIAN, "--set", "omega_a=300")),
    ("zrot-gaussian-default", ("zrot", *GAUSSIAN)),
    ("raman", ("raman",)),
    ("raman-detunings", ("raman", "--set", "detunings=[3,4,5.5]")),
    ("raman-detunings-gammas", ("raman", "--set", "detunings=[3,5.5]",
                                "--set", "gammas=[0,0.1]")),
    ("conditions", ("conditions",)),
    ("sweep-jobs-1", ("sweep", "--config", "{sweep}", "--jobs", "1")),
    ("sweep-jobs-2", ("sweep", "--config", "{sweep}", "--jobs", "2")),
]


def cli(args: list[str], tmp: Path) -> str:
    """Run ``dotgates`` with ``args``; return the exit code and both streams."""
    proc = subprocess.run([sys.executable, "-m", "dotgates.cli", *args],
                          capture_output=True, text=True)
    text = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    return text.replace(str(tmp), "<tmp>")


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
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps(SWEEP))
    for run, args in RUNS:
        out = tmp / "runs" / run
        argv = [a.replace("{sweep}", str(sweep)) for a in args]
        print(f"=== {run}: {' '.join(args)}")
        print(cli([*argv, "--out", str(out)], tmp), end="")
        print(f"=== verify {run}")
        print(cli(["verify", "--out", str(out)], tmp), end="")
    edited = tmp / "edited"
    shutil.copytree(tmp / "runs" / "cphase-square", edited)
    edit_cell(edited / "traj_10.csv", 7, "re_10", "5.00000000000e-01")
    print("=== verify cphase-square, traj_10.csv line 7 re_10 set to 0.5")
    print(cli(["verify", "--out", str(edited)], tmp), end="")
    print("=== artifacts")
    print("\n".join(digests(tmp / "runs")))


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
    if args.keep:
        args.keep.mkdir(parents=True)
        run_all(args.keep.resolve())
        return
    with tempfile.TemporaryDirectory() as name:
        run_all(Path(name))


if __name__ == "__main__":
    main()
