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
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
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


if __name__ == "__main__":
    main()
