"""Gate-job benchmark for dotgates.

Runs one workload as a closed loop with one client in this process.  A
job builds its config with ``config.build_config``, runs it through
``cli.run_experiment`` exactly as the CLI does (same report and CSVs),
then runs ``dotgates verify`` on the output through ``cli.main``.  Every
job is checked against the independent references in ``reference.py``.

    python3 benchmarks/run.py --workload cphase-square --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run, with every job, goes to
``benchmarks/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
FRESH_PROCESSES = 5  # medians of fresh-interpreter timings

# per-layer metric -> (unit, spans it needs, per-job value, how jobs combine)
LAYERS: dict[str, tuple[str, tuple[str, ...], Callable[[dict], float], str]] = {
    "config.build_s": ("s", (), lambda j: j["build_s"], "median"),
    "gates.self_s": ("s", ("runner", "propagate"),
                     lambda j: j["runner_s"] - j["propagate_s"], "median"),
    "dynamics.propagate_s": ("s", ("propagate",), lambda j: j["propagate_s"], "median"),
    "dynamics.segments": ("count", ("solver",), lambda j: j["segments"], "mean"),
    "dynamics.rhs_evals": ("count", ("solver",), lambda j: j["rhs_evals"], "mean"),
    "dynamics.phase_s": ("s", ("phase",), lambda j: j["phase_s"], "median"),
    "model.h_evals": ("count", ("h",), lambda j: j["h_evals"], "mean"),
    "model.h_s": ("s", ("h",), lambda j: j["h_s"], "median"),
    "cli.write_s": ("s", ("runner", "phase"),
                    lambda j: j["run_s"] - j["runner_s"] - j["phase_s"], "median"),
    "cli.bytes": ("bytes", (), lambda j: j["bytes"], "mean"),
    "cli.verify_s": ("s", (), lambda j: j["verify_s"], "median"),
}


def fresh_process_seconds(code: list[str], out_dir: Path,
                          self_timed: bool = False) -> list[float]:
    """Wall times of ``python <code>`` in fresh interpreters, or with
    ``self_timed`` the seconds each child prints.

    One unmeasured run first writes the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_dir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(FRESH_PROCESSES + 1):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, *code], env=env, cwd=out_dir, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout) if self_timed else time.perf_counter() - t)
    return times[1:]


def verify(out: Path) -> tuple[int, str]:
    """``dotgates verify --out out`` in this process: exit code, last line."""
    from dotgates import cli

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(["verify", "--out", str(out)], standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    lines = buf.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def run_job(configs: list[tuple[str, dict]], out: Path, tracer) -> dict[str, Any]:
    """One timed job: build, run and write, verify."""
    from dotgates import cli, config

    job: dict[str, Any] = {"build_s": 0.0, "run_s": 0.0}
    if tracer is not None:
        tracer.start()
    try:
        t0 = time.perf_counter()
        for sub, raw in configs:
            t = time.perf_counter()
            cfg = config.build_config(raw)
            t1 = time.perf_counter()
            cli.run_experiment(cfg, out / sub)
            t2 = time.perf_counter()
            job["build_s"] += t1 - t
            job["run_s"] += t2 - t1
        t = time.perf_counter()
        code, summary = verify(out)
        t_end = time.perf_counter()
    finally:
        if tracer is not None:
            job.update(tracer.stop())
    job.update(verify_s=t_end - t, wall_s=t_end - t0, verify_code=code,
               verify_summary=summary)
    return job


def check_job(workload, params: dict, expected: Any, out: Path, job: dict) -> list[str]:
    """Everything wrong with one finished job's output."""
    errors = []
    if job["verify_code"] != 0:
        errors.append(f"verify exited {job['verify_code']}: {job['verify_summary']}")
    files = [f for f in out.rglob("*") if f.suffix in (".csv", ".json")]
    if job["verify_summary"] != f"verified {len(files)} files, 0 failures":
        errors.append(f"verify read {job['verify_summary']!r} of {len(files)} files")
    return errors + workload.check(params, expected, out)


def environment(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    import scipy

    try:
        import cpuinfo
        info = cpuinfo.get_cpu_info()
        machine = f"{info.get('brand_raw')} x{info.get('count')} ({info.get('arch')})"
    except ImportError:
        machine = f"{platform.processor() or platform.machine()} x{os.cpu_count()}"
    return {"machine": machine, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def layer_metrics(jobs: list[dict], tracer) -> tuple[dict[str, float], dict[str, str]]:
    missing_spans = tracer.missing()
    values, missing = {}, {}
    for name, (_, spans, value, combine) in LAYERS.items():
        gone = [f"{s}: {missing_spans[s]}" for s in spans if s in missing_spans]
        if gone:
            missing[name] = "; ".join(gone)
            continue
        per_job = [value(j) for j in jobs]
        values[name] = (statistics.median(per_job) if combine == "median"
                        else sum(per_job) / len(per_job))
    return values, missing


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dotgates" / "__init__.py").is_file():
        print(f"benchmark: no dotgates package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dotgates.cli  # noqa: F401  (fails here, before any result, if broken)
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    env = environment(args)

    if args.trace:
        probe = "import time; t = time.perf_counter(); import dotgates.cli; " \
                "print(time.perf_counter() - t)"
        fresh = fresh_process_seconds(["-c", probe], out / "setup", self_timed=True)
    else:
        fresh = fresh_process_seconds(["-m", "dotgates.cli", "conditions", "--out", "."],
                                      out / "setup")

    params = workload.draw(args.seed)
    expected = [workload.reference(p) for p in params]
    tracer = Tracer(workload.traced) if args.trace else None
    dirs = [out / f"job{k:02d}" for k in range(len(params))]

    # warm-up: lazy imports and first-call costs, not measured; a failure
    # here recurs, and is reported, in the timed loop
    with contextlib.suppress(Exception):
        run_job(workload.configs(params[0]), dirs[0], None)

    jobs: list[dict[str, Any]] = []
    failures: list[str] = []
    wrong = False
    busy = 0.0
    rounds = 0
    while rounds == 0 or busy < args.seconds:
        for k, p in enumerate(params):
            # the traced run interleaves untraced and traced copies of
            # each job, so their difference is the tracing overhead
            modes = [False, True] if args.trace else [False]
            for traced in (modes if rounds % 2 == 0 else modes[::-1]):
                try:
                    job = run_job(workload.configs(p), dirs[k], tracer if traced else None)
                except Exception:  # a job that raises is counted and reported
                    failures.append(f"job{k:02d}: {traceback.format_exc(limit=3)}")
                    jobs.append({"ok": False, "traced": traced, "job": k})
                    continue
                busy += job["wall_s"]
                job["bytes"] = sum(f.stat().st_size for f in dirs[k].rglob("*") if f.is_file())
                errors = check_job(workload, p, expected[k], dirs[k], job)
                wrong = wrong or bool(errors)
                failures += [f"job{k:02d}: {e}" for e in errors]
                job.update(ok=not errors, traced=traced, job=k)
                jobs.append(job)
        rounds += 1

    ok = [j for j in jobs if j["ok"]]
    plain = [j for j in ok if not j["traced"]]
    if args.trace:
        traced = [j for j in ok if j["traced"]]
        metrics, missing = layer_metrics(traced, tracer) if traced else ({}, {})
        metrics["setup.import_s"] = statistics.median(fresh)
        units = {name: spec[0] for name, spec in LAYERS.items()}
        units.update({"setup.import_s": "s", "trace.overhead_s": "s"})
        if traced and plain:
            on = statistics.median(j["wall_s"] for j in traced)
            off = statistics.median(j["wall_s"] for j in plain)
            metrics["trace.overhead_s"] = on - off
            print(f"tracing overhead {on - off:+.4f} s per job "
                  f"(traced p50 {on:.4f} s, untraced p50 {off:.4f} s)")
        for name, why in missing.items():
            print(f"missing {name}: {why}")
    else:
        metrics = {"setup_s": statistics.median(fresh)}
        if plain:
            metrics["jobs_per_s"] = len(plain) / busy
            metrics["job_p50_s"] = statistics.median(j["wall_s"] for j in plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
                 "peak_rss_mb": "MB"}

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs {len(jobs)} in {rounds} rounds of {len(params)}, {busy:.2f} s busy")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    record = {"env": env, "params": params, "rounds": rounds, "metrics": metrics,
              "fresh_process_s": fresh, "failures": failures, "jobs": jobs}
    (out / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {"correct": not wrong, "attempted": len(jobs),
              "failed": len(jobs) - len(ok),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
