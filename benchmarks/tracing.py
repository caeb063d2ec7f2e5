"""Per-layer tracing of dotgates from outside the package.

The tracer replaces module attributes with timing or counting wrappers
for the length of one job and puts the originals back afterwards.  A
name is looked up where its caller finds it (``run_cphase`` as
``dotgates.cli`` imports it, ``evolve_schrodinger`` as ``dotgates.gates``
imports it), so only the calls made through that import are seen.

Spans of the same name do not nest: only the outermost call is timed.
A wrapped name that no longer exists leaves its span missing, and every
metric built on that span is reported as missing instead of as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

# name -> (module, attribute, span, how it is wrapped)
WRAPS: dict[str, tuple[str, str, str, str]] = {
    "run_cphase": ("dotgates.cli", "run_cphase", "runner", "timed"),
    "run_z_rotation": ("dotgates.cli", "run_z_rotation", "runner", "timed"),
    "run_raman_x": ("dotgates.cli", "run_raman_x", "runner", "timed"),
    "evolve_schrodinger": ("dotgates.gates", "evolve_schrodinger", "propagate", "timed"),
    "evolve_lindblad": ("dotgates.gates", "evolve_lindblad", "propagate", "timed"),
    "accumulated_phase": ("dotgates.cli", "accumulated_phase", "phase", "timed"),
    "to_rotating_frame": ("dotgates.cli", "to_rotating_frame", "phase", "timed"),
    "solve_ivp": ("dotgates.dynamics", "solve_ivp", "solver", "solver"),
    "rwa_subspace_generator": ("dotgates.gates", "rwa_subspace_generator", "h", "factory"),
    "spectator_generator": ("dotgates.gates", "spectator_generator", "h", "factory"),
    "lab_single_dot_generator": ("dotgates.gates", "lab_single_dot_generator", "h",
                                 "factory"),
}

# per-job accumulators the wrappers fill
JOB_KEYS = ("runner_s", "propagate_s", "phase_s", "h_s", "segments", "rhs_evals",
            "h_evals")


class Tracer:
    """Wraps the given names; ``start`` and ``stop`` bracket one traced job."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self._targets: list[tuple[Any, str, Callable, Callable]] = []
        self.absent: dict[str, str] = {}
        self.spans: dict[str, list[str]] = defaultdict(list)
        self._depth: dict[str, int] = defaultdict(int)
        self.job: dict[str, float] = {}
        for name in names:
            module_name, attr, span, how = WRAPS[name]
            self.spans[span].append(name)
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent[name] = f"{module_name}.{attr} not found"
                continue
            wrap = {"timed": self._timed, "solver": self._solver,
                    "factory": self._factory}[how]
            self._targets.append((module, attr, original, wrap(original, span)))

    def start(self) -> None:
        self.job = dict.fromkeys(JOB_KEYS, 0.0)
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def stop(self) -> dict[str, float]:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)
        return self.job

    def missing(self) -> dict[str, str]:
        """Spans that cannot be measured, with the reason."""
        out = {}
        for span, names in self.spans.items():
            gone = [self.absent[n] for n in names if n in self.absent]
            if gone:
                out[span] = "; ".join(gone)
        return out

    def _timed(self, fn: Callable, span: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._depth[span]:
                return fn(*args, **kwargs)
            self._depth[span] += 1
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.job[f"{span}_s"] += time.perf_counter() - t
                self._depth[span] -= 1

        return wrapper

    def _solver(self, fn: Callable, span: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sol = fn(*args, **kwargs)
            self.job["segments"] += 1
            self.job["rhs_evals"] += sol.nfev
            return sol

        return wrapper

    def _factory(self, fn: Callable, span: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Callable:
            h = fn(*args, **kwargs)

            def counted(t: float) -> Any:
                t0 = time.perf_counter()
                try:
                    return h(t)
                finally:
                    self.job["h_s"] += time.perf_counter() - t0
                    self.job["h_evals"] += 1

            return counted

        return wrapper
