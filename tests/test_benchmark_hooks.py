"""The benchmark tracer's hooks must name live callables, and leave the
results alone.

``benchmarks/tracing.py`` wraps package attributes by name; a rename
would otherwise only show up as a ``missing`` layer metric in a traced
benchmark run.  Its ``factory`` hooks hand the gates a plain callable of
time in place of each block they build, so the gates must read nothing
else of it and still reach the same amplitudes and phases.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from dotgates import gates
from dotgates.dynamics import IntegratorConfig
from dotgates.gates import (
    ZGateParams,
    pi_pulse_time,
    run_cphase,
    run_z_rotation,
    square_cphase_pulse,
)
from dotgates.model import DotPairParams, SquarePulse

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_hook_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for name, (module_name, attr, _, _) in tracing.WRAPS.items():
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{name}: {module_name}.{attr} is not a callable"


def _as_callable(factory):
    """``factory`` as the tracer's ``factory`` hook leaves it: a plain callable
    of time in place of the block."""
    def traced(*args, **kwargs):
        block = factory(*args, **kwargs)
        return lambda t: block(t)

    return traced


def test_gates_agree_when_the_traced_factories_return_plain_callables(monkeypatch):
    p = DotPairParams(omega_a=150.0)
    cfg = IntegratorConfig(sample_interval=0.05)
    zgate = ZGateParams(SquarePulse(1.0, pi_pulse_time(1.0)), wait=0.5)

    def run():
        cphase, trajs = run_cphase(p, square_cphase_pulse(0.2), cfg)
        zrot, traj = run_z_rotation(p, zgate, cfg)
        values = [*cphase.amplitudes.values(), *cphase.phases.values(),
                  *zrot.final_amplitudes.values(), zrot.achieved_phase, zrot.composite_phase]
        return np.array(values), (trajs["11"], trajs["01"], traj)

    untraced, _ = run()
    for name in ("rwa_subspace_generator", "spectator_generator", "lab_single_dot_generator"):
        monkeypatch.setattr(gates, name, _as_callable(getattr(gates, name)))
    traced, trajs = run()
    # the hooks took effect: every block ran unsplit on the adaptive path
    assert {t.metadata["propagator"] for t in trajs} == {"DOP853"}
    np.testing.assert_allclose(traced, untraced, rtol=0, atol=1e-7)
