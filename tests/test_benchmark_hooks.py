"""The benchmark tracer's hooks must name live callables.

``benchmarks/tracing.py`` wraps package attributes by name; a rename
would otherwise only show up as a ``missing`` layer metric in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_hook_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for name, (module_name, attr, _, _) in tracing.WRAPS.items():
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{name}: {module_name}.{attr} is not a callable"
