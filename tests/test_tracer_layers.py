"""The benchmark tracer must still import against the library.

`perfbench/tracing.py` snapshots every layer attribute it wraps when it is
imported, so renaming or deleting one of them crashes every benchmark
worker, traced or not.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_imports_and_finds_every_layer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.LAYERS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    for module, _ in tracing.POOL_MODULES:
        assert hasattr(module, "ThreadPoolExecutor"), module.__name__
    assert tracing.installed_wrappers() == []
