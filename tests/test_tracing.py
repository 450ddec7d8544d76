"""The benchmark's per-layer tracer looks its targets up by name, so a
rename in protoreg breaks only a traced benchmark run. Check every binding
here instead."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_bindings_resolve():
    traced = _tracing().TRACED
    assert traced
    for mod_name, attr, *_ in traced:
        mod = importlib.import_module(f"protoreg.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"protoreg.{mod_name}.{attr}"

