"""The benchmark's tracer resolves library names by getattr at run time, so a
rename or removal in src/ would only show in a traced run; these checks make
it fail here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    layers = _load_tracing().LAYERS
    for layer, names in layers.items():
        module = importlib.import_module(f"cyclokit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_gauge_hooks_resolve():
    from cyclokit import numtheory, polyring

    assert callable(polyring.cyclotomic.cache_info)
    assert len(numtheory.totient_sieve(0)) >= 1
