"""The benchmark's tracer and workloads resolve library names at run time, so a
rename or removal in src/ would only show as failed benchmark ops; these
checks make it fail here instead."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import cyclokit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    # workloads.py imports the harness's reference module by its bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
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


def _workload_library_names():
    # (module, name) for every lib.<module>.<name> read in a workload, where
    # lib is ctx.lib or a local alias of it, and for every name read through
    # a local alias of ctx.lib.<module>
    names = set()
    for func in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        lib_aliases, module_aliases = set(), {}

        def is_lib(node):
            return (isinstance(node, ast.Attribute) and node.attr == "lib") or (
                isinstance(node, ast.Name) and node.id in lib_aliases
            )

        def module_of(node):
            if isinstance(node, ast.Attribute) and is_lib(node.value):
                return node.attr
            if isinstance(node, ast.Name):
                return module_aliases.get(node.id)
            return None

        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if is_lib(node.value):
                        lib_aliases.add(target.id)
                    elif module_of(node.value):
                        module_aliases[target.id] = module_of(node.value)
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and module_of(node.value):
                names.add((module_of(node.value), node.attr))
    return names


def test_workload_library_names_resolve():
    names = _workload_library_names()
    # one name read by each of the three forms, so the walk cannot go blind
    assert {
        ("kronecker", "certify"),
        ("cycloderiv", "phi_derivs_at_one_recurrence"),
        ("semigroup", "from_generators"),
    } <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"cyclokit.{module}"), name), f"{module}.{name}"


def test_semigroup_census_checker_accepts_library_outputs():
    # the benchmark's exact checks (sorted minimal generators, dataclass
    # equality of the round trip, the symmetry flag) on the warm-up specs and
    # the first cycle of the seed-1 pool, which holds every op kind
    workload = _load_workloads().WORKLOADS["semigroup_census"]
    pool = workload.pool(1)
    specs = workload.warmup(1) + pool[: len(pool) // workload.CYCLES]
    assert {spec["op"] for spec in specs} == {"census", "cyclotomic", "frobenius", "fk"}
    ctx = SimpleNamespace(lib=cyclokit)
    for spec in specs:
        out = workload.run(ctx, spec)
        assert workload.check(spec, out), spec
        assert not workload.check(spec, workload.corrupt(out)), spec


def test_coeff_sweep_checker_accepts_library_outputs():
    # the benchmark's derivative, coefficient and closed-form checks on the
    # warm-up specs and one cycle of the seed-1 pool (one n per phi(n) stratum)
    workload = _load_workloads().WORKLOADS["coeff_sweep"]
    specs = workload.warmup(1) + workload.pool(1)[: workload.STRATA]
    ctx = SimpleNamespace(lib=cyclokit)
    for spec in specs:
        out = workload.run(ctx, spec)
        assert workload.check(spec, out), spec
        assert not workload.check(spec, workload.corrupt(out)), spec
