"""The benchmark's tracer patches lagflow by name; those names must exist.

bench/tracer.py replaces public functions, methods and numpy/scipy entry
points of lagflow by counting wrappers for one traced round and puts the
originals back after it.  A refactor that drops or renames a name it looks
up (``switched_graph``, ``hermitian_eig``, ``HermitianPath.value_at``,
``flow.linear_sum_assignment``, ...) breaks ``bench/run.py --trace 1``;
this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import lagflow.flow
import lagflow.intersect

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lagflow_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(owners):
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer_mod = _load_tracer()
    # the lazily bound scipy names are bound by the tracer's lookup; bind
    # them first so the snapshot already holds them
    lagflow.flow.linear_sum_assignment
    lagflow.intersect.minimize
    modules = tracer_mod._lagflow_modules()
    classes = [cls for _, cls, _ in tracer_mod.METHODS]
    entry_modules = [module for _, module in tracer_mod.LAPACK]
    owners = modules + classes + entry_modules
    before = _snapshot(owners)

    tracer = tracer_mod.Tracer()
    with tracer.installed():
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
        for _, fn_name, home in tracer_mod.FUNCTIONS:
            assert (id(home), fn_name) in patched, fn_name
            assert getattr(home, fn_name) is not before[id(home)][fn_name]
        for _, cls, attr in tracer_mod.METHODS:
            assert (id(cls), attr) in patched, f"{cls.__name__}.{attr}"
        for fn_name, module in tracer_mod.LAPACK:
            assert (id(module), fn_name) in patched, fn_name
    assert not tracer._patches

    after = _snapshot(owners)
    for owner in owners:
        old, new = before[id(owner)], after[id(owner)]
        changed = sorted(attr for attr in old.keys() | new.keys()
                         if attr != "__dict__" and old.get(attr) is not new.get(attr))
        assert changed == [], f"{getattr(owner, '__name__', owner)}: {changed}"
