"""What ``benchmarks/layered`` pins of the ``repro`` package.

The layered benchmark patches a fixed list of public callables by
name and imports a fixed set of modules; it runs outside tier-1, so a
deleted or renamed boundary would otherwise surface only in the
benchmark driver.  This file makes it surface here, in seconds.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import types

import pytest

from repro.cache_ext.framework import CacheExtPolicy
from repro.cache_ext.ops import CacheExtOps
from repro.kernel import Machine

LAYERED = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "layered"


def load_by_path(name: str, directory: pathlib.Path = LAYERED):
    """Import ``<directory>/<name>.py`` under a private module name
    (``trace.py`` would otherwise shadow the stdlib's)."""
    spec = importlib.util.spec_from_file_location(
        f"_{directory.name}_{name}", directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_is_in_its_owners_dict():
    # Tracer.install() reads vars(owner)[attr]: an inherited or
    # re-exported attribute is not enough.
    boundaries = load_by_path("trace").BOUNDARIES
    assert boundaries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _span in boundaries
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("slot", ["folio_added", "folio_accessed",
                                  "folio_removed"])
def test_generated_hooks_are_plain_named_functions(slot):
    # The three per-folio hooks come from one factory.  The tracer's
    # functools.wraps and cProfile both name a hook by __name__, and
    # neither sees a per-instance closure: it must stay a function in
    # the class dict, not on the instance.
    hook = vars(CacheExtPolicy)[slot]
    assert type(hook) is types.FunctionType
    assert hook.__name__ == slot
    assert hook.__qualname__ == f"CacheExtPolicy.{slot}"
    assert hook.__code__.co_name == slot        # cProfile's row name
    machine = Machine()
    policy = CacheExtPolicy(machine, machine.new_cgroup("t", limit_pages=8),
                            CacheExtOps(name="empty"))
    assert slot not in vars(policy)


def resolve(module_name: str, name: str):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    # ``from package import submodule``
    return importlib.import_module(f"{module_name}.{name}")


@pytest.mark.parametrize("name", ["run", "trace", "workloads", "micro",
                                  "layers"])
def test_repro_imports_resolve(name):
    # Every ``from repro... import x`` and every ``x.attr`` the file
    # reads: a deleted constant the driver only prints (run.py's
    # ``streams.VECTORIZE``) would otherwise crash it at its header.
    tree = ast.parse((LAYERED / f"{name}.py").read_text())
    bound = {alias.asname or alias.name: resolve(node.module, alias.name)
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[0] == "repro"
             for alias in node.names}
    assert bound
    missing = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in bound
               and not hasattr(bound[node.value.id], node.attr)]
    assert not missing


# ----------------------------------------------------------------------
# benchmarks/runner.py --check: the physics gate must not pass by
# looking at less.  Hand-built two-cell documents; no suite run.
# ----------------------------------------------------------------------
def _cell(sha: str, **ops_per_sec) -> dict:
    return {"cells": 8, "rows": 1, "table_sha256": sha,
            "ops_per_sec": ops_per_sec or {"C/lfu": 1.0},
            "hit_ratios": {"C/lfu": 0.5}}


@pytest.fixture(scope="module")
def runner():
    return load_by_path("runner", LAYERED.parent)


@pytest.fixture
def gate(runner, tmp_path):
    doc = {"schema": runner.SCHEMA, "suite": "core", "scale": "quick",
           "experiments": {"fig6": _cell("aa"), "fig9": _cell("bb")}}
    path = tmp_path / "baseline.json"

    def check(baseline: dict, run: dict, **kwargs) -> list:
        path.write_text(json.dumps(baseline))
        return runner.check_against_baseline(run, str(path), **kwargs)

    return doc, check


def without(doc: dict, name: str) -> dict:
    cells = {k: v for k, v in doc["experiments"].items() if k != name}
    return {**doc, "experiments": cells}


def test_gate_passes_on_equal_documents(gate):
    doc, check = gate
    assert check(doc, doc) == []


def test_gate_names_a_cell_the_run_dropped(gate):
    doc, check = gate
    failures = check(doc, without(doc, "fig9"))
    assert len(failures) == 1
    assert "fig9" in failures[0] and "CORE_SUITE" in failures[0]
    # --experiments asks for a subset on purpose.
    assert check(doc, without(doc, "fig9"), subset=True) == []
    # A cell the baseline has never seen has nothing to regress against.
    assert check(without(doc, "fig9"), doc) == []


def test_gate_refuses_a_baseline_of_another_schema(gate):
    doc, check = gate
    failures = check({**doc, "schema": doc["schema"] + 1}, doc)
    assert failures == [
        f"baseline schema {doc['schema'] + 1}, runner schema "
        f"{doc['schema']} — regenerate with "
        f"`python benchmarks/runner.py --quick`"]


def test_gate_still_fails_on_changed_physics(gate):
    doc, check = gate
    moved = {**doc, "experiments": {**doc["experiments"],
                                    "fig9": _cell("cc")}}
    failures = check(doc, moved)
    assert len(failures) == 1 and "table_sha256" in failures[0]
    assert "'bb' -> 'cc'" in failures[0]


def test_gate_names_the_rows_that_moved(gate):
    doc, check = gate
    rows = {f"{w}/lfu": 1.0 for w in "ABCDEFG"}
    moved = dict(rows, **{"B/lfu": 2.0, "H/lfu": 3.0},
                 **{f"{w}/lfu": 1.5 for w in "CDEFG"})
    del moved["A/lfu"]
    failures = check(
        {**doc, "experiments": {"fig6": _cell("aa", **rows)}},
        {**doc, "experiments": {"fig6": _cell("aa", **moved)}})
    # Old -> new per row, a vanished or new row included, five at most.
    assert failures == [
        "fig6: deterministic field 'ops_per_sec' changed (simulation "
        "output differs from baseline): A/lfu 1.0 -> None, "
        "B/lfu 1.0 -> 2.0, C/lfu 1.0 -> 1.5, D/lfu 1.0 -> 1.5, "
        "E/lfu 1.0 -> 1.5, +3 more"]


def test_every_core_suite_name_is_an_experiment_plan(runner):
    for name in runner.CORE_SUITE:
        module = importlib.import_module(f"repro.experiments.{name}")
        assert callable(module.plan)


def test_committed_baseline_records_only_what_is_exact(runner):
    doc = json.loads((LAYERED.parent.parent / "BENCH_core.json").read_text())
    assert doc["schema"] == runner.SCHEMA
    assert tuple(sorted(doc["experiments"])) == \
        tuple(sorted(runner.CORE_SUITE))

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    # Nothing wall-clock, and no cell that re-runs another one.
    assert not [key for key in keys(doc)
                if key in ("timing", "work_units", "calibration_s",
                           "wall_s", "replay", "snapshot")
                or key.endswith("_off")]
    for entry in doc["experiments"].values():
        assert tuple(entry) == tuple(sorted(runner.FIELDS))
