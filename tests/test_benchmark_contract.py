"""What ``benchmarks/layered`` pins of the ``repro`` package.

The layered benchmark patches a fixed list of public callables by
name and imports a fixed set of modules; it runs outside tier-1, so a
deleted or renamed boundary would otherwise surface only in the
benchmark driver.  This file makes it surface here, in seconds.
"""

import ast
import importlib
import importlib.util
import pathlib
import types

import pytest

from repro.cache_ext.framework import CacheExtPolicy
from repro.cache_ext.ops import CacheExtOps
from repro.kernel import Machine

LAYERED = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "layered"


def load_by_path(name: str):
    """Import ``benchmarks/layered/<name>.py`` under a private module
    name (``trace.py`` would otherwise shadow the stdlib's)."""
    spec = importlib.util.spec_from_file_location(
        f"_layered_{name}", LAYERED / f"{name}.py")
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


def repro_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            yield node.module, [alias.name for alias in node.names]


@pytest.mark.parametrize("name", ["workloads", "micro", "layers"])
def test_repro_imports_resolve(name):
    found = list(repro_imports(LAYERED / f"{name}.py"))
    assert found
    for module_name, names in found:
        module = importlib.import_module(module_name)
        for attr in names:
            if not hasattr(module, attr):
                # ``from package import submodule``
                importlib.import_module(f"{module_name}.{attr}")
