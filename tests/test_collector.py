"""The cyclic collector at environment boundaries.

:func:`repro.sim.engine.collector_paused` is the one place the
collector is switched: it collects once (freeing the previous
environment's cyclic machine graph), pauses for the block, and
re-enables afterwards — unless the caller had already disabled it, in
which case it does nothing at all.  ``make_db_env``, ``run_cell`` and
``ReplayEngine.run`` build or run under it; ``repro.tools.profile``
profiles cells the same way and reports the collector's passes.
"""

from __future__ import annotations

import gc
import json
import re
import weakref

import pytest

from repro.experiments import fig6, harness
from repro.experiments.parallel import (apply_mode, apply_snapshot,
                                        filter_cells, run_cell)
from repro.sim.engine import collector_paused
from repro.tools import profile
from repro.tools.profile import collector_log

SMALL_KV = {"nkeys": 1500, "nops": 600, "warmup_ops": 200,
            "cgroup_pages": 64, "nthreads": 2}


@pytest.fixture
def collector_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_previous_machine_is_freed_by_the_next_cold_build():
    env = harness.make_db_env("lfu", cgroup_pages=64, nkeys=500)
    gc.collect()
    dead = weakref.ref(env.machine)
    del env
    harness.make_db_env("lfu", cgroup_pages=64, nkeys=500)
    assert dead() is None


def test_collector_is_paused_for_the_block_and_restored():
    with collector_log() as log:
        with collector_paused():
            assert not gc.isenabled()
    assert gc.isenabled()
    assert log[2][0] == 1  # the one opening collect


def test_disabled_caller_sees_no_collection(collector_disabled):
    cell = _cell("full", "off")
    with collector_log() as log:
        with collector_paused():
            pass
        harness.make_db_env("lfu", cgroup_pages=64, nkeys=500)
        harness.warm_db_env_snapshot("lfu", cgroup_pages=64, nkeys=500)
        run_cell(cell)
        assert not gc.isenabled()
    assert [passes for passes, _ in log] == [0, 0, 0]


@pytest.mark.parametrize("snapshot", [False, True])
def test_collector_reenabled_when_the_build_raises(snapshot):
    with pytest.raises(ValueError, match="unknown execution mode"):
        harness.make_db_env("lfu", cgroup_pages=64, nkeys=500,
                            mode="bogus", snapshot=snapshot)
    assert gc.isenabled()


def _cell(mode: str, snapshot: str):
    spec = fig6.plan(quick=True, policies=("lfu",), workloads=("C",),
                     scale=SMALL_KV)
    spec = apply_snapshot(apply_mode(spec, mode), snapshot)
    if spec.prepare is not None:
        spec.prepare()
    return filter_cells(spec, "C/lfu").cells[0]


@pytest.mark.parametrize("mode,snapshot", [("full", "off"),
                                           ("replay", "on")])
def test_cell_payload_is_the_same_with_the_collector_on_or_off(
        mode, snapshot):
    cell = _cell(mode, snapshot)
    enabled, _ = run_cell(cell)
    assert gc.isenabled()
    gc.disable()
    try:
        disabled, _ = run_cell(cell)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert json.dumps(enabled, sort_keys=True) == \
        json.dumps(disabled, sort_keys=True)


def test_profile_prints_the_collector_line(capsys):
    assert profile.main(["table3", "--cell", "fifo", "--top", "3"]) == 0
    out = capsys.readouterr().out
    line = re.search(r"^collector: gen0 \d+ passes [\d.]+ s, "
                     r"gen1 \d+ passes [\d.]+ s, "
                     r"gen2 (\d+) passes [\d.]+ s "
                     r"\(of [\d.]+ s profiled\)$", out, re.M)
    assert line, out
    # run_cell's opening collect: the profiled cell ran collector-paused.
    assert int(line.group(1)) >= 1
