"""Extension features: the readahead hook, SIEVE, streaming prefetch."""

import pytest

from repro.apps.filesearch import (FileSearcher, corpus_pages,
                                   make_source_tree)
from repro.cache_ext import load_policy
from repro.cache_ext.ops import CacheExtOps
from repro.ebpf.runtime import bpf_program
from repro.ebpf.verifier import verify_program
from repro.experiments.harness import build_machine
from repro.kernel import Machine
from repro.kernel.vfs import MAX_RA_PAGES
from repro.policies import make_prefetch_policy, make_sieve_policy


def make_env(limit=128, pages=512, ra=True):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(pages):
        f.store[i] = i
    f.npages = pages
    f.ra_enabled = ra
    return machine, cg, f


def run_trace(machine, f, cg, indices):
    def step(thread, it=iter(list(indices))):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True
    machine.spawn("trace", step, cgroup=cg)
    machine.run()


class TestReadaheadHook:
    def _fixed_window_ops(self, window):
        w = window

        @bpf_program
        def ra(mapping_id, index, seq_streak):
            return w

        return CacheExtOps(name="fixed-ra", readahead=ra)

    def test_custom_window_applies_immediately(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, self._fixed_window_ops(16))
        run_trace(machine, f, cg, [0])
        # One miss pulled 1 + 16 pages without needing a streak.
        assert machine.disk.stats.read_pages == 17
        assert f.mapping.lookup(16) is not None

    def test_zero_window_disables_readahead(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, self._fixed_window_ops(0))
        run_trace(machine, f, cg, range(20))  # sequential
        assert machine.disk.stats.read_pages == 20  # page per miss

    def test_hint_is_bounds_checked(self):
        machine, cg, f = make_env(limit=512)
        load_policy(machine, cg, self._fixed_window_ops(10 ** 6))
        run_trace(machine, f, cg, [0])
        assert machine.disk.stats.read_pages <= MAX_RA_PAGES + 1

    def test_malformed_hint_falls_back_to_kernel(self):
        machine, cg, f = make_env()

        @bpf_program
        def bad_ra(mapping_id, index, seq_streak):
            return -5

        load_policy(machine, cg, CacheExtOps(name="bad-ra",
                                             readahead=bad_ra))
        run_trace(machine, f, cg, range(20))
        # Kernel heuristic behaviour: batched after a streak.
        assert machine.disk.stats.reads < 20


class TestPrefetchPolicy:
    def test_verifies(self):
        ops = make_prefetch_policy()
        for prog in ops.loaded_programs():
            assert verify_program(prog, raise_on_findings=False) == []

    def test_streaming_reads_batch_aggressively(self):
        machine, cg, f = make_env(limit=256)
        load_policy(machine, cg, make_prefetch_policy(window=32))
        run_trace(machine, f, cg, range(128))
        # Far fewer device requests than the kernel heuristic issues.
        baseline_machine, baseline_cg, bf = make_env(limit=256)
        run_trace(baseline_machine, bf, baseline_cg, range(128))
        assert machine.disk.stats.reads < baseline_machine.disk.stats.reads

    def test_random_reads_never_prefetch(self):
        machine, cg, f = make_env(limit=256)
        load_policy(machine, cg, make_prefetch_policy())
        indices = [(i * 131) % 512 for i in range(50)]
        run_trace(machine, f, cg, indices)
        assert machine.disk.stats.read_pages == 50

    def test_composes_with_kernel_eviction(self):
        machine, cg, f = make_env(limit=64)
        load_policy(machine, cg, make_prefetch_policy())
        run_trace(machine, f, cg, range(400))
        assert cg.charged_pages <= 64  # fallback eviction still works

    def test_file_search_finishes_sooner_on_fewer_requests(self):
        # §7's FetchBPF direction on the fig9 scan workload.
        def search(with_prefetch):
            machine = build_machine("default")
            files = make_source_tree(machine, nfiles=200)
            limit = max(64, int(corpus_pages(files) * 0.7))
            cgroup = machine.new_cgroup("search", limit_pages=limit)
            if with_prefetch:
                load_policy(machine, cgroup,
                            make_prefetch_policy(window=32))
            result = FileSearcher(machine, files, cgroup, passes=4).run()
            return result.elapsed_us, machine.metrics().disk["reads"]

        kernel_us, kernel_requests = search(False)
        prefetch_us, prefetch_requests = search(True)
        # The aggressive streaming window issues fewer, larger device
        # requests and finishes sooner on this scan-dominated workload.
        assert prefetch_requests < kernel_requests
        assert prefetch_us <= kernel_us * 1.02


class TestSievePolicy:
    def test_verifies(self):
        ops = make_sieve_policy()
        for prog in ops.loaded_programs():
            assert verify_program(prog, raise_on_findings=False) == []

    def test_visited_folios_get_second_chance(self):
        machine, cg, f = make_env(limit=16, ra=False)
        load_policy(machine, cg, make_sieve_policy())
        hot = [0, 1, 2, 3]
        trace = []
        for i in range(4, 120):
            trace.extend(hot)
            trace.append(i)
        run_trace(machine, f, cg, trace)
        survivors = sum(1 for h in hot
                        if f.mapping.lookup(h) is not None)
        assert survivors >= 3

    def test_one_touch_stream_filtered(self):
        machine, cg, f = make_env(limit=32, ra=False)
        load_policy(machine, cg, make_sieve_policy())
        # Alternate hot re-touches with a one-touch stream.
        trace = []
        for i in range(200):
            trace.append(i % 8)      # hot
            trace.append(50 + i)     # one-touch
        run_trace(machine, f, cg, trace)
        assert all(f.mapping.lookup(h) is not None for h in range(8))

    def test_metadata_cleaned_on_removal(self):
        machine, cg, f = make_env(limit=16, ra=False)
        ops = make_sieve_policy()
        load_policy(machine, cg, ops)
        run_trace(machine, f, cg, range(100))
        visited = None
        for name, cell in zip(
                ops.folio_added.fn.__code__.co_freevars,
                ops.folio_added.fn.__closure__):
            if name == "visited":
                visited = cell.cell_contents
        assert len(visited) == cg.charged_pages
