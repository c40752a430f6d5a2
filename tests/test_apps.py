"""File-search and fio application substrates."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.filesearch import (FileSearcher, corpus_pages,
                                   make_source_tree)
from repro.apps.fio import FioJob
from repro.kernel import Machine
from repro.obs.trace import TraceSession
from repro.policies import make_noop_policy
from tests.reference.fio import ReferenceFioJob
from tests.strategies import STANDARD_SETTINGS

#: Sizes on and beside every ``bit_length`` boundary the offset draw
#: can see: a power of two rejects no draw, one more rejects half.
FIO_FILE_PAGES = sorted(
    {1, 2, 3} | {(1 << k) + d for k in range(2, 14) for d in (-1, 0, 1)
                 if (1 << k) + d <= 8192})


class TestSourceTree:
    def test_tree_shape(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=50, seed=1)
        assert len(files) == 50
        assert all(f.npages >= 1 for f in files)
        assert corpus_pages(files) == sum(f.npages for f in files)

    def test_deterministic(self):
        sizes = []
        for _ in range(2):
            machine = Machine()
            files = make_source_tree(machine, nfiles=30, seed=7)
            sizes.append([f.npages for f in files])
        assert sizes[0] == sizes[1]

    def test_contains_needles(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=100, seed=2)
        needles = sum(
            1 for f in files for page in range(f.npages)
            if "NEEDLE" in f.store[page])
        assert needles > 0


class TestFileSearcher:
    def test_fixed_passes_scan_everything(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=20, seed=3)
        cg = machine.new_cgroup("s", limit_pages=10000)
        searcher = FileSearcher(machine, files, cg, nthreads=2,
                                passes=2)
        result = searcher.run()
        assert result.files_searched == 40
        assert result.pages_scanned == 2 * corpus_pages(files)
        assert result.passes_completed == pytest.approx(2.0)
        assert result.elapsed_us > 0

    def test_second_pass_hits_cache_when_it_fits(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=20, seed=3)
        total = corpus_pages(files)
        cg = machine.new_cgroup("s", limit_pages=total + 100)
        searcher = FileSearcher(machine, files, cg, passes=2)
        searcher.run()
        assert machine.disk.stats.read_pages == total  # pass 2 free

    def test_windowed_run(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=20, seed=3)
        cg = machine.new_cgroup("s", limit_pages=10000)
        searcher = FileSearcher(machine, files, cg, passes=None)
        searcher.spawn()
        machine.run(until_us=20000.0)
        assert searcher.result.files_searched > 0

    def test_empty_corpus_rejected(self):
        machine = Machine()
        cg = machine.new_cgroup("s", limit_pages=100)
        with pytest.raises(ValueError):
            FileSearcher(machine, [], cg)

    def test_matches_found(self):
        machine = Machine()
        files = make_source_tree(machine, nfiles=100, seed=2)
        cg = machine.new_cgroup("s", limit_pages=10000)
        result = FileSearcher(machine, files, cg, passes=1).run()
        assert result.matches > 0


class TestFio:
    def test_ops_and_metrics(self):
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=256)
        job = FioJob(machine, cg, file_pages=512, nthreads=4,
                     ops_per_thread=100)
        result = job.run()
        assert result.ops == 400
        assert result.iops > 0
        assert result.cpu_us_per_op > 0
        assert result.elapsed_us > 0

    def test_cache_bounded(self):
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=64)
        FioJob(machine, cg, file_pages=512, nthreads=2,
               ops_per_thread=200).run()
        assert cg.charged_pages <= 64

    def test_fully_cached_file_all_hits(self):
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=1024)
        job = FioJob(machine, cg, file_pages=64, nthreads=1,
                     ops_per_thread=500)
        job.run()
        assert machine.disk.stats.read_pages <= 64

    def test_deterministic(self):
        results = []
        for _ in range(2):
            machine = Machine()
            cg = machine.new_cgroup("fio", limit_pages=128)
            job = FioJob(machine, cg, file_pages=512, nthreads=4,
                         ops_per_thread=100, seed=5)
            r = job.run()
            results.append((r.elapsed_us, r.cpu_us))
        assert results[0] == results[1]

    @pytest.mark.parametrize("kwargs, named", [
        ({"file_pages": 0}, "file_pages"),
        ({"file_pages": 8, "nthreads": 0}, "nthreads"),
        ({"file_pages": 8, "ops_per_thread": -1}, "ops_per_thread"),
    ])
    def test_bad_argument_rejected_before_anything_is_built(self, kwargs,
                                                            named):
        # file_pages=0 used to surface as randrange's "empty range"
        # from inside the first engine step, threads already spawned.
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=64)
        with pytest.raises(ValueError, match=named):
            FioJob(machine, cg, **kwargs)
        assert not machine.fs.files()
        assert not machine.engine.threads

    def test_one_page_file(self):
        # k = 1: getrandbits(1) is rejected half the time, and every
        # accepted draw is page 0.
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=64)
        result = FioJob(machine, cg, file_pages=1, nthreads=2,
                        ops_per_thread=50).run()
        assert result.ops == 100
        assert cg.stats.lookups == 100
        assert cg.stats.misses == 1

    @staticmethod
    def _observe(job_cls, policy, limit_pages, **job_kwargs):
        machine = Machine()
        cg = machine.new_cgroup("fio", limit_pages=limit_pages)
        if policy == "noop":
            machine.attach(cg, make_noop_policy())
        job = job_cls(machine, cg, **job_kwargs)
        with TraceSession(machine, "cache:lookup") as session:
            result = job.run()
        lookups = [(e.ts_us, e.tid, e.data["hit"], e.data["file"],
                    e.data["index"]) for e in session.events]
        # Cgroup ids come from a process-wide counter.
        metrics = dataclasses.replace(machine.metrics().cgroup("fio"), id=0)
        return ((result.ops, result.elapsed_us, result.cpu_us), lookups,
                metrics)

    @STANDARD_SETTINGS
    @given(file_pages=st.sampled_from(FIO_FILE_PAGES),
           seed=st.integers(0, 2**32), nthreads=st.integers(1, 4),
           ops_per_thread=st.integers(0, 200),
           policy=st.sampled_from(("default", "noop")),
           limit_pages=st.sampled_from((48, 16384)))
    def test_step_equals_the_randrange_reference(self, policy, limit_pages,
                                                 **job_kwargs):
        """The inlined draw *is* ``randrange`` — same offsets per
        thread, so same hits, clocks and counters — on whichever
        interpreter runs the suite."""
        assert (self._observe(FioJob, policy, limit_pages, **job_kwargs)
                == self._observe(ReferenceFioJob, policy, limit_pages,
                                 **job_kwargs))
