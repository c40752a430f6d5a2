"""VFS tests: pread/pwrite, readahead, fsync, fadvise, truncation."""

import pytest
from hypothesis import example, given

from repro.kernel import FAdvice, Machine
from repro.kernel.errors import EBADF, EINVAL
from repro.kernel.page_cache import ExtPolicyBase
from repro.kernel.vfs import MAX_RA_PAGES
from repro.obs import COMPONENTS
from tests.strategies import STANDARD_SETTINGS, range_cases
from tests.strategies.vfs import RangeCase, observe_range


class HintPolicy(ExtPolicyBase):
    """Minimal ext policy: only the readahead hint hook matters."""

    name = "hint"

    def __init__(self, hint):
        self.hint = hint
        self.admitted = 0

    def admit(self, mapping, index):
        self.admitted += 1
        return True

    def readahead_hint(self, mapping, index, seq_streak):
        return self.hint

    def folio_added(self, folio):
        pass

    def folio_accessed(self, folio):
        pass

    def folio_removed(self, folio):
        pass

    def propose_candidates(self, nr):
        return []

    def holds_reference(self, folio):
        return False


def make_fs(limit=256):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("file")
    for i in range(128):
        f.store[i] = f"data{i}"
    f.npages = 128
    return machine, cg, f


def run_in_thread(machine, cg, fn):
    out = {}

    def step(thread):
        out["result"] = fn(thread)
        return False

    machine.spawn("op", step, cgroup=cg)
    machine.run()
    return out.get("result")


class TestReadWrite:
    def test_read_returns_stored_object(self):
        machine, cg, f = make_fs()
        value = run_in_thread(machine, cg,
                              lambda th: machine.fs.read_page(f, 5))
        assert value == "data5"

    def test_read_past_eof(self):
        machine, cg, f = make_fs()
        with pytest.raises(EINVAL):
            machine.fs.read_page(f, 128)

    def test_read_negative_index(self):
        machine, cg, f = make_fs()
        with pytest.raises(EINVAL):
            machine.fs.read_page(f, -1)

    def test_write_extends_file(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.write_page(f, 200, "new"))
        assert f.npages == 201
        assert f.store[200] == "new"

    def test_write_marks_dirty(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.write_page(f, 0, "x"))
        assert f.mapping.lookup(0).dirty

    def test_full_page_write_needs_no_read(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.write_page(f, 0, "x"))
        assert machine.disk.stats.read_pages == 0

    def test_append_page(self):
        machine, cg, f = make_fs()
        idx = run_in_thread(machine, cg,
                            lambda th: machine.fs.append_page(f, "end"))
        assert idx == 128
        assert f.npages == 129

    def test_read_range(self):
        machine, cg, f = make_fs()
        values = run_in_thread(
            machine, cg, lambda th: machine.fs.read_range(f, 3, 4))
        assert values == ["data3", "data4", "data5", "data6"]

    def test_deleted_file_rejects_io(self):
        machine, cg, f = make_fs()
        machine.fs.delete("file")
        with pytest.raises(EBADF):
            machine.fs.read_page(f, 0)
        with pytest.raises(EBADF):
            machine.fs.write_page(f, 0, "x")


class TestNamespace:
    def test_create_open_exists(self):
        machine = Machine()
        f = machine.fs.create("a")
        assert machine.fs.open("a") is f
        assert machine.fs.exists("a")
        assert not machine.fs.exists("b")

    def test_duplicate_create_rejected(self):
        machine = Machine()
        machine.fs.create("a")
        with pytest.raises(EINVAL):
            machine.fs.create("a")

    def test_open_missing_rejected(self):
        machine = Machine()
        with pytest.raises(EBADF):
            machine.fs.open("nope")

    def test_delete_missing_rejected(self):
        machine = Machine()
        with pytest.raises(EBADF):
            machine.fs.delete("nope")


class TestReadahead:
    def _sequential_read(self, machine, cg, f, n):
        def step(thread, state={"i": 0}):
            if state["i"] >= n:
                return False
            machine.fs.read_page(f, state["i"])
            state["i"] += 1
            return True
        machine.spawn("seq", step, cgroup=cg)
        machine.run()

    def test_sequential_reads_trigger_readahead(self):
        machine, cg, f = make_fs()
        self._sequential_read(machine, cg, f, 20)
        # Fewer device requests than pages: batched readahead.
        assert machine.disk.stats.reads < 20
        assert machine.disk.stats.read_pages >= 20

    def test_readahead_pages_become_hits(self):
        machine, cg, f = make_fs()
        self._sequential_read(machine, cg, f, 20)
        assert cg.stats.hits > 0

    def test_random_reads_no_readahead(self):
        machine, cg, f = make_fs()
        indices = [0, 50, 3, 99, 7, 61]

        def step(thread, it=iter(indices)):
            idx = next(it, None)
            if idx is None:
                return False
            machine.fs.read_page(f, idx)
            return True

        machine.spawn("rand", step, cgroup=cg)
        machine.run()
        assert machine.disk.stats.read_pages == len(indices)

    def test_fadvise_random_disables_readahead(self):
        machine, cg, f = make_fs()
        machine.fs.fadvise(f, FAdvice.RANDOM)
        self._sequential_read(machine, cg, f, 20)
        assert machine.disk.stats.read_pages == 20

    def test_fadvise_sequential_widens_window(self):
        machine, cg, f = make_fs()
        machine.fs.fadvise(f, FAdvice.SEQUENTIAL)
        assert f.ra_window == 16

    def test_fadvise_normal_resets(self):
        machine, cg, f = make_fs()
        machine.fs.fadvise(f, FAdvice.SEQUENTIAL)
        machine.fs.fadvise(f, FAdvice.NORMAL)
        assert f.ra_window == 8
        assert f.ra_enabled


class TestReadaheadEdgeCases:
    def _read(self, machine, cg, f, indices):
        it = iter(indices)

        def step(thread):
            idx = next(it, None)
            if idx is None:
                return False
            machine.fs.read_page(f, idx)
            return True

        machine.spawn("ra", step, cgroup=cg)
        machine.run()

    def test_hint_zero_disables_readahead(self):
        machine, cg, f = make_fs()
        cg.ext_policy = HintPolicy(0)
        self._read(machine, cg, f, range(10))
        # Every page was its own device read: no prefetching at all.
        assert machine.disk.stats.read_pages == 10

    def test_negative_hint_disables_readahead(self):
        machine, cg, f = make_fs()
        cg.ext_policy = HintPolicy(-5)
        self._read(machine, cg, f, range(10))
        assert machine.disk.stats.read_pages == 10

    def test_hint_clamped_at_max_ra_pages(self):
        machine, cg, f = make_fs()
        cg.ext_policy = HintPolicy(10_000)
        self._read(machine, cg, f, [0])
        # One miss + a readahead window bounded by the kernel cap,
        # not the policy's oversized ask.
        assert machine.disk.stats.read_pages == 1 + MAX_RA_PAGES
        assert f.mapping.lookup(MAX_RA_PAGES) is not None
        assert f.mapping.lookup(MAX_RA_PAGES + 1) is None

    def test_backward_seek_resets_streak(self):
        machine, cg, f = make_fs()
        self._read(machine, cg, f, [5, 6, 7])
        assert f.seq_streak == 2
        self._read(machine, cg, f, [3])
        assert f.seq_streak == 0
        assert f.last_read_index == 3

    def test_readahead_stops_at_resident_folio(self):
        machine, cg, f = make_fs()
        # Make page 5 resident, then arm readahead at page 2: the
        # window [3..9) must stop before the resident folio.
        self._read(machine, cg, f, [5])
        self._read(machine, cg, f, [0, 1, 2])
        assert f.mapping.lookup(3) is not None
        assert f.mapping.lookup(4) is not None
        assert f.mapping.lookup(6) is None


class TestBulkReadRange:
    """Multi-page reads through ``read_range``."""

    def test_resident_range_is_all_hits(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 8))
        reads_before = machine.disk.stats.reads
        hits_before = cg.stats.hits
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 8))
        assert machine.disk.stats.reads == reads_before
        assert cg.stats.hits - hits_before == 8

    def test_mixed_range_reads_only_missing_pages(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_page(f, 5))
        page5 = f.mapping.lookup(5)
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 3, 6))
        # Pages 3, 4 and 6 missed; page 5 hit and stayed the same
        # folio; the miss at 6 ends a sequential streak, so readahead
        # brought 7 and 8 (and more) in with it.  Every resident page
        # came from the device exactly once.
        assert cg.stats.misses == 4  # 5, then 3, 4, 6
        assert f.mapping.lookup(5) is page5
        assert machine.disk.stats.read_pages == len(list(f.mapping.folios()))

    def test_bulk_updates_recency(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 4))
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 4))
        assert f.mapping.lookup(0).referenced  # first touch after insert
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 4))
        assert f.mapping.lookup(0).active  # second touch activated

    def test_bulk_emits_per_page_lookup_events(self):
        from repro.obs.trace import TraceSession
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_page(f, 2))
        with TraceSession(machine, "cache:lookup") as session:
            run_in_thread(machine, cg,
                          lambda th: machine.fs.read_range(f, 0, 5))
        events = [(e.data["index"], e.data["hit"])
                  for e in session.events]
        # The miss at page 3 ends a sequential streak: readahead brings
        # page 4 in with it, so page 4 hits.
        assert events == [(0, 0), (1, 0), (2, 1), (3, 0), (4, 1)]

    def test_ext_policy_opts_out_of_bulk(self):
        machine, cg, f = make_fs()
        policy = HintPolicy(None)
        cg.ext_policy = policy
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 10))
        # The admission filter saw every insertion (10 pages, nothing
        # resident, hint None keeps the kernel heuristic, which
        # prefetches within the same range).
        assert policy.admitted == 10
        assert machine.disk.stats.reads > 1

    def test_bulk_io_disabled_falls_back(self):
        machine, cg, f = make_fs()
        cg.ext_policy = HintPolicy(None)
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 10))
        # The first two misses are single-page reads before readahead
        # arms, so more than one device request happens.
        assert machine.disk.stats.reads > 1
        assert cg.charged_pages == 10

    def test_bulk_matches_per_page_residency_and_charges(self):
        def run(read):
            machine, cg, f = make_fs()
            run_in_thread(machine, cg, lambda th: read(machine.fs, f))
            return (sorted(folio.index for folio in f.mapping.folios()),
                    cg.charged_pages, cg.stats.lookups), machine.disk.stats

        bulk, bulk_disk = run(lambda fs, f: fs.read_range(f, 0, 10))
        per_page, per_page_disk = run(
            lambda fs, f: [fs.read_page(f, i) for i in range(10)])
        assert bulk == per_page
        assert bulk[1] == 10
        assert bulk_disk == per_page_disk
        assert bulk_disk.read_pages == 10

    def test_read_range_past_eof_rejected(self):
        machine, cg, f = make_fs()
        with pytest.raises(EINVAL):
            machine.fs.read_range(f, 120, 20)

    def test_read_range_empty_is_noop(self):
        machine, cg, f = make_fs()
        assert machine.fs.read_range(f, 0, 0) == []
        assert machine.disk.stats.reads == 0

    def test_read_range_deleted_file_rejected(self):
        machine, cg, f = make_fs()
        machine.fs.delete("file")
        with pytest.raises(EBADF):
            machine.fs.read_range(f, 0, 4)


def _read_pages(fs, f, start, count):
    return [fs.read_page(f, index) for index in range(start, start + count)]


def _read_range(fs, f, start, count):
    return fs.read_range(f, start, count)


class TestReadRange:
    """``read_range`` is ``read_page`` page by page, in one span."""

    @given(case=range_cases())
    # A span the old cpu fix-up left one ulp off: no cpu folded last
    # in COMPONENTS order gave its dur_us.
    @example(case=RangeCase(npages=16, limit=8, resident=(), start=0,
                            count=11, ext_policy="mru", advice=None))
    @STANDARD_SETTINGS
    def test_equals_the_per_page_loop(self, case):
        ranged = observe_range(case, _read_range)
        paged = observe_range(case, _read_pages)
        spans = ranged.pop("spans")
        paged.pop("spans")
        assert ranged == paged
        assert ranged["values"] == [
            ("page", i) for i in range(case.start, case.start + case.count)]
        if not case.count:
            assert spans == []
            return
        span, = spans
        assert span["span"] == "vfs.read_range"
        # The canonical fold: the others in order, then cpu.
        total = 0.0
        for comp in COMPONENTS[1:]:
            total += span.get(comp, 0.0)
        total += span.get("cpu", 0.0)
        assert total == span["dur_us"]

    def test_negative_count_rejected(self):
        machine, cg, f = make_fs()
        with pytest.raises(EINVAL, match="negative page count"):
            machine.fs.read_range(f, 0, -1)
        assert machine.disk.stats.reads == 0
        assert cg.stats.lookups == 0


class TestFadviseSemantics:
    def test_dontneed_drops_clean_pages(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 5))
        machine.fs.fadvise(f, FAdvice.DONTNEED, 0, 5)
        assert all(f.mapping.lookup(i) is None for i in range(5))

    def test_dontneed_spares_dirty_pages(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.write_page(f, 0, "x"))
        machine.fs.fadvise(f, FAdvice.DONTNEED, 0, 1)
        assert f.mapping.lookup(0) is not None

    def test_willneed_prefetches(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg, lambda th: machine.fs.fadvise(
            f, FAdvice.WILLNEED, 10, 5))
        assert all(f.mapping.lookup(i) is not None
                   for i in range(10, 15))

    def test_noreuse_blocks_promotion(self):
        machine, cg, f = make_fs()
        machine.fs.fadvise(f, FAdvice.NOREUSE)
        run_in_thread(machine, cg, lambda th: [
            machine.fs.read_page(f, 0) for _ in range(5)])
        folio = f.mapping.lookup(0)
        assert folio is not None
        assert not folio.active  # recency never updated

    def test_per_read_noreuse(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg, lambda th: [
            machine.fs.read_page(f, 0, noreuse=True) for _ in range(5)])
        assert not f.mapping.lookup(0).active


class TestFsync:
    def test_fsync_writes_dirty_pages(self):
        machine, cg, f = make_fs()

        def op(thread):
            machine.fs.write_page(f, 0, "a")
            machine.fs.write_page(f, 1, "b")
            return machine.fs.fsync(f)

        written = run_in_thread(machine, cg, op)
        assert written == 2
        assert machine.disk.stats.write_pages == 2
        assert not f.mapping.lookup(0).dirty

    def test_fsync_clean_file_is_noop(self):
        machine, cg, f = make_fs()
        assert machine.fs.fsync(f) == 0
        assert machine.disk.stats.write_pages == 0


class TestDelete:
    def test_delete_drops_folios_and_charges(self):
        machine, cg, f = make_fs()
        run_in_thread(machine, cg,
                      lambda th: machine.fs.read_range(f, 0, 10))
        assert cg.charged_pages == 10
        machine.fs.delete("file")
        assert cg.charged_pages == 0
        assert not machine.fs.exists("file")
