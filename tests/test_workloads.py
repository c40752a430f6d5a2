"""Workload generator tests: distributions, YCSB, Twitter, GET-SCAN."""

import os
import pathlib
import random
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm.format import RecordFormat
from repro.kernel import Machine
from repro.workloads import distributions, streams
from repro.workloads.distributions import (CdfZipfianGenerator,
                                           LatestGenerator,
                                           ScrambledZipfianGenerator,
                                           UniformGenerator,
                                           ZipfianGenerator,
                                           scramble_table, zipf_cdf)
from repro.workloads.getscan import GetScanWorkload
from repro.workloads.twitter import (CLUSTERS, ClusterKeyStream,
                                     ClusterProfile, TwitterRunner)
from repro.workloads.ycsb import (YCSB_WORKLOADS, YcsbResult, YcsbRunner,
                                  YcsbSpec, key_of, load_items)
from tests.reference import distributions as reference_tables
from tests.reference.getscan import ReferenceGetScanWorkload
from tests.reference.twitter import ReferenceTwitterRunner
from tests.reference.ycsb import ReferenceYcsbRunner
from tests.strategies import STANDARD_SETTINGS, ycsb_cases
from tests.strategies.ycsb import NKEYS


class TestDistributions:
    def test_uniform_range_and_spread(self):
        gen = UniformGenerator(100, seed=1)
        samples = [gen.next() for _ in range(5000)]
        assert all(0 <= s < 100 for s in samples)
        assert len(set(samples)) > 90

    def test_zipfian_is_skewed(self):
        gen = ZipfianGenerator(1000, seed=2)
        counts = Counter(gen.next() for _ in range(20000))
        top10 = sum(counts[i] for i in range(10))
        assert top10 / 20000 > 0.3  # heavy head

    def test_zipfian_rank_order(self):
        gen = ZipfianGenerator(1000, seed=3)
        counts = Counter(gen.next() for _ in range(50000))
        assert counts[0] > counts[100] > counts.get(900, 0)

    def test_zipfian_bounds(self):
        gen = ZipfianGenerator(50, seed=4)
        assert all(0 <= gen.next() < 50 for _ in range(2000))

    @pytest.mark.parametrize("n", [3, 10000])
    def test_zipfian_top_ulp_stays_in_keyspace(self, n):
        # The largest u random() can return rounds YCSB's base to 1.0.
        class TopUlp:
            def random(self):
                return 1.0 - 2.0 ** -53

        gen = ZipfianGenerator(n, 0.99)
        gen._rng = TopUlp()
        assert gen.next() == n - 1
        scrambled = ScrambledZipfianGenerator(n, 0.99)
        scrambled._zipf._rng = TopUlp()
        assert scrambled.next() == scramble_table(n)[n - 1]

    def test_zipfian_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)

    def test_cdf_zipfian_handles_theta_above_one(self):
        gen = CdfZipfianGenerator(1000, theta=1.2, seed=5)
        counts = Counter(gen.next() for _ in range(20000))
        top10 = sum(counts[i] for i in range(10))
        assert top10 / 20000 > 0.5  # more skewed than theta<1

    def test_scrambled_scatters_hot_keys(self):
        gen = ScrambledZipfianGenerator(10000, seed=6)
        hot = Counter(gen.next() for _ in range(20000)).most_common(10)
        hot_keys = sorted(k for k, _count in hot)
        gaps = [b - a for a, b in zip(hot_keys, hot_keys[1:])]
        assert max(gaps) > 100  # not clustered

    def test_scrambled_deterministic_across_instances(self):
        a = ScrambledZipfianGenerator(1000, seed=7)
        b = ScrambledZipfianGenerator(1000, seed=7)
        assert [a.next() for _ in range(50)] == \
            [b.next() for _ in range(50)]

    def test_latest_tracks_inserts(self):
        gen = LatestGenerator(100, seed=8)
        assert max(gen.next() for _ in range(500)) <= 99
        for _ in range(50):
            gen.advance()
        samples = [gen.next() for _ in range(500)]
        assert max(samples) > 99  # window slid forward
        assert all(s >= 0 for s in samples)


def generators(n: int, theta: float, seed: int) -> list:
    """Every key generator at ``(n, theta, seed)`` (the YCSB sampler
    only below theta 1, which is all it accepts)."""
    made = [UniformGenerator(n, seed=seed),
            CdfZipfianGenerator(n, theta, seed=seed),
            ScrambledZipfianGenerator(n, theta, seed=seed),
            LatestGenerator(n, theta, seed=seed)]
    if theta < 1.0:
        made.append(ZipfianGenerator(n, theta, seed=seed))
    return made


class TestTake:
    """``take(count)`` — what the stream builders call — is ``count``
    calls of ``next()``: the same keys, and the same RNG state after."""

    @STANDARD_SETTINGS
    @given(n=st.integers(3, 3000),
           theta=st.sampled_from((0.5, 0.99, 1.0, 1.1, 1.4, 2.0)),
           seed=st.integers(0, 2 ** 32), count=st.integers(0, 400))
    def test_take_is_repeated_next(self, n, theta, seed, count):
        for bulk, single in zip(generators(n, theta, seed),
                                generators(n, theta, seed)):
            taken = bulk.take(count)
            assert taken.typecode == "q"
            assert list(taken) == [single.next() for _ in range(count)]
            assert bulk.next() == single.next()

    @STANDARD_SETTINGS
    @given(n=st.integers(1, 50000),
           theta=st.floats(0.01, 4.0, allow_nan=False))
    def test_cdf_ends_at_exactly_one(self, n, theta):
        # random() < 1.0, so bisect_right never returns n: no clamp.
        # A fresh memo per example: up to 50,000 boxed floats each
        # would otherwise stay cached for the rest of the session.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distributions, "_CDF_CACHE", {})
            assert zipf_cdf(n, theta)[-1] == 1.0


class TestScrambleTableMatchesReference:
    """The scramble table is an ``array('q')`` of the list body's
    ranks, and the scrambled sampler draws the same keys from it."""

    @STANDARD_SETTINGS
    @given(n=st.integers(1, 3000),
           theta=st.sampled_from((0.5, 0.99, 1.0, 1.1, 1.4, 2.0)),
           seed=st.integers(0, 2 ** 32), count=st.integers(0, 400))
    # n == 2 makes YCSB's eta divide by zero; its sampler never reads it.
    @example(n=2, theta=0.99, seed=0, count=50)
    def test_table_and_draws_equal_the_list(self, n, theta, seed, count):
        table = scramble_table(n)
        assert table.typecode == "q"
        assert list(table) == reference_tables.scramble_table(n)
        scrambled = ScrambledZipfianGenerator(n, theta, seed)
        on_list = ScrambledZipfianGenerator(n, theta, seed)
        on_list._scramble = reference_tables.scramble_table(n)
        assert scrambled.take(count) == array("q", on_list._draws(count))


class TestScrambleTableFootprint:
    """A scramble rank is one machine word: at most 8 bytes each plus a
    constant, where a list of boxed ints costs about 40."""

    def test_eight_bytes_per_entry(self, monkeypatch):
        monkeypatch.setattr(distributions, "_SCRAMBLE_CACHE", {})
        n = 40_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = scramble_table(n)
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == n
        assert cost <= 8 * n + 4096, cost / n


class TestYcsbSpecs:
    def test_all_specs_sum_to_one(self):
        assert set(YCSB_WORKLOADS) == {"A", "B", "C", "D", "E", "F",
                                       "uniform", "uniform-rw"}

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            YcsbSpec("bad", read=0.5, update=0.2)

    def test_workload_d_uses_latest(self):
        assert YCSB_WORKLOADS["D"].distribution == "latest"

    def test_key_format_sorts_numerically(self):
        assert key_of(5) < key_of(50) < key_of(500)

    def test_load_items(self):
        items = load_items(10)
        assert len(items) == 10
        assert items[0][0] == key_of(0)
        # A loaded value is its key index.
        assert items == [(key_of(i), i) for i in range(10)]
        assert all(type(item) is tuple and type(item[1]) is int
                   for item in items)


def small_db_env(nkeys=2000, limit=128):
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=limit)
    db = LsmDb(machine, cg, options=DbOptions(
        fmt=RecordFormat(value_size=1000), memtable_entries=128))
    db.bulk_load(load_items(nkeys))
    return machine, cg, db


class TestYcsbRunner:
    def test_read_only_workload_counts(self):
        machine, cg, db = small_db_env()
        result = YcsbRunner(db, YCSB_WORKLOADS["C"], nkeys=2000,
                            nops=500).run()
        assert result.ops == 500
        assert result.op_counts == {"read": 500}
        assert result.missing_keys == 0
        assert len(result.read_latency) == 500
        assert result.throughput > 0

    def test_mixed_workload_proportions(self):
        machine, cg, db = small_db_env()
        result = YcsbRunner(db, YCSB_WORKLOADS["A"], nkeys=2000,
                            nops=2000).run()
        reads = result.op_counts.get("read", 0)
        updates = result.op_counts.get("update", 0)
        assert reads + updates == 2000
        assert 0.4 < reads / 2000 < 0.6

    def test_insert_workload_grows_keyspace(self):
        machine, cg, db = small_db_env()
        runner = YcsbRunner(db, YCSB_WORKLOADS["D"], nkeys=2000,
                            nops=1000)
        result = runner.run()
        assert runner._insert_counter[0] > 2000
        assert result.missing_keys == 0

    def test_scan_workload_runs(self):
        machine, cg, db = small_db_env()
        result = YcsbRunner(db, YCSB_WORKLOADS["E"], nkeys=2000,
                            nops=200).run()
        assert result.op_counts.get("scan", 0) > 150

    def test_warmup_excluded_from_measurement(self):
        machine, cg, db = small_db_env()
        result = YcsbRunner(db, YCSB_WORKLOADS["C"], nkeys=2000,
                            nops=300, warmup_ops=300).run()
        assert result.ops == 300
        assert len(result.read_latency) == 300

    def test_warmup_reads_keep_no_samples(self):
        machine, cg, db = small_db_env()
        runner = YcsbRunner(db, YCSB_WORKLOADS["F"], nkeys=2000, nops=300,
                            nthreads=3, warmup_ops=600, seed=13)
        threads = runner.spawn()
        machine.run()
        recorders = [cell.cell_contents.read_latency
                     for thread in threads
                     for cell in thread.step_fn.__closure__
                     if isinstance(cell.cell_contents, YcsbResult)]
        assert len(recorders) == 3  # one warm-up sink per worker
        assert [len(r) for r in recorders] == [0, 0, 0]
        result = runner.result
        assert isinstance(result.read_latency.samples_us, array)
        assert len(result.read_latency) == (
            result.op_counts["read"] + result.op_counts["rmw"])
        machine, cg, db = small_db_env()
        reference = ReferenceYcsbRunner(
            db, YCSB_WORKLOADS["F"], nkeys=2000, nops=300, nthreads=3,
            warmup_ops=600, seed=13).run()
        assert result.read_latency.samples_us \
            == reference.read_latency.samples_us
        assert result.p99_read_us == reference.p99_read_us

    def test_multithreaded_runner(self):
        machine, cg, db = small_db_env()
        result = YcsbRunner(db, YCSB_WORKLOADS["C"], nkeys=2000,
                            nops=400, nthreads=4).run()
        assert result.ops == 400

    def test_determinism(self):
        outs = []
        for _ in range(2):
            machine, cg, db = small_db_env()
            result = YcsbRunner(db, YCSB_WORKLOADS["B"], nkeys=2000,
                                nops=400, seed=9).run()
            outs.append((result.throughput, cg.stats.snapshot()))
        assert outs[0] == outs[1]


class TestTwitter:
    def test_all_paper_clusters_defined(self):
        assert set(CLUSTERS) == {17, 18, 24, 34, 52}

    def test_stream_indices_in_range(self):
        for cluster, profile in CLUSTERS.items():
            stream = ClusterKeyStream(profile, 1000, seed=3)
            for _ in range(2000):
                kind, index = stream.next_op()
                assert 0 <= index < 1000
                assert kind in ("read", "update")

    def test_drift_moves_working_set(self):
        profile = ClusterProfile("drifty", window_frac=0.1,
                                 drift_per_kop=500, update_frac=0.0)
        stream = ClusterKeyStream(profile, 10000, seed=4)
        early = {stream.next_index() for _ in range(500)}
        for _ in range(20000):
            stream.next_index()
        late = {stream.next_index() for _ in range(500)}
        overlap = len(early & late) / len(early)
        assert overlap < 0.5

    def test_bursts_die(self):
        profile = ClusterProfile("bursty", burst_prob=0.05, burst_len=5,
                                 update_frac=0.0)
        stream = ClusterKeyStream(profile, 10000, seed=5)
        seen = [stream.next_index() for _ in range(5000)]
        counts = Counter(seen)
        burst_keys = [k for k, c in counts.items() if c == 6]
        assert burst_keys  # burst = initial touch + burst_len repeats

    def test_runner_measures(self):
        machine, cg, db = small_db_env()
        result = TwitterRunner(db, CLUSTERS[52], nkeys=2000, nops=500,
                               warmup_ops=100).run()
        assert result.ops == 500
        assert result.throughput > 0


class TestYcsbStepMatchesReference:
    """One step decodes an op from the worker's stream and runs it;
    the reference draws with ``_run_op`` and executes with
    ``_do_op``."""

    @staticmethod
    def _observe(cls, case):
        machine, cg, db = small_db_env(nkeys=NKEYS, limit=48)
        runner = case.runner(cls, db)
        with case.chunking():
            result = runner.run()
        return (result.ops, result.op_counts, result.elapsed_us,
                result.missing_keys, result.read_latency.samples_us,
                runner._insert_counter[0], machine.now_us,
                cg.stats.snapshot())

    @STANDARD_SETTINGS
    @given(ycsb_cases())
    def test_matches_reference(self, case):
        assert self._observe(YcsbRunner, case) \
            == self._observe(ReferenceYcsbRunner, case)


def _ycsb_observation(cls, workload):
    machine, cg, db = small_db_env()
    runner = cls(db, YCSB_WORKLOADS[workload], nkeys=2000, nops=600,
                 nthreads=3, warmup_ops=150, seed=13)
    result = runner.run()
    return (result.ops, result.op_counts, result.elapsed_us,
            result.missing_keys, result.read_latency.p99,
            runner._insert_counter[0], machine.now_us,
            cg.stats.snapshot())


class TestStreamPregen:
    """Replaying a stream must be byte-identical to sampling each op
    on line (``tests/reference/``) — same op sequence, same virtual
    timings, same cgroup counters — wherever the stream's chunks
    end."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # 250 ops per YCSB worker: three whole chunks and a partial one.
        monkeypatch.setattr(streams, "STREAM_CHUNK", 64)
        streams.clear_cache()
        yield
        streams.clear_cache()

    @pytest.mark.parametrize("workload", ["A", "D", "E", "uniform-rw"])
    def test_ycsb_replay_matches_online(self, workload, small_chunks):
        assert _ycsb_observation(YcsbRunner, workload) \
            == _ycsb_observation(ReferenceYcsbRunner, workload)

    def test_twitter_replay_matches_online(self, small_chunks):
        outs = []
        for cls in (ReferenceTwitterRunner, TwitterRunner):
            machine, cg, db = small_db_env()
            result = cls(db, CLUSTERS[34], nkeys=2000, nops=600,
                         warmup_ops=150, seed=3).run()
            outs.append((result.ops, result.elapsed_us,
                         result.missing_keys, result.read_latency.p99,
                         machine.now_us, cg.stats.snapshot()))
        assert outs[0] == outs[1]

    def test_getscan_replay_matches_online(self, small_chunks):
        outs = []
        for cls in (ReferenceGetScanWorkload, GetScanWorkload):
            machine, cg, db = small_db_env(nkeys=2000, limit=256)
            result = cls(db, nkeys=2000, n_gets=600, get_threads=2,
                         scan_threads=1, scan_len=80, seed=9).run()
            outs.append((result.gets, result.scans,
                         result.get_elapsed_us, result.scan_elapsed_us,
                         result.get_latency.p99,
                         result.scan_latency.p99,
                         result.missing_keys,
                         machine.now_us, cg.stats.snapshot()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
    def test_grown_stream_is_the_whole_stream(self, workload,
                                              monkeypatch):
        # 7-op chunks end everywhere a draw could straddle them; 95
        # ops end on a partial chunk.
        spec = YCSB_WORKLOADS[workload]
        args = (spec, 300, 95, 4, 1, 1.1, 1.4)
        streams.clear_cache()
        whole = streams.ycsb_stream(*args)
        assert len(whole) == 95
        streams.clear_cache()
        monkeypatch.setattr(streams, "STREAM_CHUNK", 7)
        grown = streams.ycsb_stream(*args)
        assert len(grown) == 7
        assert grown.grow(30) == 35
        assert grown.grow(96) == 95
        streams.clear_cache()
        assert (grown.kinds, grown.indices, grown.lengths) \
            == (whole.kinds, whole.indices, whole.lengths)

    def test_second_runner_reads_past_the_first(self, small_chunks):
        # Two runners share one cached stream per worker.  The first
        # stops at an engine deadline partway through; the second
        # must read the chunks the first grew, then grow the rest.
        machine, cg, db = small_db_env()
        YcsbRunner(db, YCSB_WORKLOADS["D"], nkeys=2000, nops=600,
                   nthreads=3, warmup_ops=150, seed=13).spawn()
        machine.run(until_us=2_000.0)
        partial = streams.ycsb_stream(YCSB_WORKLOADS["D"], 2000, 250, 13,
                                      0, 0.99, 1.4)
        assert 64 < len(partial) < 250
        assert _ycsb_observation(YcsbRunner, "D") \
            == _ycsb_observation(ReferenceYcsbRunner, "D")
        assert len(partial) == 250

    def test_cache_bytes_follow_growth(self, monkeypatch):
        monkeypatch.setattr(streams, "STREAM_CHUNK", 10)
        streams.clear_cache()
        try:
            streams.key_strings(300)
            grown = streams.ycsb_stream(YCSB_WORKLOADS["E"], 300, 95, 3,
                                        0, 0.99, 1.4)
            streams.ycsb_stream(YCSB_WORKLOADS["C"], 300, 40, 3, 0,
                                0.99, 1.4)
            assert grown.grow(95) == 95
            info = streams.cache_info()
            assert info["entries"] == 3
            assert info["bytes"] == sum(map(streams._value_bytes,
                                            streams._CACHE.values()))
            assert info["bytes"] > 300 * len(key_of(0)) + 95 * 17
        finally:
            streams.clear_cache()

    @STANDARD_SETTINGS
    @given(workload=st.sampled_from(
               [name for name, spec in YCSB_WORKLOADS.items()
                if len(spec.kind_shares) == 1
                and spec.kind_shares[0][1] >= 1.0]),
           seed=st.integers(0, 10 ** 6), worker=st.integers(0, 7),
           total=st.integers(0, 500))
    def test_one_kind_stream_is_the_kind_walk(self, workload, seed, worker,
                                              total):
        # The one-kind shortcut draws no kinds; the walk it skips would
        # have picked the same kind every time.
        spec = YCSB_WORKLOADS[workload]
        stream = streams.ycsb_stream(spec, 300, total, seed, worker,
                                     1.1, 1.4)
        rng = random.Random(seed * 1000 + worker)
        assert list(stream.kinds) == [streams.draw_op_kind(rng, spec)
                                      for _ in range(total)]

    def test_streams_are_cached_and_shared(self):
        spec = YCSB_WORKLOADS["B"]
        a = streams.ycsb_stream(spec, 500, 200, 21, 0, 0.99, 1.4)
        b = streams.ycsb_stream(spec, 500, 200, 21, 0, 0.99, 1.4)
        assert a is b
        assert streams.cache_info()["entries"] >= 1

    def test_key_strings_match_key_of(self):
        streams.clear_cache()
        keys = streams.key_strings(50)
        assert keys == [key_of(i) for i in range(50)]
        assert streams.key_strings(50) is keys
        assert streams.cache_info()["bytes"] == 50 * len(key_of(0))

    def test_insert_indices_are_runtime_state(self):
        # Insert ops carry -1: the key index comes from the shared
        # insert counter at replay time, not from pre-generation.
        spec = YCSB_WORKLOADS["D"]
        stream = streams.ycsb_stream(spec, 300, 400, 5, 0, 0.99, 1.4)
        kinds = list(stream.kinds)
        assert streams.OP_INSERT in kinds
        for kind, index in zip(kinds, stream.indices):
            if kind == streams.OP_INSERT:
                assert index == -1
            else:
                assert index >= 0

    def test_prepare_streams_prefills_cache(self):
        streams.clear_cache()
        try:
            spec = YCSB_WORKLOADS["E"]
            YcsbRunner.prepare_streams(spec, nkeys=400, nops=300,
                                       nthreads=2, seed=17,
                                       warmup_ops=100,
                                       zipf_theta=1.1)
            entries = streams.cache_info()["entries"]
            assert entries >= 3  # two worker streams + key strings
            # A runner with the same parameters reuses the cache.
            machine, cg, db = small_db_env(nkeys=400)
            runner = YcsbRunner(db, spec, nkeys=400, nops=300,
                                nthreads=2, warmup_ops=100, seed=17,
                                zipf_theta=1.1)
            runner.spawn()
            assert streams.cache_info()["entries"] == entries
        finally:
            streams.clear_cache()


@pytest.mark.parametrize("make,field", [
    (lambda: YcsbRunner(None, YCSB_WORKLOADS["C"], 100, 10, nthreads=0),
     "nthreads"),
    (lambda: YcsbRunner(None, YCSB_WORKLOADS["C"], 100, -1), "nops"),
    (lambda: YcsbRunner(None, YCSB_WORKLOADS["C"], 100, 10,
                        warmup_ops=-1), "warmup_ops"),
    (lambda: TwitterRunner(None, CLUSTERS[52], 100, 10, nthreads=0),
     "nthreads"),
    (lambda: TwitterRunner(None, CLUSTERS[52], 100, -1), "nops"),
    (lambda: TwitterRunner(None, CLUSTERS[52], 100, 10, warmup_ops=-1),
     "warmup_ops"),
    (lambda: GetScanWorkload(None, 100, 10, get_threads=0), "get_threads"),
    (lambda: GetScanWorkload(None, 100, 10, scan_threads=0),
     "scan_threads"),
    (lambda: GetScanWorkload(None, 100, -1), "n_gets"),
])
def test_runner_sizes_are_checked(make, field):
    # No thread would divide by zero or report 0 ops/s; no negative
    # count would silently run nothing.
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        make()


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_simulator_runs_without_numpy():
    # Installed or not, numpy must not be imported by the simulator.
    # A fresh interpreter, so nothing another test imported counts.
    code = textwrap.dedent("""
        import sys
        import repro
        from repro.experiments import fig6, harness, parallel
        from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner
        parallel.execute(fig6.plan(quick=True, policies=("lfu",),
                                   workloads=("C",)), serial=True)
        env = harness.make_db_env("default", cgroup_pages=64, nkeys=2000)
        YcsbRunner(env.db, YCSB_WORKLOADS["A"], nkeys=2000, nops=400,
                   nthreads=2, zipf_theta=1.1).run()
        print(sorted(m for m in sys.modules if m.startswith("numpy")))
    """)
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.splitlines()[-1] == "[]"


class TestGetScan:
    def test_mix_ratio(self):
        machine, cg, db = small_db_env(nkeys=2000, limit=256)
        workload = GetScanWorkload(db, nkeys=2000, n_gets=1000,
                                   get_threads=2, scan_threads=1,
                                   scan_len=100)
        result = workload.run()
        assert result.gets == 1000
        assert result.scans == workload.n_scans
        assert result.get_throughput > 0
        assert result.scan_throughput > 0

    def test_scan_tids_recorded(self):
        machine, cg, db = small_db_env(nkeys=2000, limit=256)
        workload = GetScanWorkload(db, nkeys=2000, n_gets=200,
                                   get_threads=1, scan_threads=2,
                                   scan_len=50)
        workload.spawn()
        assert len(workload.scan_tids) == 2
        machine.run()

    def test_invalid_fadvise_mode(self):
        machine, cg, db = small_db_env()
        with pytest.raises(ValueError):
            GetScanWorkload(db, nkeys=2000, n_gets=10,
                            fadvise_mode="bogus")

    @pytest.mark.parametrize("mode", ["dontneed", "noreuse",
                                      "sequential"])
    def test_fadvise_modes_run(self, mode):
        machine, cg, db = small_db_env(nkeys=2000, limit=256)
        result = GetScanWorkload(db, nkeys=2000, n_gets=300,
                                 get_threads=1, scan_threads=1,
                                 scan_len=50, fadvise_mode=mode).run()
        assert result.gets == 300
