"""A table's bloom filter is derived on its first probe.

``SSTableWriter.finish()`` emits the filter's pages, sized from
``expected_entries``, holding a stand-in; :meth:`SSTable.may_contain`
sets the bits from the table's own keys the first time it is asked.
The filter a writer would have built, ``BloomFilter(filter_bits(
expected)).add_all(keys)``, is the oracle: every bit, and every verdict
on held, absent-in-range and out-of-range keys.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro import snapshot
from repro.apps.lsm.format import (BLOOM_PAGE_BITS, BloomFilter,
                                   filter_bits)
from repro.apps.lsm.sstable import SSTableWriter, open_sstable
from repro.kernel import Machine
from tests.strategies import STANDARD_SETTINGS, sorted_runs, table_probes
from tests.test_lsm_writer import FORMATS

#: How a table comes to be: bulk load (``extend`` straight to the
#: store), flush (``extend`` through the cache), compaction (``add``
#: through the cache), or reopened from its pages.
BUILDS = ("bulk", "flush", "compaction", "open_sstable")

#: Expected entries -> filter pages: one page, and powers of two (the
#: masked build) and others (the 64-bit remainder).
SIZINGS = {0: 1, 1: 1, 3276: 1, 4000: 2, 9000: 3, 12000: 4, 19000: 6}


class BuildTable:
    """Step function of the thread that builds one table as ``built``
    says (a class, so the finished thread pickles with an image)."""

    def __init__(self, machine, fmt, run, expected, built) -> None:
        self.machine = machine
        self.args = fmt, run, expected, built
        self.table = None

    def __call__(self, thread) -> bool:
        fs = self.machine.fs
        fmt, run, expected, built = self.args
        writer = SSTableWriter(fs, "t", fmt, expected,
                               through_cache=built != "bulk")
        if built == "compaction":
            for key, value in run:
                writer.add(key, value)
        else:
            writer.extend(run)
        table = writer.finish()
        self.table = open_sstable(fs, "t") if built == "open_sstable" \
            else table
        return False


def build_table(fmt, run, expected, built):
    """One table on a fresh machine; returns the machine and table."""
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=8)
    step = BuildTable(machine, fmt, run, expected, built)
    machine.spawn("writer", step, cgroup=cg)
    machine.run()
    return machine, step.table


def oracle(expected, run) -> BloomFilter:
    bloom = BloomFilter(filter_bits(expected))
    bloom.add_all(key for key, _ in run)
    return bloom


class TestDerivedFilter:
    @given(fmt=st.sampled_from(FORMATS), data=st.data(),
           built=st.sampled_from(BUILDS),
           expected=st.sampled_from(sorted(SIZINGS)))
    @STANDARD_SETTINGS
    def test_derived_bits_equal_the_built_filter(self, fmt, data, built,
                                                 expected):
        run = data.draw(sorted_runs(fmt.entries_per_page))
        assume(run)
        probes = data.draw(table_probes(run))
        _, table = build_table(fmt, run, expected, built)
        want = oracle(expected, run)
        assert table.bloom_nbits == want.nbits \
            == SIZINGS[expected] * BLOOM_PAGE_BITS
        # The filter pages hold only the stand-in, and nothing is
        # derived until the first probe.
        file = table.file
        assert [file.store[table.n_data_pages + i]
                for i in range(want.npages)] == [None] * want.npages
        assert table._bloom is None
        held = {key for key, _ in run}
        for key in probes:
            verdict = table.may_contain(key)
            assert verdict == (table.min_key <= key <= table.max_key and
                               BloomFilter.test_chunks(want.chunks,
                                                       want.nbits, key))
            assert verdict or key not in held
        if table._bloom is None:   # every probe was out of range
            assert table.may_contain(run[0][0])
        assert table._bloom == want.chunks

    @given(fmt=st.sampled_from(FORMATS), data=st.data(),
           built=st.sampled_from(BUILDS),
           expected=st.sampled_from(sorted(SIZINGS)))
    @STANDARD_SETTINGS
    def test_restored_table_derives_the_same_bits(self, fmt, data, built,
                                                  expected):
        run = data.draw(sorted_runs(fmt.entries_per_page))
        assume(run)
        machine, table = build_table(fmt, run, expected, built)
        image = snapshot.capture(machine, (table,))
        _, restored = snapshot.restore(image)
        assert restored._bloom is None
        key = run[-1][0]
        assert restored.may_contain(key) and table.may_contain(key)
        assert restored._bloom == table._bloom \
            == oracle(expected, run).chunks
