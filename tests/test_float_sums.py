"""Simulated numbers do not depend on the interpreter's ``sum()``.

CPython 3.12 made ``sum()`` over floats compensated, which rounds
differently from 3.11's one add per item.  Every float sum that feeds a
simulated number goes through :func:`repro.kernel.stats.left_sum`; the
pins below are the 3.11 values, and the suite runs on 3.10 to 3.12.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.apps.fio import FioJob
from repro.experiments.fig7 import spearman_rank_correlation
from repro.experiments.table5 import harmonic_mean
from repro.kernel import Machine
from repro.kernel.stats import LatencyRecorder, left_sum
from repro.workloads.distributions import ZipfianGenerator
from tests.strategies import STANDARD_SETTINGS

numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2 ** 70, 2 ** 70))


def sequential_adds(values):
    acc = 0
    for value in values:
        acc += value
    return acc


@STANDARD_SETTINGS
@given(st.lists(numbers, max_size=40))
def test_left_sum_is_one_add_per_item(values):
    total = left_sum(values)
    expected = sequential_adds(values)
    assert type(total) is type(expected)
    if isinstance(total, float):
        assert total.hex() == expected.hex()
    else:
        assert total == expected


def test_fio_cpu_us():
    machine = Machine()
    cgroup = machine.new_cgroup("fio", limit_pages=1024)
    result = FioJob(machine, cgroup, file_pages=256, nthreads=8,
                    ops_per_thread=500, seed=7).run()
    assert result.cpu_us.hex() == "0x1.039999999999ap+13"


def test_zipfian_zeta():
    assert ZipfianGenerator._zeta(40_000, 0.99).hex() \
        == "0x1.782886ba57352p+3"


def test_latency_mean():
    recorder = LatencyRecorder()
    for us in (1e16, 1.0, -1e16, 3.0):
        recorder.record(us)
    assert recorder.mean.hex() == "0x1.8000000000000p-1"


def test_table5_harmonic_mean():
    assert harmonic_mean([7.2, 42.4, 38.3, 13.1, 25.0, 22.7]).hex() \
        == "0x1.1317f2d300a7ap+4"


def test_fig7_spearman():
    assert spearman_rank_correlation([3, 1, 2, 5, 4],
                                     [1, 2, 3, 4, 5]).hex() \
        == "0x1.3333333333333p-1"
