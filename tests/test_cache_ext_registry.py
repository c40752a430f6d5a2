"""Valid-folio registry: safety bookkeeping and the §6.3.1 memory math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache_ext.registry import BUCKET_BYTES, ENTRY_BYTES, \
    FolioRegistry
from repro.kernel.address_space import AddressSpace
from repro.kernel.cgroup import MemCgroup
from repro.kernel.folio import PAGE_SIZE, Folio
from repro.kernel.list import ListNode
from tests.reference.registry import ReferenceRegistry
from tests.strategies import STANDARD_SETTINGS, registry_cases
from tests.strategies.registry import play


def make_folios(n):
    mapping = AddressSpace(1)
    cg = MemCgroup("t", limit_pages=1000)
    return [Folio(mapping, i, cg) for i in range(n)]


class TestRegistryBasics:
    def test_insert_contains_remove(self):
        reg = FolioRegistry(16)
        folio, = make_folios(1)
        assert not reg.contains(folio)
        reg.insert(folio)
        assert reg.contains(folio)
        reg.remove(folio)
        assert not reg.contains(folio)
        assert len(reg) == 0

    def test_duplicate_insert_rejected(self):
        reg = FolioRegistry(16)
        folio, = make_folios(1)
        reg.insert(folio)
        with pytest.raises(RuntimeError):
            reg.insert(folio)

    def test_remove_missing_returns_none(self):
        reg = FolioRegistry(16)
        folio, = make_folios(1)
        assert reg.remove(folio) is None

    def test_non_folio_not_contained(self):
        reg = FolioRegistry(16)
        assert not reg.contains("not a folio")
        assert not reg.contains(12345)

    def test_node_binding(self):
        reg = FolioRegistry(16)
        folio, = make_folios(1)
        reg.insert(folio)
        node = ListNode(folio)
        assert reg.set_node(folio, node)
        assert reg.get_node(folio) is node
        assert reg.remove(folio) is node

    def test_set_node_on_unregistered_fails(self):
        reg = FolioRegistry(16)
        folio, = make_folios(1)
        assert not reg.set_node(folio, ListNode(folio))

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            FolioRegistry(0)


class TestMemoryOverhead:
    def test_empty_registry_fraction(self):
        """§6.3.1: 16/4096 = 0.4% when empty."""
        reg = FolioRegistry(1000)
        assert reg.memory_overhead_fraction() == \
            pytest.approx(BUCKET_BYTES / PAGE_SIZE)

    def test_full_registry_fraction(self):
        """§6.3.1: (16+32)/4096 ≈ 1.2% when full."""
        reg = FolioRegistry(100)
        for folio in make_folios(100):
            reg.insert(folio)
        assert reg.memory_overhead_fraction() == \
            pytest.approx((BUCKET_BYTES + ENTRY_BYTES) / PAGE_SIZE)

    def test_paper_bounds(self):
        assert BUCKET_BYTES / PAGE_SIZE == pytest.approx(0.0039, abs=1e-4)
        assert (BUCKET_BYTES + ENTRY_BYTES) / PAGE_SIZE == \
            pytest.approx(0.0117, abs=1e-4)

    def test_overhead_bytes(self):
        reg = FolioRegistry(10)
        folios = make_folios(3)
        for folio in folios:
            reg.insert(folio)
        assert reg.memory_overhead_bytes() == \
            10 * BUCKET_BYTES + 3 * ENTRY_BYTES


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("IRC"),
                          st.integers(0, 19)), max_size=80))
def test_registry_matches_set_model(ops):
    reg = FolioRegistry(4)
    folios = make_folios(20)
    model = set()
    for op, idx in ops:
        folio = folios[idx]
        if op == "I" and idx not in model:
            reg.insert(folio)
            model.add(idx)
        elif op == "R":
            reg.remove(folio)
            model.discard(idx)
        elif op == "C":
            assert reg.contains(folio) == (idx in model)
    assert len(reg) == len(model)
    for idx in range(20):
        assert reg.contains(folios[idx]) == (idx in model)


class TestReferenceRegistry:
    """The folio-slot registry against the kernel's bucketed layout
    (tests/reference/registry.py)."""

    @STANDARD_SETTINGS
    @given(case=registry_cases())
    def test_matches_the_bucketed_reference(self, case):
        assert play(FolioRegistry, case) == play(ReferenceRegistry, case)

    def test_second_registry_keeps_a_released_folio(self):
        # The owner releases the folio's slots; the registry that holds
        # it in its side table still refuses a second insert.
        first, second = FolioRegistry(4), FolioRegistry(4)
        folio, = make_folios(1)
        first.insert(folio)
        second.insert(folio)
        first.remove(folio)
        with pytest.raises(RuntimeError, match="duplicate"):
            second.insert(folio)
        assert second.contains(folio) and len(second) == 1

    def test_lock_acquisitions_distribute(self):
        reg = ReferenceRegistry(8)
        for folio in make_folios(64):
            reg.insert(folio)
        assert sum(reg.lock_acquisitions) >= 64
        assert sum(1 for c in reg.lock_acquisitions if c > 0) > 1
