"""Call sequences over one to three valid-folio registries that share a
handful of folios: every registry operation, duplicate inserts, node
bindings, and folios a second registry registers while (or after) a
first one holds them."""

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.kernel.address_space import AddressSpace
from repro.kernel.cgroup import MemCgroup
from repro.kernel.folio import Folio
from repro.kernel.list import ListNode

OPS = ("insert", "insert", "remove", "contains", "get_node", "set_node")

#: Two folios and two nodes, so registries collide on the same folio
#: and a node is rebound often.
NFOLIOS = 2
NNODES = 2


@dataclass(frozen=True)
class RegistryCase:
    nregistries: int
    #: ``(op, registry index, folio index, node index)``; the node index
    #: only matters to ``set_node`` (``NNODES`` binds ``None``).
    calls: tuple


@st.composite
def registry_cases(draw) -> RegistryCase:
    n = draw(st.integers(1, 3))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, n - 1),
                  st.integers(0, NFOLIOS - 1), st.integers(0, NNODES)),
        max_size=60))
    return RegistryCase(n, tuple(calls))


def play(make, case: RegistryCase) -> list:
    """Run ``case`` on ``case.nregistries`` registries from
    ``make(nbuckets)`` over fresh folios; returns the transcript: each
    call's answer (nodes by index, a duplicate insert as ``"dup"``)
    followed by every registry's ``len`` and memory overhead, and
    last whether each registry contains a non-folio."""
    cgroup = MemCgroup("t", limit_pages=None)
    mapping = AddressSpace(1)
    folios = [Folio(mapping, i, cgroup) for i in range(NFOLIOS)]
    nodes = [ListNode(folio) for folio in folios[:NNODES]] + [None]
    registries = [make(4 + i) for i in range(case.nregistries)]
    transcript = []
    for op, which, index, node in case.calls:
        registry = registries[which]
        folio = folios[index]
        if op == "insert":
            try:
                registry.insert(folio)
                answer = None
            except RuntimeError:
                answer = "dup"
        elif op == "set_node":
            answer = registry.set_node(folio, nodes[node])
        elif op == "contains":
            answer = registry.contains(folio)
        else:
            got = getattr(registry, op)(folio)
            answer = nodes.index(got)
        transcript.append((op, which, index, answer,
                           [(len(r), r.memory_overhead_bytes())
                            for r in registries]))
    transcript.append([r.contains("not a folio") for r in registries])
    return transcript
