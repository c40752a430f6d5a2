"""Userspace loader: verify, register and attach cache_ext policies.

Mirrors the paper's loading flow: the userspace loader opens the cgroup
(the per-cgroup struct_ops extension of §4.3 adds a cgroup file
descriptor to the kernel's struct_ops loading interface), the programs
are verified like any other eBPF program, ``policy_init`` runs, and the
policy becomes live for that cgroup only.

Loading requires root in the real system; here, the equivalent
constraint is simply that loading is an explicit, privileged machine
operation rather than something application threads can do implicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache_ext.framework import CacheExtPolicy
from repro.cache_ext.ops import CACHE_EXT_OPS_SPEC, CacheExtOps
from repro.ebpf.errors import ProgramError, VerificationError
from repro.kernel.cgroup import MemCgroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine


def load_policy(machine: "Machine", memcg: MemCgroup,
                ops: CacheExtOps) -> CacheExtPolicy:
    """Verify and attach ``ops`` as ``memcg``'s eviction policy.

    Raises :class:`VerificationError` if any program fails the
    verifier, and :class:`ProgramError` if ``policy_init`` reports
    failure.  Folios already resident in the cgroup are replayed to the
    policy through ``folio_added`` so mid-run attachment is safe.
    """
    if memcg.ext_policy is not None:
        raise VerificationError(
            ops.name, [f"cgroup {memcg.name!r} already has policy "
                       f"{memcg.ext_policy.name!r} attached"])

    handle = machine.struct_ops.register(
        CACHE_EXT_OPS_SPEC,
        {slot: prog for slot, prog in ops.programs().items()
         if prog is not None},
        cgroup_id=memcg.id)

    policy = CacheExtPolicy(machine, memcg, ops)
    policy._struct_ops_handle = handle

    # Make kfuncs resolvable during policy_init, before hooks are live.
    memcg._cache_ext_loading = policy
    try:
        if ops.policy_init is not None:
            rc = ops.policy_init(memcg)
            if rc not in (None, 0):
                raise ProgramError(
                    f"policy {ops.name!r}: policy_init returned {rc}")
        # Replay resident folios so attach does not require an empty
        # cgroup (the paper drops caches before tests; we support both).
        for folio in _resident_folios(machine, memcg):
            policy.registry.insert(folio)
            if ops.folio_added is not None:
                ops.folio_added(folio)
    except Exception:
        machine.struct_ops.unregister(handle)
        raise
    finally:
        del memcg._cache_ext_loading

    memcg.ext_policy = policy
    policy.attached = True
    return policy


def unload_policy(policy: CacheExtPolicy) -> None:
    """Detach a policy; the kernel's own lists take over eviction."""
    memcg = policy.memcg
    if memcg.ext_policy is not policy:
        raise ProgramError(f"policy {policy.name!r} is not attached")
    memcg.ext_policy = None
    policy.attached = False
    policy.machine.struct_ops.unregister(policy._struct_ops_handle)
    policy._empty_lists()


def _resident_folios(machine: "Machine", memcg: MemCgroup):
    for f in machine.fs.files():
        for folio in f.mapping.folios():
            if folio.memcg is memcg:
                yield folio
