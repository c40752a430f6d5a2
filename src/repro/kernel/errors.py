"""Kernel error types.

Mirrors the errno-style failures the real page cache and cgroup code
paths can produce.  Using distinct exception classes keeps test
assertions precise.
"""


class KernelError(Exception):
    """Base class for simulated kernel failures."""


class ENOMEM(KernelError):
    """Out of memory: a cgroup could not reclaim below its limit."""


class EINVAL(KernelError):
    """Invalid argument passed to a kernel interface."""


class EBADF(KernelError):
    """Operation on a nonexistent or closed file."""


class EBUSY(KernelError):
    """Target folio is pinned or otherwise in use."""


class EIO(KernelError):
    """A block-device request failed (transient or permanent)."""


class ETIMEDOUT(KernelError):
    """A block-device request exceeded its completion deadline."""


class InvariantViolation(AssertionError):
    """A page-cache conservation law does not hold; the message lists
    every broken one (:meth:`Machine.check_invariants`)."""
