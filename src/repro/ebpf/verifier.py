"""The BPF verifier analogue.

Real cache_ext policies survive the kernel's eBPF verifier; policy code
here is plain Python, so we enforce the same *class* of restrictions
statically, by walking the function's bytecode with :mod:`dis`:

* **no floating point** — float constants, true division and ``**``
  with anything but a non-negative integer constant exponent are
  rejected (this is why the LHD policy scales hit densities by a large
  integer constant, §5.2);
* **no dunder attributes** — loading, storing or deleting a
  ``__name__``-style attribute (``x.__truediv__``,
  ``ctx.__class__.__init__.__globals__``) is rejected: it reaches
  operators and objects around every other check;
* **no unbounded loops** — backward jumps are rejected unless the
  program is declared with ``@bpf_program(allow_loops=True)``; even
  then, iteration over eviction lists must go through the
  ``list_iterate`` kfunc, whose scan counts are bounded by the kernel
  side, mirroring how cache_ext "enforce[s] loop termination" (§4.4);
* **no imports, no global stores, no nested functions, no generators**
  — a BPF program is a flat function over its context and maps;
* **no calls outside the allowlist** — every global name a program
  reads must resolve to a BPF map, another BPF program (callbacks), a
  registered kfunc/helper, an integer/string constant, or one of a
  small set of allowed builtins;
* **instruction budget** — programs over :data:`MAX_INSNS` bytecode
  instructions are rejected.

``verify_program`` returns the full list of findings (like a verifier
log) and raises :class:`VerificationError` unless told otherwise.
"""

from __future__ import annotations

import builtins
import dis
import types
from typing import Any, Optional

from repro.ebpf.errors import VerificationError
from repro.ebpf.maps import BpfMap

#: Maximum bytecode instructions per program.
MAX_INSNS = 4096

#: Builtins a program may call.  ``range`` is the bounded-loop idiom
#: (eBPF's ``bpf_for``); the rest are pure integer helpers.
ALLOWED_BUILTINS = {"len", "min", "max", "abs", "range", "id", "isinstance"}

_BANNED_OPS = {
    "IMPORT_NAME": "imports are not allowed in BPF programs",
    "IMPORT_FROM": "imports are not allowed in BPF programs",
    "STORE_GLOBAL": "global stores are not allowed in BPF programs",
    "DELETE_GLOBAL": "global deletes are not allowed in BPF programs",
    "MAKE_FUNCTION": "nested functions/lambdas/comprehensions are not "
                     "allowed in BPF programs",
    # 3.12+ inlines a comprehension (PEP 709): no nested code object,
    # but this opcode saves and restores its loop variable.
    "LOAD_FAST_AND_CLEAR": "nested functions/lambdas/comprehensions are "
                           "not allowed in BPF programs",
    "YIELD_VALUE": "generators are not allowed in BPF programs",
    "RETURN_GENERATOR": "generators are not allowed in BPF programs",
    "RAISE_VARARGS": "BPF programs cannot raise",
}


def _contains_float(const: Any) -> bool:
    if isinstance(const, float):
        return True
    if isinstance(const, (tuple, frozenset)):
        return any(_contains_float(item) for item in const)
    return False


#: Every jump opcode of the running interpreter.  Loop checks go by
#: target, not by name: 3.10 closes a loop with ``JUMP_ABSOLUTE`` or a
#: ``POP_JUMP_IF_*``, 3.11+ with the ``JUMP_BACKWARD`` family.
_JUMP_OPS = frozenset(dis.hasjrel + dis.hasjabs)


def _is_true_division(insn: dis.Instruction) -> bool:
    """``/`` or ``/=`` (not ``//``): 3.10's own opcodes, or 3.11+'s
    ``BINARY_OP`` with that argrepr."""
    if insn.opname == "BINARY_OP":
        return insn.argrepr.rstrip("=") == "/"
    return insn.opname in ("BINARY_TRUE_DIVIDE", "INPLACE_TRUE_DIVIDE")


def _is_power(insn: dis.Instruction) -> bool:
    """``**`` or ``**=``: 3.10's own opcodes, or 3.11+'s ``BINARY_OP``
    with that argrepr."""
    if insn.opname == "BINARY_OP":
        return insn.argrepr.rstrip("=") == "**"
    return insn.opname in ("BINARY_POWER", "INPLACE_POWER")


def _is_natural_constant(insn: Optional[dis.Instruction]) -> bool:
    """Does ``insn`` push a non-negative integer constant?"""
    return (insn is not None
            and insn.opname in ("LOAD_CONST", "LOAD_SMALL_INT")
            and isinstance(insn.argval, int) and insn.argval >= 0)


#: Opcodes that name an attribute, on 3.10 (``LOAD_METHOD``) through
#: 3.12+ (``LOAD_SUPER_ATTR``).
_ATTR_OPS = frozenset({"LOAD_ATTR", "LOAD_METHOD", "LOAD_SUPER_ATTR",
                       "STORE_ATTR", "DELETE_ATTR"})


def _is_dunder_attr(insn: dis.Instruction) -> bool:
    return (insn.opname in _ATTR_OPS and insn.argval.startswith("__")
            and insn.argval.endswith("__"))


def _is_backward_jump(insn: dis.Instruction) -> bool:
    """A jump whose target is at or before itself closes a loop."""
    return insn.opcode in _JUMP_OPS and insn.argval <= insn.offset


def _global_kind_ok(value: Any) -> bool:
    """Is this resolved global something a BPF program may reference?"""
    if isinstance(value, (int, str)) and not isinstance(value, float):
        return True
    if isinstance(value, BpfMap):
        return True
    if getattr(value, "__bpf_map__", False):  # e.g. ring buffers
        return True
    if getattr(value, "__bpf_program__", False):
        return True
    if getattr(value, "__bpf_kfunc__", False):
        return True
    if getattr(value, "__bpf_helper__", False):
        return True
    return False


def verify_code(code: types.CodeType, fn_globals: dict,
                allow_loops: bool,
                extra_globals: Optional[dict] = None,
                freevars: Optional[dict] = None) -> list[str]:
    """Verify one code object; returns findings (empty = accepted)."""
    findings: list[str] = []
    freevars = freevars or {}

    instructions = list(dis.get_instructions(code))
    if len(instructions) > MAX_INSNS:
        findings.append(
            f"program too large: {len(instructions)} > {MAX_INSNS} insns")

    for const in code.co_consts:
        if _contains_float(const):
            findings.append(
                f"floating-point constant {const!r} (eBPF has no floats; "
                f"use fixed-point integer scaling)")
        if isinstance(const, types.CodeType):
            findings.append(
                "nested code object (no inner functions, lambdas or "
                "comprehensions in BPF programs)")

    for prev, insn in zip([None] + instructions, instructions):
        if insn.opname in _BANNED_OPS:
            findings.append(
                f"{_BANNED_OPS[insn.opname]} (at offset {insn.offset})")
        elif not allow_loops and _is_backward_jump(insn):
            findings.append(
                f"backward jump at offset {insn.offset}: loops require "
                f"@bpf_program(allow_loops=True) and bounded iteration")
        elif _is_true_division(insn):
            findings.append(
                f"true division at offset {insn.offset} produces floats; "
                f"use // integer division")
        elif _is_power(insn) and not _is_natural_constant(prev):
            findings.append(
                f"power at offset {insn.offset} without a non-negative "
                f"integer constant exponent can produce floats")
        elif _is_dunder_attr(insn):
            findings.append(
                f"dunder attribute {insn.argval!r} at offset "
                f"{insn.offset} is not allowed in BPF programs")
        elif insn.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            name = insn.argval
            findings.extend(
                _check_global(name, fn_globals, extra_globals or {}))
        elif insn.opname == "LOAD_DEREF":
            # Closure variables: policies are built by factory functions
            # that create fresh maps per load; programs close over them.
            # Those references get the same kind checks as globals.
            name = insn.argval
            if name in freevars and not _global_kind_ok(freevars[name]):
                findings.append(
                    f"closure variable {name!r} resolves to "
                    f"{type(freevars[name]).__name__}, which is not a "
                    f"map, kfunc, helper, BPF program, or int/str "
                    f"constant")
    return findings


def _check_global(name: str, fn_globals: dict,
                  extra_globals: dict) -> list[str]:
    if name in extra_globals:
        value = extra_globals[name]
    elif name in fn_globals:
        value = fn_globals[name]
    elif name in ALLOWED_BUILTINS and hasattr(builtins, name):
        return []
    elif hasattr(builtins, name):
        return [f"builtin {name!r} is not in the BPF allowlist"]
    else:
        return [f"unresolved global {name!r}"]
    if not _global_kind_ok(value):
        return [
            f"global {name!r} resolves to {type(value).__name__}, which "
            f"is not a map, kfunc, helper, BPF program, or int/str "
            f"constant"]
    return []


def verify_program(prog, extra_globals: Optional[dict] = None,
                   raise_on_findings: bool = True) -> list[str]:
    """Verify a :class:`~repro.ebpf.runtime.BpfProgram` (or raw function).

    ``extra_globals`` lets the loader pre-approve names that are
    injected at attach time (e.g., kfunc tables).  On success the
    program is marked ``verified``.
    """
    fn = getattr(prog, "fn", prog)
    allow_loops = getattr(prog, "allow_loops", False)
    name = getattr(prog, "name", getattr(fn, "__name__", "<anon>"))
    freevars: dict = {}
    if fn.__closure__:
        for varname, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                freevars[varname] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                freevars[varname] = None
    findings = verify_code(fn.__code__, fn.__globals__, allow_loops,
                           extra_globals, freevars)
    if findings and raise_on_findings:
        raise VerificationError(name, findings)
    if not findings and hasattr(prog, "verified"):
        prog.verified = True
    return findings
