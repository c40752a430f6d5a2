"""Verifier tests: every rejection class plus acceptance paths."""

import pytest

from repro.ebpf import HashMap, VerificationError, bpf_program, \
    verify_program
from repro.ebpf.runtime import bpf_helper, bpf_kfunc
from repro.ebpf.verifier import MAX_INSNS

shared_map = HashMap(16, name="shared")
A_CONSTANT = 42
A_NAME = "policy"


@bpf_kfunc
def fake_kfunc(x):
    return x


@bpf_helper
def fake_helper(x):
    return x


class TestAcceptance:
    def test_plain_program_verifies(self):
        @bpf_program
        def ok(folio):
            fake_kfunc(folio)
            shared_map.update(folio, 1)
            return A_CONSTANT

        assert verify_program(ok) == []
        assert ok.verified

    def test_helper_call_allowed(self):
        @bpf_program
        def ok(x):
            return fake_helper(x)

        assert verify_program(ok) == []

    def test_allowed_builtins(self):
        @bpf_program
        def ok(a, b):
            return min(a, b) + max(a, b) + abs(a) + len((a, b))

        assert verify_program(ok) == []

    def test_program_calling_program(self):
        @bpf_program
        def inner(x):
            return x + 1

        @bpf_program
        def outer(x):
            return inner(x)

        assert verify_program(outer) == []

    def test_closure_over_map_allowed(self):
        def factory():
            local_map = HashMap(8)

            @bpf_program
            def prog(folio):
                return local_map.lookup(folio)

            return prog

        assert verify_program(factory()) == []

    def test_loops_with_flag(self):
        @bpf_program(allow_loops=True)
        def summer(n):
            total = 0
            for i in range(n):
                total += i
            return total

        assert verify_program(summer) == []

    def test_string_constants_allowed(self):
        @bpf_program
        def ok():
            return A_NAME

        assert verify_program(ok) == []


class TestRejections:
    def _findings(self, prog):
        return verify_program(prog, raise_on_findings=False)

    def test_float_constant(self):
        @bpf_program
        def bad():
            return 0.5

        assert any("floating-point" in f for f in self._findings(bad))

    def test_float_in_tuple_constant(self):
        @bpf_program
        def bad():
            return (1, 2.5)

        assert any("floating-point" in f for f in self._findings(bad))

    def test_true_division(self):
        @bpf_program
        def bad(a, b):
            return a / b

        assert any("division" in f for f in self._findings(bad))

    def test_inplace_true_division(self):
        @bpf_program
        def bad(a, b):
            a /= b
            return a

        assert any("division" in f for f in self._findings(bad))

    def test_power_with_negated_exponent(self):
        @bpf_program
        def bad(x):
            return 2 ** -x

        assert any("power" in f for f in self._findings(bad))

    def test_power_with_variable_or_negative_exponent(self):
        @bpf_program
        def bad(a, b):
            a **= -1
            return a ** b

        assert sum("power" in f for f in self._findings(bad)) == 2

    def test_power_with_natural_constant_allowed(self):
        @bpf_program
        def ok(a):
            a **= 3
            return a ** 2

        assert verify_program(ok) == []

    def test_dunder_method_load(self):
        @bpf_program
        def bad(x):
            return x.__truediv__(3)

        assert any("'__truediv__'" in f for f in self._findings(bad))

    def test_dunder_attribute_chain_to_globals(self):
        @bpf_program
        def bad(ctx):
            return ctx.__class__.__init__.__globals__

        findings = self._findings(bad)
        for name in ("__class__", "__init__", "__globals__"):
            assert any(f"'{name}'" in f for f in findings)

    def test_dunder_attribute_store(self):
        @bpf_program
        def bad(ctx):
            ctx.__dict__ = {}
            return 0

        assert any("'__dict__'" in f for f in self._findings(bad))

    def test_floor_division_allowed(self):
        @bpf_program
        def ok(a, b):
            return a // b

        assert verify_program(ok) == []

    def test_loop_without_flag(self):
        @bpf_program
        def bad(n):
            total = 0
            while n > 0:
                n -= 1
                total += 1
            return total

        assert any("backward jump" in f for f in self._findings(bad))

    def test_import_rejected(self):
        @bpf_program
        def bad():
            import os
            return os

        findings = self._findings(bad)
        assert any("import" in f for f in findings)

    def test_global_store_rejected(self):
        @bpf_program
        def bad():
            global A_CONSTANT
            A_CONSTANT = 1

        assert any("global stores" in f for f in self._findings(bad))

    def test_nested_function_rejected(self):
        @bpf_program
        def bad():
            def inner():
                return 1
            return inner

        assert any("nested" in f.lower() for f in self._findings(bad))

    def test_comprehension_rejected(self):
        @bpf_program
        def bad(xs):
            return [x for x in xs]

        assert self._findings(bad)

    def test_comprehension_rejected_with_loops_allowed(self):
        # 3.12+ inlines the comprehension (PEP 709): no nested code
        # object and no MAKE_FUNCTION, only its LOAD_FAST_AND_CLEAR.
        @bpf_program(allow_loops=True)
        def bad(n):
            return len([i for i in range(n)])

        assert any("comprehensions" in f for f in self._findings(bad))

    def test_unknown_builtin_rejected(self):
        @bpf_program
        def bad(xs):
            return sorted(xs)

        assert any("allowlist" in f for f in self._findings(bad))

    def test_unresolved_global_rejected(self):
        @bpf_program
        def bad():
            return mystery_name  # noqa: F821

        assert any("unresolved" in f for f in self._findings(bad))

    def test_module_reference_rejected(self):
        import os

        def factory():
            mod = os

            @bpf_program
            def bad():
                return mod.getpid()

            return bad

        assert any("closure variable" in f
                   for f in self._findings(factory()))

    def test_generator_rejected(self):
        @bpf_program
        def bad():
            yield 1

        assert self._findings(bad)

    def test_raise_rejected(self):
        @bpf_program
        def bad():
            raise ValueError("no")

        assert any("raise" in f for f in self._findings(bad))

    def test_raises_by_default(self):
        @bpf_program
        def bad():
            return 1.5

        with pytest.raises(VerificationError) as excinfo:
            verify_program(bad)
        assert "bad" in str(excinfo.value)
        assert not bad.verified

    def test_findings_accumulate(self):
        @bpf_program
        def bad(a, b):
            x = 0.5
            return a / b + x

        assert len(self._findings(bad)) >= 2

    def test_max_insns_documented(self):
        assert MAX_INSNS == 4096
