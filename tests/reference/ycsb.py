"""``YcsbRunner`` with the op drawn and executed by plain methods.

``YcsbRunner._step`` decodes an op from its stream and runs the op
body in one closure; this is the readable trio it replaced — ``_do_op``
executes one already-drawn op, ``_run_op`` draws one on line, and the
step discards warm-up ops by swapping ``self.result`` for a throwaway.
It samples on line, so it is also what a replayed stream must stay
equal to.
"""

import random

from repro.workloads import streams
from repro.workloads.distributions import LatestGenerator
from repro.workloads.streams import (OP_INSERT, OP_NAMES, OP_READ,
                                     OP_SCAN, OP_UPDATE)
from repro.workloads.ycsb import YcsbResult, YcsbRunner, key_of


class ReferenceYcsbRunner(YcsbRunner):
    def _key(self, index: int) -> str:
        if index < self.nkeys:
            return self._keys[index]
        return key_of(index)

    def _do_op(self, thread, kind: int, index: int, scan_len: int,
               counter: int) -> None:
        result = self.result
        name = OP_NAMES[kind]
        result.op_counts[name] = result.op_counts.get(name, 0) + 1
        thread.advance(self.db.machine.costs.app_op_us)
        if kind == OP_INSERT:
            index = self._insert_counter[0]
            self._insert_counter[0] += 1
            self.db.put(key_of(index), ("new", counter))
            return
        # "latest" can point at inserts not yet performed in other
        # threads' views; clamp to the loaded keyspace + done inserts.
        limit = self._insert_counter[0] - 1
        if index > limit:
            index = limit
        key = self._key(index)
        if kind == OP_READ:
            start = thread.clock_us
            value = self.db.get(key)
            result.read_latency.record(thread.clock_us - start)
            if value is None:
                result.missing_keys += 1
        elif kind == OP_UPDATE:
            self.db.put(key, ("u", counter))
        elif kind == OP_SCAN:
            self.db.scan(key, scan_len)
        else:  # rmw
            start = thread.clock_us
            value = self.db.get(key)
            result.read_latency.record(thread.clock_us - start)
            if value is None:
                result.missing_keys += 1
            self.db.put(key, ("rmw", counter))

    def _run_op(self, thread, rng: random.Random, chooser,
                counter: int) -> None:
        kind = streams.draw_op_kind(rng, self.spec)
        if kind == OP_INSERT:
            if isinstance(chooser, LatestGenerator):
                chooser.advance()
            self._do_op(thread, kind, -1, 0, counter)
            return
        index = chooser.next()
        scan_len = (1 + rng.randrange(self.spec.max_scan_len)
                    if kind == OP_SCAN else 0)
        self._do_op(thread, kind, index, scan_len, counter)

    def _online_step(self, worker: int, warmup_per_thread: int,
                     per_thread: int):
        rng = random.Random(self.seed * 1000 + worker)
        chooser = streams.make_ycsb_chooser(
            self.spec, self.nkeys, self.seed * 77 + worker,
            self.zipf_theta, self.latest_theta)
        remaining = [per_thread]
        warmup_left = [warmup_per_thread]
        window_start = [0.0]

        def step(thread) -> bool:
            if warmup_left[0] > 0:
                # Warmup: same op stream, results discarded.
                saved = self.result
                self.result = YcsbResult(self.spec.name)
                try:
                    self._run_op(thread, rng, chooser, 0)
                finally:
                    self.result = saved
                warmup_left[0] -= 1
                window_start[0] = thread.clock_us
                return True
            if remaining[0] <= 0:
                return False
            self._run_op(thread, rng, chooser, self.result.ops)
            remaining[0] -= 1
            self.result.ops += 1
            self.result.elapsed_us = max(
                self.result.elapsed_us,
                thread.clock_us - window_start[0])
            return True

        return step

    def spawn(self) -> list:
        per_thread = self.nops // self.nthreads
        warmup_per_thread = self.warmup_ops // self.nthreads
        return [
            self.db.machine.spawn(
                f"ycsb-{self.spec.name}-{worker}",
                self._online_step(worker, warmup_per_thread, per_thread),
                cgroup=self.db.cgroup)
            for worker in range(self.nthreads)]
