"""The plain pop-step-push scheduler loop.

Every step pops the smallest ``(clock, seq)`` entry, runs it and pushes
it back: no burst, no fused re-queue.  :meth:`Engine.run` and
:meth:`Engine._run_unbounded` must dispatch the same threads in the
same order at the same clocks (they consume fewer seq numbers, which
only ever break ties between entries in push order).
"""

import heapq

from repro.sim import engine as engine_mod
from repro.sim.engine import Engine


class ReferenceEngine(Engine):
    def run(self, until_us=None, max_steps=None) -> None:
        steps = 0
        while self._heap:
            if self._live_nondaemon == 0:
                return
            clock, _seq, thread = heapq.heappop(self._heap)
            if thread.done:
                continue
            if until_us is not None and clock >= until_us:
                heapq.heappush(self._heap, (clock, next(self._seq), thread))
                if until_us > self.now_us:
                    self.now_us = until_us
                return
            if max_steps is not None and steps >= max_steps:
                heapq.heappush(self._heap, (clock, next(self._seq), thread))
                raise RuntimeError(f"engine exceeded max_steps={max_steps}")
            self.now_us = clock
            tp = self._tp_switch
            if tp.enabled:
                tp.emit(clock, thread.cgroup_name, thread.tid,
                        thread=thread.name, step=thread.steps)
            engine_mod._current = thread
            try:
                more = thread.step_fn(thread)
            finally:
                engine_mod._current = None
            thread.steps += 1
            steps += 1
            if more:
                heapq.heappush(self._heap,
                               (thread.clock_us, next(self._seq), thread))
                continue
            thread.done = True
            thread.finish_us = thread.clock_us
            self._nr_done += 1
            if not thread.daemon:
                self._live_nondaemon -= 1
            self.now_us = max(self.now_us, thread.clock_us)
            tp = self._tp_exit
            if tp.enabled:
                tp.emit(thread.clock_us, thread.cgroup_name, thread.tid,
                        thread=thread.name, steps=thread.steps,
                        cpu_us=thread.cpu_us)
            self._maybe_compact()

