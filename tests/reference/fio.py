"""``FioJob`` with the plain step body: ``thread.advance`` for the
syscall cost and ``rng.randrange`` for the offset.  ``FioJob.run``
spells the same draw out over ``getrandbits``; this is what it must
stay equal to, on every interpreter the suite runs on."""

import random

from repro.apps.fio import FioJob, FioResult


class ReferenceFioJob(FioJob):
    def run(self) -> FioResult:
        machine = self.machine
        file = self.file

        def make_step(thread_seed: int):
            rng = random.Random(thread_seed)
            remaining = [self.ops_per_thread]

            def step(thread) -> bool:
                if remaining[0] <= 0:
                    return False
                thread.advance(machine.costs.syscall_us)
                machine.fs.read_page(file, rng.randrange(file.npages))
                remaining[0] -= 1
                self.result.ops += 1
                return True
            return step

        threads = [
            machine.spawn(f"fio-{i}", make_step(self.seed + i),
                          cgroup=self.cgroup)
            for i in range(self.nthreads)]
        machine.run()
        self.result.elapsed_us = max(t.finish_us for t in threads)
        self.result.cpu_us = sum(t.cpu_us for t in threads)
        return self.result
