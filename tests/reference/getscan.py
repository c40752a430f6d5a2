"""``GetScanWorkload`` drawing GET keys from a scrambled-zipfian
chooser and scan starts from ``random.Random`` on line, one per
step — the draws ``streams.zipfian_indices`` and
``streams.uniform_indices`` make in bulk.  Replayed streams must stay
equal to it."""

import random

from repro.workloads import streams
from repro.workloads.distributions import ScrambledZipfianGenerator
from repro.workloads.getscan import GetScanWorkload


class ReferenceGetScanWorkload(GetScanWorkload):
    def spawn(self) -> None:
        if self.fadvise_mode == "sequential":
            self._apply_sequential_advice()
        result = self.result
        machine = self.db.machine
        per_get_thread = self.n_gets // self.get_threads
        scan_advice = self.fadvise_mode if self.fadvise_mode in (
            "dontneed", "noreuse") else None
        keys = streams.key_strings(self.nkeys)

        for worker in range(self.get_threads):
            chooser = ScrambledZipfianGenerator(
                self.nkeys, theta=self.zipf_theta,
                seed=self.seed * 31 + worker)
            pos = [0]

            def get_step(thread, chooser=chooser, pos=pos) -> bool:
                i = pos[0]
                if i >= per_get_thread:
                    return False
                thread.advance(machine.costs.app_op_us)
                index = chooser.next()
                key = keys[index]
                start = thread.clock_us
                if self.db.get(key) is None:
                    result.missing_keys += 1
                result.get_latency.record(thread.clock_us - start)
                pos[0] = i + 1
                result.gets += 1
                result.get_elapsed_us = max(result.get_elapsed_us,
                                            thread.clock_us)
                return True

            machine.spawn(f"get-{worker}", get_step,
                          cgroup=self.db.cgroup)

        per_scan_thread = max(1, self.n_scans // self.scan_threads)
        gets_per_scan = max(1, int(self.n_gets
                                   / max(self.n_scans, 1)))

        #: Scan entries consumed per scheduling step: scans interleave
        #: with GETs at this granularity, like a real cursor would.
        chunk = 64

        for worker in range(self.scan_threads):
            rng = random.Random(self.seed * 97 + worker)
            state = {"done": 0, "cursor": None, "left": 0,
                     "started_at": 0.0}

            def scan_step(thread, rng=rng, state=state,
                          worker=worker) -> bool:
                cursor = state["cursor"]
                if cursor is not None:
                    # Continue the in-flight scan, one chunk at a time.
                    consumed = 0
                    for _entry in cursor:
                        consumed += 1
                        state["left"] -= 1
                        if state["left"] <= 0 or consumed >= chunk:
                            break
                    if state["left"] <= 0 or consumed == 0:
                        cursor.close()
                        state["cursor"] = None
                        state["done"] += 1
                        result.scans += 1
                        result.scan_latency.record(
                            thread.clock_us - state["started_at"])
                        result.scan_elapsed_us = max(
                            result.scan_elapsed_us, thread.clock_us)
                    return True
                if state["done"] >= per_scan_thread:
                    return False
                # Release scan k once the GET side has earned it (or
                # has finished entirely — never deadlock on pacing).
                issued_total = state["done"] * self.scan_threads + worker
                release_at = issued_total * gets_per_scan
                if result.gets < release_at and result.gets < self.n_gets:
                    # GETs are behind; idle briefly without busy-wait.
                    thread.wait_until(thread.clock_us + 200.0)
                    return True
                start_key = keys[rng.randrange(self.nkeys)]
                state["cursor"] = self.db.scan_iter(start_key,
                                                    advice=scan_advice)
                state["left"] = self.scan_len
                state["started_at"] = thread.clock_us
                return True

            thread = machine.spawn(f"scan-{worker}", scan_step,
                                   cgroup=self.db.cgroup)
            self.scan_tids.append(thread.tid)
