"""``TwitterRunner`` drawing each op on line from one shared
:class:`ClusterKeyStream`, in engine order — the sampler
``streams.twitter_stream`` pre-draws.  A replayed stream must stay
equal to it."""

from repro.workloads import streams
from repro.workloads.twitter import ClusterKeyStream, TwitterRunner


class ReferenceTwitterRunner(TwitterRunner):
    def run(self):
        source = ClusterKeyStream(self.profile, self.nkeys, seed=self.seed)
        total = self.warmup_ops + self.nops
        warmup = self.warmup_ops
        keys = streams.key_strings(self.nkeys)
        state = {"pos": 0}
        result = self.result
        window_start = {"t": 0.0}

        def step(thread) -> bool:
            i = state["pos"]
            if i >= total:
                return False
            state["pos"] = i + 1
            warm = i < warmup
            kind, index = source.next_op()
            update = kind == "update"
            thread.advance(self.db.machine.costs.app_op_us)
            key = keys[index]
            if not update:
                start = thread.clock_us
                missing = self.db.get(key) is None
                if not warm:
                    if missing:
                        result.missing_keys += 1
                    result.read_latency.record(thread.clock_us - start)
            else:
                self.db.put(key, ("u", result.ops))
            if warm:
                window_start["t"] = max(window_start["t"],
                                        thread.clock_us)
            else:
                result.ops += 1
                result.elapsed_us = max(
                    result.elapsed_us,
                    thread.clock_us - window_start["t"])
            return True

        for worker in range(self.nthreads):
            self.db.machine.spawn(
                f"twitter-{self.profile.name}-{worker}", step,
                cgroup=self.db.cgroup)
        self.db.machine.run()
        return result
