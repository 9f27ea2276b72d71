"""One benchmark child process: set up a workload, run it, gate its outputs.

Started by ``run.py`` as ``python -m perfbench.harness`` with the
monotonic time at which it was spawned, so that set-up time covers the
interpreter start, the imports, building contexts and generating the
inputs.  Prints one JSON record on stdout.

- ``--probe``: stop after set-up and report only its duration.
- untraced: a single client in a closed loop runs whole rounds of the
  request pool for about ``--seconds`` (it stops at the round end closest
  to them), timing each request.
- ``--trace``: a fixed batch of rounds runs untraced and then traced,
  repeatedly until ``--seconds`` have passed; counts come from the
  batch and times are medians over the repetitions.

The correctness gate runs after the timed region.  It checks that every
pool entry gave one and the same output on every execution, runs each
workload's oracle, and compares the SHA-256 digest of the pool's outputs
with the one recorded in ``digests.json`` for the seed, when there is one
(``record_digests.py`` writes them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from perfbench import tracing
from perfbench.workloads import WORKLOADS, Workload

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MAX_ERRORS = 20


class Outputs:
    """First output of every pool entry, its executions, and the entries that failed.

    Keeping one output per entry, not one per execution, keeps the peak
    memory independent of how many requests a run completes.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.first: dict[int, str] = {}
        self.runs = [0] * len(wl.requests)
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def _error(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def execute(self, idx: int) -> str | None:
        try:
            return self.wl.execute(self.wl.requests[idx])
        except Exception as exc:  # a failing request is counted, the loop goes on
            self._error(f"request {idx} ({self.wl.requests[idx].label}) raised {exc!r}")
            return None

    def add(self, idx: int, out: str | None) -> None:
        self.runs[idx] += 1
        if out is None:
            self.bad.add(idx)
        elif self.first.setdefault(idx, out) != out:
            self.bad.add(idx)
            self._error(f"request {idx} gave two different outputs")

    def gate(self, recorded: str | None) -> dict:
        """Check the outputs, outside the timed region, against a recorded digest if any."""
        wl = self.wl
        for idx in range(len(wl.requests)):  # entries the run never reached
            if idx not in self.first and idx not in self.bad:
                out = self.execute(idx)
                if out is None:
                    self.bad.add(idx)
                else:
                    self.first[idx] = out
        for idx in range(0, len(wl.requests), wl.check_every):
            if idx in self.bad:
                continue
            try:
                problem = wl.check(wl.requests[idx], self.first[idx])
            except Exception as exc:  # a malformed output is a wrong output
                problem = f"oracle raised {exc!r}"
            if problem is not None:
                self.bad.add(idx)
                self._error(f"request {idx} ({wl.requests[idx].label}): {problem}")
        attempted = sum(self.runs)
        failed = sum(self.runs[idx] for idx in self.bad)
        digest = None
        if not self.bad:
            digest = pool_digest([self.first[idx] for idx in range(len(wl.requests))])
            if recorded is not None and recorded != digest:
                self.errors.append(f"output digest {digest} differs from the recorded {recorded}")
                failed = attempted
        return {"attempted": attempted, "failed": failed, "digest": digest,
                "digest_checked": recorded is not None, "errors": self.errors}


def recorded_digest(wl: Workload) -> str | None:
    return json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(wl.seed))


def pool_digest(outputs: list[str]) -> str:
    """SHA-256 of a pool's canonical outputs, in pool order."""
    text = "\n".join(f"{idx}\t{out}" for idx, out in enumerate(outputs))
    return hashlib.sha256(text.encode()).hexdigest()


def timed_run(wl: Workload, seconds: float) -> dict:
    clock = time.perf_counter
    outputs = Outputs(wl)
    rounds = len(wl.requests) // wl.round_size
    latencies = array("d")
    start = clock()
    deadline = start + seconds
    r = 0
    while True:
        base = (r % rounds) * wl.round_size
        for idx in range(base, base + wl.round_size):
            t0 = clock()
            out = outputs.execute(idx)
            latencies.append(clock() - t0)
            outputs.add(idx, out)
        r += 1
        now = clock()
        # stop where the run ends closest to the deadline: within half a round of it
        if now + (now - start) / r / 2 >= deadline:
            break
    elapsed = clock() - start
    # read before the samples are copied into a list, which would add to the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "elapsed_s": elapsed,
        "rounds": r,
        "latencies_s": latencies.tolist(),
        "peak_rss_mb": peak_rss_mb,
    }
    record.update(outputs.gate(recorded_digest(wl)))
    return record


def traced_run(wl: Workload, seconds: float) -> dict:
    clock = time.perf_counter
    outputs = Outputs(wl)
    batch = range(wl.trace_rounds * wl.round_size)
    reps = []
    spans = None
    start = clock()
    while True:
        t0 = clock()
        for idx in batch:
            outputs.add(idx, outputs.execute(idx))
        untraced = clock() - t0
        tracer = tracing.Tracer()
        traced_outs = []
        with tracing.installed(tracer):
            t0 = clock()
            for idx in batch:
                with tracer.span_of_request(idx, wl.requests[idx].label):
                    traced_outs.append(outputs.execute(idx))
            traced = clock() - t0
        for idx, out in zip(batch, traced_outs):
            outputs.add(idx, out)
        metrics, bases = tracing.layer_metrics(tracer, len(batch), wl.lef_pairs(traced_outs))
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        reps.append(metrics)
        if spans is None:
            spans = tracer.dump()
        if clock() - start >= seconds:
            break
    leftovers = tracing.leftover_patches()
    if leftovers:
        outputs.errors.append(f"library functions still patched: {leftovers}")
    counts = [{k: v for k, v in rep.items() if v[1] != "s" and k != "trace.overhead_ratio"}
              for rep in reps]
    if any(c != counts[0] for c in counts):
        outputs.errors.append("per-layer counts differ between repetitions of the same batch")
    layer = {k: (statistics.median(rep[k][0] for rep in reps), unit)
             for k, (_, unit) in reps[0].items()}
    record = {"repetitions": len(reps), "batch": len(batch), "layer": layer, "bases": bases,
              "spans": spans}
    record.update(outputs.gate(recorded_digest(wl)))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s}
    if not args.probe:
        run = traced_run(wl, args.seconds) if args.trace else timed_run(wl, args.seconds)
        record.update(run, settings=wl.settings)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
