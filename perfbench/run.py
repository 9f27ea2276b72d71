"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in a fresh child process (``perfbench.harness``),
one client in a closed loop, with no threads.  Before an untraced run,
set-up alone runs in further children, and ``setup_s`` is the median
over all of them.  The library comes from ``src`` next to this directory.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
``--trace 0``, the per-layer metrics when ``--trace 1``.  A full run
record (raw samples, settings, seed, Python version, nproc and git
revision) is written under ``--results``.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import RESULTS, ROOT, SRC, WORKLOAD_NAMES  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402

SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150


def _child(workload: str, seed: int, seconds: float, trace: int, probe: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32),
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    cmd = [sys.executable, "-m", "perfbench.harness", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(child: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and how each percentile was taken."""
    latencies_ms = [x * 1e3 for x in child["latencies_s"]]
    count = len(latencies_ms)
    percentiles = {}
    for q in (50, 90):
        value, beyond = percentile(latencies_ms, q)
        percentiles[f"p{q}"] = {"value_ms": value, "samples": count, "beyond": beyond}
    tail = tail_percentile(count)
    if tail is not None:
        value, beyond = percentile(latencies_ms, tail)
        percentiles["tail"] = {"q": tail, "value_ms": value, "samples": count, "beyond": beyond}
    metrics = {
        "throughput_rps": (count / child["elapsed_s"], "1/s"),
        "latency_p50_ms": (percentiles["p50"]["value_ms"], "ms"),
        "latency_p90_ms": (percentiles["p90"]["value_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    return metrics, percentiles


def run_workload(workload: str, seed: int, seconds: float, trace: int, results: Path) -> dict:
    setups = [_child(workload, seed, seconds, trace, probe=True)["setup_s"]
              for _ in range(0 if trace else SETUP_PROBES)]
    child = _child(workload, seed, seconds, trace, probe=False)
    setups.append(child["setup_s"])
    if trace:
        metrics, percentiles = dict(child["layer"]), None
    else:
        metrics, percentiles = end_to_end(child, setups)
    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0 and not child["errors"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "settings": child["settings"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": child["errors"],
        "digest": child["digest"], "digest_checked": child["digest_checked"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "percentiles": percentiles,
        "samples": {"setup_s": setups,
                    "latency_s": child.get("latencies_s"),
                    "elapsed_s": child.get("elapsed_s"),
                    "rounds": child.get("rounds"),
                    "trace_repetitions": child.get("repetitions"),
                    "trace_bases": child.get("bases")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "finished_at": time.time(),
    }
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (results / f"{stem}.spans.json").write_text(json.dumps(child["spans"]))
    return record


def _print_summary(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} fail_ratio={record['fail_ratio']:.4g}")
    for name, m in record["metrics"].items():
        note = ""
        if record["percentiles"] and name.startswith("latency_p"):
            p = record["percentiles"][name.split("_")[1]]
            note = f"  (n={p['samples']}, {p['beyond']} beyond)"
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{note}")
    for err in record["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for the run records")
    args = parser.parse_args(argv)
    if not (SRC / "gluedprod" / "__init__.py").is_file():
        print(f"error: no gluedprod sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.results)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_summary(record)
        records.append(record)
    summary = {k: (all(r[k] for r in records) if k == "correct" else sum(r[k] for r in records))
               for k in ("correct", "attempted", "failed")}
    if len(records) == 1:
        summary["metrics"] = records[0]["metrics"]
    else:
        summary["metrics"] = {f"{r['workload']}.{k}": v
                              for r in records for k, v in r["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
