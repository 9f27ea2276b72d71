"""Record the digest of each workload's pool outputs for a range of seeds.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [--workload NAME]

Runs every pool entry once, untimed, and records the SHA-256 digest in
``digests.json`` only when every oracle accepts the outputs.  Run it on
a commit whose outputs are known to be right; the benchmark then fails
any later commit whose outputs for a recorded seed differ by one byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import SRC, WORKLOAD_NAMES  # noqa: E402

sys.path.insert(1, str(SRC))

from perfbench.harness import DIGESTS, Outputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = parser.parse_args(argv)
    digests = json.loads(DIGESTS.read_text())
    status = 0
    for name in args.workload or WORKLOAD_NAMES:
        for seed in range(args.first, args.last + 1):
            outputs = Outputs(WORKLOADS[name](seed))
            result = outputs.gate(recorded=None)
            if result["failed"] or result["errors"]:
                print(f"{name} seed {seed}: not recorded: {result['errors']}")
                status = 1
                continue
            digests.setdefault(name, {})[str(seed)] = result["digest"]
            print(f"{name} seed {seed}: {result['digest']}", flush=True)
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
