"""Standard-library benchmark of gluedprod.

Run one workload:   python3 perfbench/run.py --workload words --seed 1 --seconds 20 --trace 0
Run all untraced:   python3 perfbench/run.py --workload all --seed 1 --seconds 20
Compare two sets:   python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS
Own tests:          PYTHONPATH=src python3 -m pytest -q perfbench/tests

The library is imported from ``src`` of the checkout that holds this
directory, never from an installed copy.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

WORKLOAD_NAMES = ("words", "lef-window", "classify", "actions")
