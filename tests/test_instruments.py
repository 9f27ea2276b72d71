"""Every callable the benchmark's tracer wraps still exists under its name.

``perfbench.tracing.instruments()`` names the library attributes that
per-layer metrics count.  A renamed module function crashes a traced
run, and a renamed method is silently never wrapped, so its counter
reads 0.  This test only reads ``perfbench``; it changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import instruments  # noqa: E402


def _subclass_tree(cls: type):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclass_tree(sub)


def test_every_instrumented_attribute_is_defined():
    missing = []
    for name, _hot, owner, attr in instruments():
        if isinstance(owner, type):
            defined = any(attr in vars(cls) for cls in _subclass_tree(owner))
        else:
            defined = hasattr(owner, attr)
        if not defined:
            missing.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr}")
    assert not missing, missing
