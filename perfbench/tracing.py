"""Spans around gluedprod's public functions, recorded from outside the library.

``installed(tracer)`` wraps each function in ``instruments()`` wherever
the library looks it up, and undoes every patch when it exits.  Calls
at layer boundaries become span records: name, start, end, self time,
the parent span and the request.  Hot leaf calls (``hot=True``) are not
recorded one by one; they are aggregated into the enclosing span by
their call path below it, as calls and self time, so memory stays
bounded however many products a request computes.

Self time is a span's duration minus the durations of its direct
children, recorded or aggregated.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

LEF_CHECKS = ("check_multiplicativity", "check_window_closure", "check_injectivity",
              "check_point_bijection", "check_equivariance", "check_pushforward")

_MARK = "_perfbench_span"


class Tracer:
    """Span stack and in-memory span records of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        root = {"id": 0, "parent": None, "request": None, "name": "unattributed",
                "start": 0.0, "end": 0.0, "self_s": 0.0, "hot": {}}
        self.spans = [root]
        # a frame is [name, start, child time, span record, hot path or ()]
        self._root = ["unattributed", 0.0, 0.0, root, ()]
        self._stack = []

    def enter(self, name: str, hot: bool) -> list:
        parent = self._stack[-1] if self._stack else self._root
        if hot:
            frame = [name, 0.0, 0.0, parent[3], parent[4] + (name,)]
        else:
            record = {"id": len(self.spans), "parent": parent[3]["id"],
                      "request": self.request, "name": name,
                      "start": 0.0, "end": 0.0, "self_s": 0.0, "hot": {}}
            self.spans.append(record)
            frame = [name, 0.0, 0.0, record, ()]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        (self._stack[-1] if self._stack else self._root)[2] += duration
        record, path = frame[3], frame[4]
        if path:
            entry = record["hot"].get(path)
            if entry is None:
                record["hot"][path] = [1, own]
            else:
                entry[0] += 1
                entry[1] += own
        else:
            record["start"], record["end"], record["self_s"] = frame[1], end, own

    @contextmanager
    def span_of_request(self, request_id: int, label: str):
        self.request = request_id
        frame = self.enter("request", False)
        frame[3]["label"] = label
        try:
            yield
        finally:
            self.leave(frame)
            self.request = None

    # -- queries ---------------------------------------------------------

    def _ancestors(self, record: dict):
        while record["parent"] is not None:
            record = self.spans[record["parent"]]
            yield record["name"]

    def calls(self, name: str, parent: str | None = None, within: str | None = None) -> int:
        """Calls of ``name``; only those made directly inside ``parent``, or
        anywhere below a span named ``within``, when given."""
        total = 0
        for record in self.spans:
            ancestors = list(self._ancestors(record))
            if record["name"] == name and ancestors:
                if (parent is None or ancestors[0] == parent) \
                        and (within is None or within in ancestors):
                    total += 1
            below = within is not None and (record["name"] == within or within in ancestors)
            for path, (count, _) in record["hot"].items():
                if path[-1] != name:
                    continue
                direct = path[-2] if len(path) > 1 else record["name"]
                if parent is not None and direct != parent:
                    continue
                if within is not None and not (below or within in path[:-1]):
                    continue
                total += count
        return total

    def self_time(self, name: str) -> float:
        total = 0.0
        for record in self.spans:
            if record["name"] == name:
                total += record["self_s"]
            for path, (_, own) in record["hot"].items():
                if path[-1] == name:
                    total += own
        return total

    def dump(self) -> list[dict]:
        """The span records, with hot paths written as ``a>b>c``."""
        return [dict(r, hot={">".join(p): v for p, v in r["hot"].items()}) for r in self.spans]


def instruments() -> list[tuple[str, bool, object, str]]:
    """(span name, hot, owning class or module, attribute) for every wrapped callable."""
    from gluedprod import core, cubes, dynamics, finite, groups, lef, pointed

    return [
        ("groups.mul", True, groups.GroupHandle, "mul"),
        ("groups.inv", True, groups.GroupHandle, "inv"),
        ("groups.parse", True, groups.GroupHandle, "parse"),
        ("groups.ball", True, groups.GroupHandle, "ball"),
        ("groups.schreier_sims_order", False, groups, "schreier_sims_order"),
        ("pointed.compose", True, pointed.FinPerm, "compose"),
        ("pointed.is_even", True, pointed.FinPerm, "is_even"),
        ("pointed.apply_factor", True, pointed.PointedUnion, "apply_factor"),
        ("pointed.parse_perm", True, pointed.PointedUnion, "parse_perm"),
        ("pointed.format_perm", True, pointed.PointedUnion, "format_perm"),
        ("core.multiply", True, core.PvContext, "multiply"),
        ("core.invert", True, core.PvContext, "invert"),
        ("core.act", True, core.PvContext, "act"),
        ("core.from_perm", True, core.PvContext, "from_perm"),
        ("core.eval_word", False, core.PvContext, "eval_word"),
        ("finite.realize_finite", False, finite, "realize_finite"),
        ("finite.classify", False, finite, "classify"),
        ("finite.glued_order", False, finite, "glued_order"),
        ("lef.quotient", False, lef, "build_quotient"),
        ("lef.quotient", False, lef, "_identity_quotient"),
        ("lef.window_elements", False, lef, "window_elements"),
        ("lef.window_points", True, lef, "window_points"),
        ("lef.random_window_element", True, lef, "random_window_element"),
        ("lef.phi", True, lef.Approximation, "phi"),
        *((f"lef.{name}", False, lef.Approximation, name) for name in LEF_CHECKS),
        ("cubes.act_vertex", False, cubes, "act_vertex"),
        ("cubes.transporter", False, cubes, "transporter"),
        ("dynamics.free_semigroup_check", False, dynamics, "free_semigroup_check"),
        ("dynamics.folner_ratio", False, dynamics, "folner_ratio"),
    ]


def _subclasses(cls: type):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _library_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "gluedprod" or name.startswith("gluedprod.")]


def _bindings(owner, attr: str) -> list[tuple[object, str]]:
    """Every place the library looks ``owner.attr`` up.

    A method is looked up on each class that defines it.  A module
    function is looked up under every name any gluedprod module binds it to.
    """
    if isinstance(owner, type):
        return [(cls, attr) for cls in _subclasses(owner) if attr in cls.__dict__]
    original = getattr(owner, attr)
    return [(module, name) for module in _library_modules()
            for name, value in list(vars(module).items()) if value is original]


def _wrap(fn, name: str, hot: bool, tracer: Tracer):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name, hot)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)

    setattr(wrapper, _MARK, name)
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every instrumented call through ``tracer`` inside the block."""
    patches = []
    try:
        for name, hot, owner, attr in instruments():
            for target, key in _bindings(owner, attr):
                original = vars(target)[key]
                patches.append((target, key, original))
                setattr(target, key, _wrap(original, name, hot, tracer))
        yield tracer
    finally:
        for target, key, original in reversed(patches):
            setattr(target, key, original)


def leftover_patches() -> list[str]:
    """Library attributes that still hold a wrapper; empty after ``installed`` exits."""
    found = []
    for module in _library_modules():
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{value.__qualname__}.{k}" for k, v in vars(value).items()
                          if hasattr(v, _MARK)]
    return found


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass

CALL_COUNTS = ("groups.mul", "groups.inv", "groups.parse", "groups.ball",
               "pointed.compose", "pointed.is_even", "pointed.apply_factor",
               "core.multiply", "core.invert", "core.act",
               "lef.window_elements", "lef.window_points", "lef.phi", "cubes.act_vertex")
SELF_TIMES = ("groups.mul", "groups.parse", "groups.ball", "groups.schreier_sims_order",
              "pointed.compose", "pointed.is_even", "pointed.apply_factor",
              "pointed.parse_perm", "pointed.format_perm",
              "core.multiply", "core.invert", "core.act", "core.from_perm", "core.eval_word",
              "finite.realize_finite", "finite.classify", "finite.glued_order",
              "lef.window_elements", "lef.phi", "lef.random_window_element", "lef.check",
              "lef.quotient", "cubes.act_vertex", "cubes.transporter",
              "dynamics.free_semigroup_check", "dynamics.folner_ratio")


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, requests: int,
                  lef_pairs: int) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit), and
    the bases of the per-pair, per-sample and per-request ratios.

    ``lef_pairs`` is the number of pairs the multiplicativity checks
    drew; window closure draws the same pairs with the same seed.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in SELF_TIMES:
        names = [f"lef.{c}" for c in LEF_CHECKS] if name == "lef.check" else [name]
        out[f"{name}.self_s"] = (sum(tracer.self_time(n) for n in names), "s")
    draws = tracer.calls("lef.random_window_element", within="lef.check_injectivity")
    fused = sum(tracer.calls("core.multiply", parent=f"lef.{c}")
                for c in ("check_multiplicativity", "check_window_closure"))
    out.update({
        "lef.multiply_per_pair": (_ratio(fused, lef_pairs), "ratio"),
        "lef.phi_per_pair": (_ratio(tracer.calls("lef.phi", within="lef.check_multiplicativity"),
                                    lef_pairs), "ratio"),
        "lef.ball_per_sample": (_ratio(tracer.calls("groups.ball", within="lef.check_injectivity"),
                                       draws), "ratio"),
        "core.group_mul_per_multiply": (_ratio(tracer.calls("groups.mul", within="core.multiply"),
                                               tracer.calls("core.multiply")), "ratio"),
        "core.multiply_per_invert": (_ratio(tracer.calls("core.multiply", parent="core.invert"),
                                            tracer.calls("core.invert")), "ratio"),
        "cubes.invert_per_act_vertex": (_ratio(tracer.calls("core.invert", parent="cubes.act_vertex"),
                                               tracer.calls("cubes.act_vertex")), "ratio"),
        "groups.parse_per_request": (_ratio(tracer.calls("groups.parse"), requests), "ratio"),
    })
    bases = {"lef.pairs": lef_pairs, "lef.injectivity_draws": draws, "trace.requests": requests}
    return out, bases
