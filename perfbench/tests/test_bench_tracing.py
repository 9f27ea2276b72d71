import pytest

from gluedprod import cubes, lef
from gluedprod.core import PvContext
from gluedprod.groups import CyclicGroup, IntegersGroup
from perfbench import tracing
from perfbench.tracing import Tracer


def _fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_synthetic_span_tree():
    # request [0, 10] > A [1, 6] > two hot h [2, 3] and [4, 5.5]; hot B [7, 9]
    tracer = Tracer(clock=_fake_clock(0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10))
    with tracer.span_of_request(0, "r"):
        a = tracer.enter("A", False)
        for _ in range(2):
            tracer.leave(tracer.enter("h", True))
        tracer.leave(a)
        tracer.leave(tracer.enter("B", True))
    assert tracer.self_time("request") == 3
    assert tracer.self_time("A") == 2.5
    assert tracer.self_time("h") == 2.5
    assert tracer.self_time("B") == 2
    assert tracer.calls("h") == 2
    assert tracer.calls("h", parent="A") == 2
    assert tracer.calls("h", parent="request") == 0
    assert tracer.calls("B", parent="request") == 1
    assert tracer.calls("h", within="request") == 2
    assert tracer.calls("B", within="A") == 0
    request, span_a = tracer.spans[1], tracer.spans[2]
    assert (request["start"], request["end"], request["request"]) == (0, 10, 0)
    assert span_a["parent"] == request["id"] and span_a["hot"] == {("h",): [2, 2.5]}


def test_hot_paths_nest_below_hot_calls():
    tracer = Tracer(clock=_fake_clock(*range(6)))
    outer = tracer.enter("core.invert", True)
    tracer.leave(tracer.enter("core.multiply", True))
    tracer.leave(outer)
    tracer.leave(tracer.enter("core.multiply", True))
    assert tracer.calls("core.multiply") == 2
    assert tracer.calls("core.multiply", parent="core.invert") == 1
    assert tracer.calls("core.multiply", within="core.invert") == 1


def _snapshot():
    out = {}
    for _, _, owner, attr in tracing.instruments():
        for target, key in tracing._bindings(owner, attr):
            out[(target, key)] = vars(target)[key]
    return out


def test_no_library_function_stays_patched():
    before = _snapshot()
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracer):
            assert tracing.leftover_patches()
            ctx.eval_word("G:1 H:1")
            1 / 0
    assert tracer.calls("core.multiply") == 2
    assert tracing.leftover_patches() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_counts_that_follow_from_the_code():
    mixed = PvContext(IntegersGroup(), CyclicGroup(3))
    zz = PvContext(IntegersGroup(), IntegersGroup())
    tracer = Tracer()
    with tracing.installed(tracer):
        with tracer.span_of_request(0, "lef"):
            approx = lef.Approximation(mixed, 1)
            approx.check_multiplicativity(mode="sample", sample=25, seed=3)
            approx.check_window_closure(mode="sample", sample=25, seed=3)
            approx.check_injectivity(samples=10, seed=3)
        with tracer.span_of_request(1, "act"):
            s = zz.eval_word("G:2 H:-1 PERM:(e g:1 h:1)")
            v = cubes.CubeVertex(frozenset(), frozenset())
            cubes.act_vertex(zz, s, v)
            cubes.act_vertex(zz, zz.invert(s), v)
    metrics, bases = tracing.layer_metrics(tracer, requests=2, lef_pairs=25)
    assert metrics["lef.multiply_per_pair"] == (2.0, "ratio")
    assert metrics["cubes.invert_per_act_vertex"] == (1.0, "ratio")
    assert 0 < metrics["core.multiply_per_invert"][0] <= 2
    assert bases["lef.injectivity_draws"] >= 20
    assert bases == {"lef.pairs": 25, "lef.injectivity_draws": bases["lef.injectivity_draws"],
                     "trace.requests": 2}
