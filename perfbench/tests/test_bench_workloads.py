import pytest

from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(name):
    cls = WORKLOADS[name]
    assert cls(7).requests == cls(7).requests
    assert cls(7).requests != cls(8).requests
    assert len(cls(7).requests) % cls.round_size == 0


@pytest.mark.parametrize("name", ["words", "actions"])
def test_oracles_accept_real_outputs_and_reject_altered_ones(name):
    wl = WORKLOADS[name](3)
    for req in wl.requests[:wl.round_size]:
        out = wl.execute(req)
        assert wl.check(req, out) is None
    req = wl.requests[0]
    altered = wl.execute(wl.requests[wl.round_size])
    assert wl.check(req, altered) is not None
