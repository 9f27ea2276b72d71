import statistics

import pytest

from perfbench.compare import compare
from perfbench.stats import percentile, quartiles, tail_percentile, verdict


def test_percentile_is_nearest_rank_with_count_beyond():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 90) == (90, 10)
    assert percentile(samples, 100) == (100, 0)
    assert percentile([7.0], 90) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (10, None), (19, None), (20, 50), (40, 75), (99, 75), (100, 90), (999, 90), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert percentile(range(count), expected)[1] >= 10


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_better_needs_nine_tenths_of_pairs_and_a_gap():
    faster = [v * 1.2 for v in STEADY]
    assert verdict(STEADY, faster, "higher", 0.1) == "better"
    assert verdict(STEADY, [v / 1.2 for v in STEADY], "lower", 0.1) == "better"
    # wins only 8 of 10 pairs
    mixed = faster[:8] + STEADY[8:]
    assert verdict(STEADY, mixed, "higher", 0.1) == "unchanged"


def test_verdict_worse_beyond_the_bound():
    slower = [v * 0.8 for v in STEADY]
    assert verdict(STEADY, slower, "higher", 0.1) == "worse"
    assert verdict(STEADY, [v * 1.2 for v in STEADY], "lower", 0.1) == "worse"
    assert verdict(STEADY, [v * 0.95 for v in STEADY], "higher", 0.1) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]
    assert verdict(noisy, list(reversed(noisy)), "higher", 0.1) == "unresolved"
    # every change run above every parent run: no regression, though no gain claimed
    assert verdict(noisy, [v + 61 for v in noisy], "higher", 0.1) in ("better", "unchanged")


def _record(seed, value):
    return {"trace": 0, "workload": "words", "seed": seed,
            "metrics": {"throughput_rps": {"value": value, "unit": "1/s"}}}


def test_compare_pairs_runs_by_seed():
    spec = {"end_to_end": [{"name": "throughput_rps", "unit": "1/s",
                            "better": "higher", "bound": 0.1}]}
    parent = {"words": {s: _record(s, v) for s, v in enumerate(STEADY)}}
    change = {"words": {s: _record(s, v * 0.7) for s, v in enumerate(STEADY)}}
    (row,) = compare(parent, change, spec)
    assert row["runs"] == 10 and row["verdict"] == "worse"
    assert row["parent"] == quartiles(STEADY)
