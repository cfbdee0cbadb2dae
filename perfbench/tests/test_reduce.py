"""Reduction arithmetic on synthetic data."""

import statistics

import pytest

from perfbench import reduce


def test_median_odd_and_even():
    assert reduce.median([3.0, 1.0, 2.0]) == 2.0
    assert reduce.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_interpolates_between_ranks():
    xs = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert reduce.percentile(xs, 0) == 10.0
    assert reduce.percentile(xs, 100) == 50.0
    assert reduce.percentile(xs, 50) == 30.0
    assert reduce.percentile(xs, 90) == pytest.approx(46.0)
    with pytest.raises(ValueError):
        reduce.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert reduce.tail_percentile(list(range(19))) is None
    assert reduce.tail_percentile(list(range(20)))[0] == 50.0
    assert reduce.tail_percentile(list(range(100)))[0] == 90.0
    p, v = reduce.tail_percentile(list(range(1000)))
    assert p == 99.0
    assert v == pytest.approx(989.01)


def test_fail_frac():
    assert reduce.fail_frac(8, 0) == 0.0
    assert reduce.fail_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        reduce.fail_frac(0, 0)
    with pytest.raises(ValueError):
        reduce.fail_frac(3, 4)


# root 0..10 (workbench) -> solve 1..5 (spectral.solve)
#                        -> side 5..9 (spectral.side) -> phi 6..8 (analysis)
SPANS = [
    ("workbench.root", -1, 0.0, 10.0),
    ("spectral.solve.solve_spectrum", 0, 1.0, 5.0),
    ("spectral.side.spectral_side", 0, 5.0, 9.0),
    ("analysis.phi_at", 2, 6.0, 7.0),
    ("analysis.phi_at", 2, 7.0, 8.0),
]


def test_self_times_subtract_children():
    assert reduce.self_times(SPANS) == [2.0, 4.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("workbench.root", -1, 0.0, 10.0),
             ("fuchsian.a", 0, 1.0, 4.0),
             ("fuchsian.b", 0, 3.0, 6.0)]
    assert reduce.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_of_takes_longest_prefix():
    assert reduce.layer_of("spectral.solve.solve_spectrum") == "spectral.solve"
    assert reduce.layer_of("workbench.io.write_csv") == "workbench"
    with pytest.raises(ValueError):
        reduce.layer_of("hyperbolic.disk_apply")


def test_layer_times_account_for_root():
    t = reduce.layer_times(SPANS)
    assert t["analysis"] == {"self": 2.0, "entered": 2.0}
    assert t["spectral.side"] == {"self": 2.0, "entered": 4.0}
    assert t["fuchsian"] == {"self": 0.0, "entered": 0.0}
    assert sum(v["self"] for v in t.values()) == 10.0


def test_nested_same_layer_entered_once():
    spans = [("workbench.root", -1, 0.0, 4.0),
             ("fuchsian.enumerate_classes", 0, 0.0, 3.0),
             ("fuchsian.evaluate_word", 1, 1.0, 2.0)]
    assert reduce.layer_times(spans)["fuchsian"]["entered"] == 3.0
    assert reduce.outermost_time(spans, lambda n: n.startswith("fuchsian")) == 3.0


def test_spread_is_quartile_distance_over_median():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert reduce.spread(xs) == pytest.approx((q3 - q1) / 5.5)
