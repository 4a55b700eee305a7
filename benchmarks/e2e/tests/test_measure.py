"""Percentile, spread, direction and host-normalisation arithmetic."""

import pytest

from hostcal import CAL_REF_MS, WINDOW_S, HostClock, kernel
from measure import answer_text, percentile, spread, worsening


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 95) == pytest.approx(3.85)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4), exclusive method: q1 = 11.75, q3 = 17.25
    assert spread(values) == pytest.approx(5.5 / 14.5)
    assert spread([3.0, 3.0, 3.0]) == 0.0
    assert spread([5.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worsening(0.0, 0.0, "lower") == 0.0


def test_normalisation_scales_wall_time_to_the_reference_host():
    clock = HostClock()
    # A host twice as slow as the reference halves every reported CPU time.
    clock.samples, clock.times = [10.0, 10.0], [0.0, 1.0]
    assert clock.scale(0.1, 0.9) == pytest.approx(CAL_REF_MS / 10.0)
    assert 0.030 * clock.scale(0.1, 0.9) == pytest.approx(0.015)
    # Samples within WINDOW_S of the interval are averaged, the bracketing
    # ones always among them; a sample far away takes no part.
    clock.samples, clock.times = [4.0, 6.0, 8.0, 50.0], [0.0, 1.0, 1.0 + WINDOW_S / 2, 10.0]
    assert clock.scale(0.1, 0.9) == pytest.approx(CAL_REF_MS / 6.0)
    assert clock.scale(9.5, 9.9) == pytest.approx(CAL_REF_MS / 50.0)


def test_bracketed_takes_a_sample_on_each_side_and_returns_the_value():
    clock = HostClock()
    value, cpu, wall, scale = clock.bracketed(lambda: "done")
    assert value == "done" and 0 <= cpu and 0 <= wall and scale > 0
    assert len(clock.samples) == len(clock.times) == 2


def test_kernel_is_deterministic_and_samples_accumulate():
    assert kernel() == kernel()
    clock = HostClock()
    clock.calibrate()
    clock.calibrate()
    assert len(clock.samples) == 2 and all(s > 0 for s in clock.samples)


def test_answer_text_ignores_tie_order_and_number_type():
    import numpy as np

    a = [(1, "x", 2.5), (2, "y", 2.5)]
    b = [(np.int64(2), "y", np.float64(2.5)), (1, "x", 2.5)]
    assert answer_text(a) == answer_text(b)
    assert answer_text(a) != answer_text([(1, "x", 2.5), (2, "y", 2.75)])
