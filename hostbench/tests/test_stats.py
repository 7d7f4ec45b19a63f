import pytest

from hostbench.stats import iqr_frac, median, nearest_rank, summarize


def test_nearest_rank_picks_samples_never_interpolates():
    laps = [4.0, 1.0, 3.0, 2.0]
    assert median(laps) == 2.0  # ceil(0.5 * 4) = rank 2
    assert nearest_rank(laps, 25.0) == 1.0
    assert nearest_rank(laps, 75.0) == 3.0
    assert nearest_rank(laps, 100.0) == 4.0
    assert nearest_rank(laps, 0.0) == 1.0


def test_odd_count_median_is_the_middle_lap():
    assert median([5.0, 1.0, 3.0]) == 3.0


def test_single_lap_is_every_statistic():
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "min": 2.5, "max": 2.5, "n": 1}


def test_summarize_and_spread():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert (summary["q1"], summary["median"], summary["q3"]) == (2.0, 4.0, 6.0)
    assert iqr_frac(summary) == pytest.approx(1.0)
    assert iqr_frac({"value": 3.0}) == 0.0  # a bare value has no spread


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101.0)
