"""Accuracy comparison statistics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.train.stats import AccuracyComparison, compare_accuracies


class TestCompareAccuracies:
    def test_identical_samples_indistinguishable(self):
        a = [0.8, 0.81, 0.79, 0.8]
        cmp = compare_accuracies(a, list(a))
        assert cmp.indistinguishable()
        assert cmp.mean_gap == pytest.approx(0.0)

    def test_clearly_different_samples(self):
        a = [0.9, 0.91, 0.89, 0.9]
        b = [0.5, 0.51, 0.49, 0.5]
        cmp = compare_accuracies(a, b)
        assert not cmp.indistinguishable()
        assert cmp.p_value < 0.01

    def test_noisy_similar_samples(self):
        a = [0.78, 0.80, 0.82, 0.79, 0.81]
        b = [0.79, 0.81, 0.78, 0.82, 0.80]  # same values, different order
        cmp = compare_accuracies(a, b)
        assert cmp.indistinguishable()

    def test_degenerate_single_sample(self):
        cmp = compare_accuracies([0.8], [0.8])
        assert cmp.p_value == 1.0
        cmp2 = compare_accuracies([0.8], [0.7])
        assert cmp2.p_value == 0.5

    def test_constant_samples_equal_and_unequal(self):
        equal = compare_accuracies([0.8, 0.8], [0.8, 0.8])
        assert equal.p_value == 1.0
        unequal = compare_accuracies([0.8, 0.8], [0.6, 0.6])
        assert unequal.p_value == 0.0

    def test_means_reported(self):
        cmp = compare_accuracies([0.6, 0.8], [0.7, 0.9])
        assert cmp.mean_a == pytest.approx(0.7)
        assert cmp.mean_b == pytest.approx(0.8)
        assert cmp.mean_gap == pytest.approx(0.1)

    def test_symmetry(self):
        a = [0.8, 0.82, 0.78]
        b = [0.75, 0.77, 0.73]
        ab = compare_accuracies(a, b)
        ba = compare_accuracies(b, a)
        assert ab.p_value == pytest.approx(ba.p_value)


def _samples(min_size=2):
    return st.lists(st.floats(0.0, 1.0), min_size=min_size, max_size=30)


@pytest.mark.filterwarnings("ignore:Precision loss occurred")  # scipy's, on near-constant draws
class TestWelchOracle:
    """``compare_accuracies`` is scipy's Welch test without importing ``scipy.stats``."""

    @staticmethod
    def _check(a, b):
        from scipy import stats  # the oracle; src/ must not import it (tests/test_import_graph.py)

        a, b = np.asarray(a), np.asarray(b)
        # Two constant samples never reach the t-test (test_constant_samples_equal_and_unequal).
        assume(not (np.allclose(a, a[0]) and np.allclose(b, b[0])))
        expected = stats.ttest_ind(a, b, equal_var=False)
        ab, ba = compare_accuracies(a, b), compare_accuracies(b, a)
        assert ab.t_statistic == pytest.approx(expected.statistic, rel=1e-12, abs=0.0)
        assert ab.p_value == pytest.approx(expected.pvalue, rel=1e-12, abs=0.0)
        assert ba.t_statistic == -ab.t_statistic
        assert ba.p_value == ab.p_value

    @settings(max_examples=200, deadline=None)
    @given(_samples(), _samples())
    def test_matches_ttest_ind(self, a, b):
        self._check(a, b)

    @settings(max_examples=100, deadline=None)
    @given(_samples(), _samples(), st.sampled_from([1e-3, 1e-2, 0.1]), st.floats(0.0, 0.9))
    def test_unequal_variances(self, a, b, shrink, centre):
        self._check(a, centre + shrink * np.asarray(b))

    @settings(max_examples=100, deadline=None)
    @given(_samples(), st.floats(0.0, 1.0), st.integers(2, 30))
    def test_one_constant_sample(self, a, value, n):
        self._check(a, [value] * n)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "bad, complaint",
        [
            ([], " is empty"),
            ([0.8, float("nan")], "[1] is nan"),
            ([float("inf"), 0.8], "[0] is inf"),
            ([-float("inf")], "[0] is -inf"),
        ],
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_empty_or_non_finite_sample_names_the_argument(self, bad, complaint, position, recwarn):
        args = [[0.8, 0.7, 0.9], [0.8, 0.7, 0.9]]
        args[position] = bad
        with pytest.raises(ValueError) as error:
            compare_accuracies(*args)
        assert ("accs_a", "accs_b")[position] + complaint in str(error.value)
        assert not recwarn.list  # used to be a NaN mean and a numpy RuntimeWarning
