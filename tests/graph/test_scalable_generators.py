"""The scalable R-MAT generator plus the vectorised
planted-partition rewrite and the generator edge cases."""

import numpy as np
import pytest

from repro.graph import (
    planted_partition,
    rmat_edges,
)
from repro.graph.graph import dedupe_edges


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ----------------------------------------------------------------------
# planted_partition: grouped-choice vectorisation must preserve the
# historical RNG stream bit for bit
# ----------------------------------------------------------------------
def _planted_partition_reference(labels, n_edges, intra_fraction, rng):
    """The historical per-class boolean-mask implementation, verbatim.

    Kept as the oracle for the grouped ``rng.choice`` rewrite: both draw
    the same RNG calls in the same order, so seeded outputs must be
    identical, not merely distributionally equivalent.
    """
    labels = np.asarray(labels)
    n = len(labels)
    n_intra = int(n_edges * intra_fraction)
    by_class = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    class_sizes = np.array([len(ix) for ix in by_class], dtype=np.float64)
    class_prob = class_sizes / class_sizes.sum()

    classes = rng.choice(len(by_class), size=n_intra, p=class_prob)
    src_intra = np.empty(n_intra, dtype=np.int64)
    dst_intra = np.empty(n_intra, dtype=np.int64)
    for c, members in enumerate(by_class):
        mask = classes == c
        count = int(mask.sum())
        if count == 0:
            continue
        src_intra[mask] = rng.choice(members, size=count)
        dst_intra[mask] = rng.choice(members, size=count)

    n_inter = n_edges - n_intra
    src_inter = rng.integers(0, n, size=n_inter)
    dst_inter = rng.integers(0, n, size=n_inter)

    src = np.concatenate([src_intra, src_inter])
    dst = np.concatenate([dst_intra, dst_inter])
    return dedupe_edges(src, dst, n)


class TestPlantedPartitionVectorised:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("intra", [0.0, 0.5, 0.9, 1.0])
    def test_identical_to_mask_loop_reference(self, seed, intra):
        labels = np.random.default_rng(seed).integers(0, 7, size=400)
        s_new, d_new = planted_partition(
            labels, 3000, intra, np.random.default_rng(seed)
        )
        s_ref, d_ref = _planted_partition_reference(
            labels, 3000, intra, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(s_new, s_ref)
        np.testing.assert_array_equal(d_new, d_ref)

    def test_uneven_class_sizes_match_reference(self):
        # One giant class and several singletons stress the grouped fill.
        labels = np.concatenate([np.zeros(300, int), np.arange(1, 9)])
        s_new, d_new = planted_partition(
            labels, 2000, 0.8, np.random.default_rng(3)
        )
        s_ref, d_ref = _planted_partition_reference(
            labels, 2000, 0.8, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(s_new, s_ref)
        np.testing.assert_array_equal(d_new, d_ref)

    def test_single_class(self):
        # All-intra edges within one class: every edge stays inside it.
        labels = np.zeros(50, dtype=int)
        s, d = planted_partition(labels, 500, 1.0, np.random.default_rng(0))
        assert len(s) > 0
        assert np.all(s != d)
        assert s.max() < 50 and d.max() < 50

    def test_empty_labels(self):
        s, d = planted_partition(np.empty(0, int), 10, 0.5,
                                 np.random.default_rng(0))
        assert len(s) == 0 and len(d) == 0

    def test_zero_edges(self):
        s, d = planted_partition(np.zeros(5, int), 0, 0.5,
                                 np.random.default_rng(0))
        assert len(s) == 0 and len(d) == 0


# ----------------------------------------------------------------------
# R-MAT
# ----------------------------------------------------------------------
class TestRmat:
    def test_deterministic(self):
        s1, d1 = rmat_edges(1 << 12, 30_000, np.random.default_rng(5))
        s2, d2 = rmat_edges(1 << 12, 30_000, np.random.default_rng(5))
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(d1, d2)

    def test_exact_count_unique_no_self_loops(self, rng):
        n = 5000  # deliberately not a power of two
        s, d = rmat_edges(n, 40_000, rng)
        assert len(s) == len(d) == 40_000
        assert s.min() >= 0 and s.max() < n
        assert d.min() >= 0 and d.max() < n
        assert np.all(s != d)
        assert len(np.unique(s * n + d)) == 40_000

    def test_low_ids_are_hubs(self, rng):
        # The default quadrant skew concentrates mass at low ids.
        n = 4096
        s, d = rmat_edges(n, 50_000, rng)
        deg = np.bincount(d, minlength=n)
        assert deg[: n // 4].sum() > deg[3 * n // 4:].sum()

    def test_degenerate_sizes(self, rng):
        for n_nodes, n_edges in [(0, 10), (1, 10), (10, 0)]:
            s, d = rmat_edges(n_nodes, n_edges, rng)
            assert len(s) == 0 and len(d) == 0

    def test_rejects_impossible_density(self, rng):
        with pytest.raises(ValueError):
            rmat_edges(3, 7, rng)  # 3 nodes carry at most 6 directed edges

    def test_rejects_bad_probabilities(self, rng):
        with pytest.raises(ValueError):
            rmat_edges(16, 10, rng, a=0.6, b=0.3, c=0.3)  # sums past 1
