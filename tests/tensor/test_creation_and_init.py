"""Tensor creation helpers and weight initialisers."""

import numpy as np
import pytest

from repro.nn import init
from repro.tensor import creation


class TestCreation:
    def test_zeros_ones_full(self):
        assert creation.zeros((2, 3)).data.sum() == 0
        assert creation.ones(4).data.sum() == 4
        assert np.all(creation.full((2, 2), 7.0).data == 7.0)

    def test_int_shape_accepted(self):
        assert creation.zeros(5).shape == (5,)

    def test_randn_seeded(self):
        a = creation.randn((3, 3), rng=np.random.default_rng(5))
        b = creation.randn((3, 3), rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_randn_std(self):
        t = creation.randn(20000, rng=np.random.default_rng(0), std=2.0)
        assert t.data.std() == pytest.approx(2.0, rel=0.05)

    def test_uniform_bounds(self):
        t = creation.uniform(1000, -2.0, 3.0, rng=np.random.default_rng(0))
        assert t.data.min() >= -2.0
        assert t.data.max() <= 3.0

    def test_dtype_float32(self):
        assert creation.ones((2, 2)).data.dtype == np.float32


class TestInit:
    def test_glorot_limits(self):
        w = init.glorot_uniform((100, 50), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= limit
        assert w.dtype == np.float32

    def test_glorot_nondegenerate(self):
        w = init.glorot_uniform((64, 64), np.random.default_rng(0))
        assert w.std() > 0.01

    def test_zeros_ones(self):
        assert init.zeros((3,)).sum() == 0
        assert init.ones((3,)).sum() == 3

    def test_seeded_reproducibility(self):
        a = init.glorot_uniform((8, 8), np.random.default_rng(42))
        b = init.glorot_uniform((8, 8), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
