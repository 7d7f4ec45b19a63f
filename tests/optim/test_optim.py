"""Optimizers and the plateau LR schedule."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam, ReduceLROnPlateau


def quadratic_param(start=5.0):
    return Parameter(np.array([start], np.float32))


class TestAdam:
    def test_minimises_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, |first step| == lr regardless of grad scale.
        p = quadratic_param(0.0)
        opt = Adam([p], lr=0.05)
        p.grad = np.array([123.0], np.float32)
        opt.step()
        assert abs(p.data[0]) == pytest.approx(0.05, rel=1e-3)

    def test_weight_decay_pulls_to_zero(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        for _ in range(100):
            p.grad = np.zeros(1, np.float32)
            opt.step()
        assert abs(p.data[0]) < 0.5

    def test_skips_params_without_grad(self):
        p = quadratic_param(3.0)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == pytest.approx(3.0)

    def test_zero_grad(self):
        p = quadratic_param()
        p.grad = np.ones(1, np.float32)
        Adam([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


class TestReduceLROnPlateau:
    def make(self, patience=2, factor=0.5, min_lr=0.0):
        opt = Adam([quadratic_param()], lr=1.0)
        return opt, ReduceLROnPlateau(opt, factor=factor, patience=patience, min_lr=min_lr)

    def test_no_decay_while_improving(self):
        opt, sched = self.make()
        for loss in [5.0, 4.0, 3.0, 2.0]:
            sched.step(loss)
        assert opt.lr == 1.0

    def test_decays_after_patience_exceeded(self):
        opt, sched = self.make(patience=2)
        sched.step(1.0)
        for _ in range(3):  # 3 bad epochs > patience 2
            sched.step(2.0)
        assert opt.lr == 0.5

    def test_counter_resets_on_improvement(self):
        opt, sched = self.make(patience=2)
        sched.step(1.0)
        sched.step(2.0)
        sched.step(2.0)
        sched.step(0.5)  # improvement resets
        sched.step(2.0)
        sched.step(2.0)
        assert opt.lr == 1.0

    def test_min_lr_clamp(self):
        opt, sched = self.make(patience=0, min_lr=0.4)
        sched.step(1.0)
        for _ in range(10):
            sched.step(2.0)
        assert opt.lr == pytest.approx(0.4)

    def test_paper_stopping_protocol(self):
        """factor 0.5 from 1e-3 crosses 1e-6 after 10 decays."""
        opt = Adam([quadratic_param()], lr=1e-3)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=0)
        sched.step(1.0)
        decays = 0
        while opt.lr > 1e-6:
            sched.step(2.0)
            decays += 1
        assert decays == 10

    def test_invalid_factor(self):
        opt = Adam([quadratic_param()], lr=1.0)
        with pytest.raises(ValueError):
            ReduceLROnPlateau(opt, factor=1.5)
