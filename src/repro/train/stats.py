"""Statistical comparison of accuracy results.

The paper repeatedly concludes "it is hard to tell the best between the two
frameworks" on accuracy.  :func:`compare_accuracies` makes that statement
testable: a Welch t-test over per-run test accuracies, with the paper-style
verdict that the frameworks are statistically indistinguishable when the
p-value clears a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AccuracyComparison:
    """Welch t-test summary between two accuracy samples."""

    mean_a: float
    mean_b: float
    t_statistic: float
    p_value: float

    def indistinguishable(self, alpha: float = 0.05) -> bool:
        """True when the difference is not significant at level ``alpha``."""
        return self.p_value > alpha

    @property
    def mean_gap(self) -> float:
        return abs(self.mean_a - self.mean_b)


def compare_accuracies(
    accs_a: Sequence[float], accs_b: Sequence[float]
) -> AccuracyComparison:
    """Welch t-test between two sets of per-run accuracies.

    Raises ``ValueError`` for an empty sample or a non-finite accuracy.
    """
    a = _sample("accs_a", accs_a)
    b = _sample("accs_b", accs_b)
    if len(a) < 2 or len(b) < 2:
        # Degenerate samples: fall back to a mean comparison with p=1 when
        # equal, p=0.5 otherwise (no variance information available).
        gap = abs(a.mean() - b.mean())
        return AccuracyComparison(
            mean_a=float(a.mean()),
            mean_b=float(b.mean()),
            t_statistic=0.0,
            p_value=1.0 if gap < 1e-12 else 0.5,
        )
    if np.allclose(a, a[0]) and np.allclose(b, b[0]):
        same = abs(a.mean() - b.mean()) < 1e-12
        return AccuracyComparison(
            mean_a=float(a.mean()),
            mean_b=float(b.mean()),
            t_statistic=0.0 if same else np.inf,
            p_value=1.0 if same else 0.0,
        )
    # Welch's statistic in closed form, as ``ttest_ind(a, b, equal_var=False)``
    # evaluates it: importing the whole stats package for this one call was
    # half of every process's start-up (docs/architecture.md, "A process
    # imports only what it runs").
    from scipy.special import stdtr

    va = a.var(ddof=1) / len(a)
    vb = b.var(ddof=1) / len(b)
    t_stat = (a.mean() - b.mean()) / np.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
    return AccuracyComparison(
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        t_statistic=float(t_stat),
        p_value=float(2.0 * stdtr(df, -abs(t_stat))),
    )


def _sample(name: str, values: Sequence[float]) -> np.ndarray:
    """``values`` as a float64 array; ``name`` is the argument it came in as."""
    sample = np.asarray(values, dtype=np.float64)
    if sample.size == 0:
        raise ValueError(f"{name} is empty: a comparison needs at least one accuracy")
    bad = np.flatnonzero(~np.isfinite(sample))
    if bad.size:
        raise ValueError(
            f"{name}[{bad[0]}] is {sample.flat[bad[0]]}: accuracies must be finite"
        )
    return sample
