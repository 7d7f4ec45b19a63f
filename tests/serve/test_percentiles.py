"""Latency percentiles of a serving run, including 0- and 1-sample runs."""

import numpy as np
import pytest

from repro.serve.metrics import LATENCY_PERCENTILES, ServerMetrics
from repro.serve.request import InferenceResponse


def _response(request_id, latency):
    return InferenceResponse(
        request_id=request_id, prediction=0, arrival_time=0.0,
        dispatch_time=0.0, completion_time=latency, batch_size=1,
    )


class TestLatencyPercentiles:
    def test_no_responses_reports_zeros(self):
        assert ServerMetrics().latency_percentiles() == {
            p: 0.0 for p in LATENCY_PERCENTILES
        }

    def test_single_response_is_every_percentile(self):
        metrics = ServerMetrics()
        metrics.record_batch([_response(0, 0.42)])
        percentiles = metrics.latency_percentiles()
        assert set(percentiles) == set(LATENCY_PERCENTILES)
        assert all(v == pytest.approx(0.42) for v in percentiles.values())

    def test_multi_sample_percentiles_are_ordered(self):
        metrics = ServerMetrics()
        metrics.record_batch([_response(i, 0.01 * (i + 1)) for i in range(100)])
        percentiles = metrics.latency_percentiles()
        assert percentiles[50.0] <= percentiles[95.0] <= percentiles[99.0]
        assert percentiles[50.0] == pytest.approx(
            float(np.percentile(np.arange(1, 101) * 0.01, 50.0))
        )
