from hostbench.compare import DIFFERS, OK, UNRESOLVED, WORSE, compare, verdict, worsening
from hostbench.metrics import END_TO_END

METRIC = {m.name: m for m in END_TO_END}


def laps(value, q1, q3, lo=None, hi=None):
    """A timed cell: its value with the laps' median, quartiles and extremes."""
    return {"value": value, "median": value, "q1": q1, "q3": q3,
            "min": lo if lo is not None else q1, "max": hi if hi is not None else q3, "n": 12}


def test_worsening_is_signed_by_direction():
    assert worsening(METRIC["host_s"], 1.0, 1.2) > 0
    assert worsening(METRIC["host_s"], 1.0, 0.8) < 0
    assert worsening(METRIC["sim_goodput_rps"], 100.0, 80.0) > 0  # higher is better
    assert worsening(METRIC["failed_frac"], 0.0, 0.01) == 0.01  # absolute bound


def test_tight_laps_resolve_to_ok_or_worse():
    host = METRIC["host_s"]  # bound 10 %
    a = laps(1.00, 0.99, 1.02)
    assert verdict(host, a, laps(1.05, 1.04, 1.07)) == OK
    assert verdict(host, a, laps(1.20, 1.18, 1.22)) == WORSE
    assert verdict(host, a, laps(0.70, 0.69, 0.71)) == OK


def test_spread_wider_than_the_bound_is_unresolved():
    host = METRIC["host_s"]
    a = laps(1.00, 0.90, 1.15)  # 25 % inter-quartile spread
    assert verdict(host, a, laps(1.05, 0.95, 1.20)) == UNRESOLVED
    # ... even when the medians say "worse": overlapping quartiles cannot tell.
    assert verdict(host, a, laps(1.14, 1.00, 1.30)) == UNRESOLVED


def test_noisy_but_disjoint_laps_still_decide():
    host = METRIC["host_s"]
    a = laps(1.00, 0.90, 1.15, lo=0.85, hi=1.20)
    assert verdict(host, a, laps(1.60, 1.40, 1.80)) == WORSE
    assert verdict(host, a, laps(0.60, 0.55, 0.70, lo=0.50, hi=0.80)) == OK
    # better median, but one slow lap of B overlaps A's fastest: not proven.
    assert verdict(host, a, laps(0.60, 0.55, 0.70, lo=0.50, hi=0.90)) == UNRESOLVED


def test_simulated_and_absolute_metrics_are_exact():
    assert verdict(METRIC["sim_s"], {"value": 0.1}, {"value": 0.1}) == OK
    assert verdict(METRIC["sim_s"], {"value": 0.1}, {"value": 0.1002}) == WORSE
    assert verdict(METRIC["sim_s"], {"value": 0.1}, {"value": 0.05}) == OK
    assert verdict(METRIC["failed_frac"], {"value": 0.0}, {"value": 0.001}) == WORSE


def result(host, sim, launches=None):
    workload = {"metrics": {"host_s": host, "sim_s": {"value": sim}}}
    if launches is not None:
        workload["per_layer"] = {"device.launch_calls": launches}
    return {"workloads": {"train_pygx": workload}}


def test_compare_table_rows_and_exit_signal():
    a = result(laps(1.0, 0.99, 1.01), 0.1, launches=100)
    rows, any_worse = compare(a, result(laps(1.3, 1.29, 1.31), 0.1, launches=90))
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts == {"host_s": WORSE, "sim_s": OK, "device.launch_calls": DIFFERS}
    assert any_worse
    rows, any_worse = compare(a, a)
    assert not any_worse and {row[-1] for row in rows} == {OK}


def test_compare_skips_workloads_missing_from_one_side():
    rows, any_worse = compare(result(laps(1.0, 1.0, 1.0), 0.1), {"workloads": {}})
    assert rows == [] and not any_worse
