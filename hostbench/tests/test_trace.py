import json

import pytest

from hostbench.trace import Tracer, install, self_times, totals_by_root, write_chrome_trace


def synthetic():
    """Two laps; in the first, a loop span with two children, one of them nested."""
    return [
        ["lap", 0.0, 10.0, None],          # 0
        ["train.loop", 1.0, 9.0, 0],       # 1
        ["nn.forward", 2.0, 4.0, 1],       # 2
        ["tensor.backward", 4.0, 8.0, 1],  # 3
        ["optim.step", 5.0, 6.0, 3],       # 4 (nested inside backward)
        ["lap", 10.0, 13.0, None],         # 5
        ["nn.forward", 11.0, 12.0, 5],     # 6
        ["setup", 20.0, 21.0, None],       # 7: a root that is not a lap
    ]


def test_self_time_is_span_minus_direct_children():
    own = self_times(synthetic())
    assert own == [2.0, 2.0, 2.0, 3.0, 1.0, 2.0, 1.0, 1.0]


def test_self_times_of_a_lap_sum_to_the_lap():
    spans = synthetic()
    first, second = totals_by_root(spans, "lap")
    assert sum(row["self_s"] for row in first.values()) == pytest.approx(10.0)
    assert first["tensor.backward"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert first["lap"]["self_s"] == 2.0
    assert second["nn.forward"]["calls"] == 1 and "train.loop" not in second
    assert all("setup" not in lap for lap in (first, second))


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return self.inner(n - 1) if n else 0

    def __iter__(self):
        yield from (1, 2, 3)


def test_only_the_outermost_call_of_a_name_opens_a_span():
    tracer = Tracer()
    tracer.wrap_span(Toy, "inner", "toy.inner")
    tracer.wrap_span(Toy, "outer", "toy.outer")
    try:
        assert Toy().outer(5) == 1
    finally:
        tracer.uninstall()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("toy.outer", None), ("toy.inner", 0)]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_iterator_spans_count_yields_not_the_final_stop():
    tracer = Tracer()
    tracer.wrap_iter(Toy, lambda toy: "toy.next")
    try:
        assert list(Toy()) == [1, 2, 3]
    finally:
        tracer.uninstall()
    assert [name for name, *_ in tracer.spans] == ["toy.next"] * 3


def test_counters_accumulate_and_reset():
    tracer = Tracer()
    tracer.wrap_counter(Toy, "outer", "toy.outer")
    try:
        Toy().outer(0), Toy().outer(0)
    finally:
        tracer.uninstall()
    taken = tracer.take_counters()
    assert taken["toy.outer"][0] == 2 and taken["toy.outer"][1] > 0
    assert tracer.counters == {} and tracer.spans == []


def test_install_then_uninstall_restores_the_very_same_objects():
    from repro.device import Device
    from repro.nn import Module
    from repro.tensor import Tensor

    watched = [(Device, "launch"), (Tensor, "backward"), (Module, "__call__")]
    before = [owner.__dict__[attr] for owner, attr in watched]
    tracer = Tracer()
    install(tracer)
    try:
        assert all(owner.__dict__[attr] is not b for (owner, attr), b in zip(watched, before))
        Device().launch("probe", flops=1.0, bytes_moved=4.0)
        assert tracer.counters["device.launch"][0] == 1
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(watched, before))


def test_chrome_trace_is_complete_events_with_self_time(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(synthetic(), path)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == 8 and {e["ph"] for e in events} == {"X"}
    backward = events[3]
    assert (backward["name"], backward["cat"]) == ("tensor.backward", "tensor")
    assert (backward["ts"], backward["dur"], backward["args"]["self_us"]) == (4e6, 4e6, 3e6)
