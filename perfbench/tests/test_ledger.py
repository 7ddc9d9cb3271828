"""The span fold, the ledger and the statistics helpers."""

import random
import statistics

import pytest

from perfbench import ledger


class FakeClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def synthetic_tree():
    """op [0, 10] > a [1, 4] > b [2, 3]; op > c [5, 9]; probe [11, 12]."""
    recorder = ledger.SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10, 11, 12))
    with recorder.operation(7):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("c"):
            pass
    with recorder.span("probe"):
        pass
    return recorder


def test_recorder_links_parents_and_op_ids():
    spans = synthetic_tree().spans
    assert [span.name for span in spans] == ["op", "a", "b", "c", "probe"]
    assert [span.parent for span in spans] == [None, 0, 1, 0, None]
    assert [span.op for span in spans[:4]] == [7, 7, 7, 7]


def test_fold_self_time_on_synthetic_tree():
    folded = ledger.fold_self_time(synthetic_tree().spans)
    # op: 10 - a(3) - c(4); a: 3 - b(1); the probe is its own root.
    assert folded == {"op": 3, "a": 2, "b": 1, "c": 4, "probe": 1}


def test_self_times_add_up_to_the_root_duration():
    spans = synthetic_tree().spans
    folded = ledger.fold_self_time(spans)
    in_op = sum(seconds for name, seconds in folded.items() if name != "probe")
    assert in_op == pytest.approx(sum(ledger.op_durations(spans)))


def test_layer_ledger_reports_unattributed_share_and_serve_overhead():
    recorder = ledger.SpanRecorder(clock=FakeClock(0, 1, 9, 10))
    with recorder.operation(0):
        with recorder.span("core.analytic.summarize"):
            pass
    plain = ledger.layer_ledger(recorder.spans)
    assert plain["core.analytic.summarize_ms"] == pytest.approx(8e3)
    assert plain["ledger.unattributed_pct"] == pytest.approx(20.0)
    assert plain["serve.overhead_ms"] == 0.0
    served = ledger.layer_ledger(recorder.spans, served_s=[15.0])
    assert served["serve.overhead_ms"] == pytest.approx(5e3)
    assert served["ledger.unattributed_pct"] == pytest.approx(100.0 * 2 / 15)


def test_layer_ledger_needs_an_operation():
    with pytest.raises(ValueError):
        ledger.layer_ledger([])


def test_tail_leaves_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    random.Random(3).shuffle(values)
    assert ledger.tail_percentile(values) == (90.0, 90.0, 100)


@pytest.mark.parametrize("n", [11, 12, 37, 100, 999])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    value, percentile, samples = ledger.tail_percentile(values)
    assert samples == n
    assert sum(v > value for v in values) == ledger.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - ledger.TAIL_BEYOND) / n)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        ledger.tail_percentile(list(range(10)))


def test_short_runs_take_the_tail_over_every_call():
    values = random.Random(5).sample(range(10_000), 2 * ledger.TAIL_WINDOW - 1)
    assert ledger.windowed_tail(values) == ledger.tail_percentile(values)


def test_long_runs_take_the_median_tail_of_their_windows():
    window = ledger.TAIL_WINDOW
    # Five windows; one holds a burst of slow calls that sets its tail only.
    beyond = ledger.TAIL_BEYOND + 1
    values = [1.0] * (5 * window)
    for k, tail in enumerate([50.0, 2.0, 3.0, 4.0, 5.0]):
        values[(k + 1) * window - beyond : (k + 1) * window] = [tail] * beyond
    assert ledger.tail_percentile(values)[0] == 50.0
    value, percentile, calls = ledger.windowed_tail(values)
    assert value == 4.0
    assert calls == window
    assert percentile == pytest.approx(100.0 * (window - ledger.TAIL_BEYOND) / window)


def test_tail_windows_cover_every_call():
    n = 3 * ledger.TAIL_WINDOW + 77
    value, _, calls = ledger.windowed_tail([1.0] * n)
    assert value == 1.0
    assert calls == n // 3


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, median, q3 = ledger.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert ledger.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_summarize_calls():
    calls = ledger.summarize_calls([0.01] * 20 + [0.02] * 5, units=50)
    assert calls["work_per_s"] == pytest.approx(50 / 0.3)
    assert calls["call_p50_ms"] == pytest.approx(10.0)
    assert calls["call_tail_ms"] == pytest.approx(10.0)
    assert calls["call_tail_percentile"] == pytest.approx(60.0)
    assert calls["calls"] == calls["call_tail_window"] == 25


def test_metric_block_requires_every_metric():
    values = dict.fromkeys(ledger.END_TO_END, 1.0)
    block = ledger.metric_block(values, ledger.END_TO_END)
    assert block["setup_s"] == {"value": 1.0, "unit": "s"}
    del values["setup_s"]
    with pytest.raises(KeyError):
        ledger.metric_block(values, ledger.END_TO_END)


def test_alternating_swaps_order_on_odd_ops():
    seen = []
    calls = (lambda: seen.append("a") or "A", lambda: seen.append("b") or "B")
    assert ledger.alternating(0, *calls) == ["A", "B"]
    assert ledger.alternating(1, *calls) == ["A", "B"]
    assert seen == ["a", "b", "b", "a"]


def test_null_recorder_records_nothing():
    recorder = ledger.NullRecorder()
    with recorder.span("a"):
        pass
    assert not hasattr(recorder, "spans")


def test_close_match_tolerates_only_last_bits_of_floats():
    pinned = {"a": [1, 2.5, None, "x"], "b": {"t": 0.48944671887122965}}
    assert ledger.close_match(pinned, pinned)
    nudged = {"a": [1, 2.5 * (1 + 1e-12), None, "x"], "b": pinned["b"]}
    assert ledger.close_match(nudged, pinned)
    drifted = {"a": [1, 2.5 * (1 + 1e-6), None, "x"], "b": pinned["b"]}
    assert not ledger.close_match(drifted, pinned)
    assert not ledger.close_match({"a": [2, 2.5, None, "x"], "b": pinned["b"]}, pinned)
    assert not ledger.close_match({"a": [True, 2.5, None, "x"], "b": pinned["b"]}, pinned)
    assert not ledger.close_match({"a": [1, 2.5, None], "b": pinned["b"]}, pinned)
    assert not ledger.close_match({"a": pinned["a"]}, pinned)


def test_reference_file_pins_every_anchor():
    assert len(ledger.load_reference("characterize_anchors")) == 2
    assert set(ledger.load_reference("fleet_anchor")) == {"seed", "op", "state_sha256"}
    assert ledger.load_reference("memsys_anchor")["violations"] == 0
