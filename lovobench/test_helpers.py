"""Self-tests of the benchmark's helpers: ``python3 -m pytest lovobench -q``.

They import nothing from the system under test, so they run in seconds.
"""

from __future__ import annotations

import pytest

import hostspeed
import loadgen
import spans
import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile(reversed(values), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (9, 0.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if q:
        assert stats.samples_beyond(n, q) >= stats.MIN_TAIL_SAMPLES


def test_require_percentile_rejects_thin_tails():
    stats.require_percentile(100, 90.0, "latencies")
    with pytest.raises(RuntimeError, match="99 samples"):
        stats.require_percentile(99, 90.0, "latencies")


def _span(sid, parent, start, end, name="layer"):
    return spans.Span(sid=sid, parent=parent, name=name, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0, "root"),
        # Two children overlapping on [3, 4]: the union covers [2, 6].
        _span(2, 1, 2.0, 4.0),
        _span(3, 1, 3.0, 6.0),
        # A child overhanging its parent's end only counts inside the parent.
        _span(4, 1, 9.0, 12.0),
        # A grandchild is subtracted from its own parent, not from the root.
        _span(5, 3, 4.0, 5.0, "leaf"),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    summary = spans.layer_summary(tree)
    assert summary["layer"]["calls"] == 3
    assert summary["layer"]["self_ms"] == pytest.approx((2.0 + 2.0 + 3.0) * 1000.0)
    assert summary["layer"]["self_ms_p50"] == pytest.approx(2000.0)


def test_coverage_counts_descendants_inside_roots_only():
    tree = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 3.0, 8.0, "leaf"),
        _span(4, None, 20.0, 30.0, "other"),
    ]
    assert spans.coverage(tree, {"root"}) == pytest.approx(0.7)
    assert spans.coverage(tree, {"missing"}) == 0.0
    assert spans.overhead(tree, {"root"}, cost=0.5) == pytest.approx(2 * 0.5 / 10.0)
    assert 0.0 <= spans.span_cost(calls=1000) < 1e-3


def test_recorder_nests_and_counts_a_reentrant_layer_once():
    class Layer:
        def outer(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    recorder = spans.Recorder()
    recorder.wrap(Layer, "outer", "layer", attrs_of=lambda a, k, r: {"arg": a[0]})
    recorder.wrap(Layer, "inner", "layer")
    layer = Layer()
    assert layer.outer(3) == 7
    assert recorder.spans == []
    recorder.enabled = True
    with recorder.span("root", rid="r1"):
        assert layer.outer(3) == 7
    recorder.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    names = [span.name for span in recorder.spans]
    assert names == ["layer", "root"]
    child, root = recorder.spans
    assert child.parent == root.sid and child.rid == "r1" and child.attrs == {"arg": 3}


def test_fixed_schedule_is_evenly_spaced():
    assert loadgen.fixed_schedule(0.25, 4) == [0.0, 0.25, 0.5, 0.75]
    assert loadgen.fixed_schedule(0.5, 100) == loadgen.fixed_schedule(0.5, 100)


def test_zipf_pool_is_deterministic_and_skewed():
    base = ["a text", "another text"]
    pool = loadgen.text_pool(base, 300, seed=1)
    assert pool == loadgen.text_pool(base, 300, seed=1)
    assert pool != loadgen.text_pool(base, 300, seed=2)
    assert set(base) <= set(pool) and len(set(pool)) == 300
    requests = loadgen.zipf_requests(pool, 2000, 1.0, seed=1)
    assert requests == loadgen.zipf_requests(pool, 2000, 1.0, seed=1)
    other = loadgen.zipf_requests(pool, 2000, 1.0, seed=2)
    assert other != requests and sorted(other) == sorted(requests)
    assert len(requests) == 2000
    # Rank r gets 2000 / (r * H(300)) requests, H(300) ~ 6.28.
    assert requests.count(pool[0]) == 318
    assert requests.count(pool[1]) == 159
    assert requests.count(pool[9]) == 32
    few = loadgen.zipf_requests(pool, 110, 0.8, seed=1)
    assert len(few) == 110 and len(set(few)) < 110


def test_cycled_order_sends_every_text_once_per_cycle():
    items = [f"q{index}" for index in range(16)]
    order = loadgen.cycled_order(items, 100, seed=5)
    assert order == loadgen.cycled_order(items, 100, seed=5)
    assert len(order) == 100
    for cycle in range(6):
        assert sorted(order[cycle * 16:(cycle + 1) * 16]) == sorted(items)


def test_host_speed_scales_by_the_trimmed_mean_kernel_time():
    speed = hostspeed.HostSpeed()
    with pytest.raises(RuntimeError):
        speed.factor()
    reference = hostspeed.REFERENCE_S
    # A tenth at each end is dropped: 0.1 and 50 go, the rest average 2.
    speed.samples = [reference * x for x in (50.0, 1.0, 3.0, 1.0, 3.0, 0.1, 1.0, 3.0, 2.0, 2.0)]
    assert speed.factor() == pytest.approx(2.0)
    assert speed.scale(0.5) == pytest.approx(0.25)
    speed.sample(3)
    assert len(speed.samples) == 13 and all(sample > 0.0 for sample in speed.samples)
