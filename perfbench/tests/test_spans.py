"""Span bookkeeping: nesting, self time, tiling, patching."""

import threading

import pytest

import analysis
import spans as sp


def _span(name, start, end, parent=None, **attrs):
    return sp.Span(name, start, end, parent=parent, attrs=attrs)


def _nested():
    a = _span("inference.forward", 0.0, 10.0)
    b = _span("generation.generate_ids", 2.0, 5.0, parent=a)
    c = _span("fi.inject", 3.0, 4.0, parent=b)
    d = _span("metrics.score_generative", 6.0, 8.0, parent=a)
    return [a, b, c, d]


class TestSelfTime:
    def test_self_time_subtracts_direct_children_only(self):
        a, b, c, d = _nested()
        own = {s.name: t for s, t in sp.window_self([a, b, c, d], 0.0, 12.0)}
        assert own == {
            "inference.forward": 10.0 - 3.0 - 2.0,
            "generation.generate_ids": 3.0 - 1.0,
            "fi.inject": 1.0,
            "metrics.score_generative": 2.0,
        }

    def test_layers_plus_other_tile_the_wall(self):
        pairs = sp.window_self(_nested(), 0.0, 12.0)
        tiles = sp.tile(pairs, 12.0)
        assert tiles["other"] == pytest.approx(2.0)
        assert sum(tiles.values()) == pytest.approx(12.0)
        assert tiles["inference"] == pytest.approx(5.0)

    def test_parent_outside_the_window_makes_a_child_top_level(self):
        a, b, c, d = _nested()
        pairs = sp.window_self([a, b, c, d], 1.0, 9.0)
        assert {s.name for s, _ in pairs} == {
            "generation.generate_ids", "fi.inject", "metrics.score_generative",
        }
        assert sum(sp.tile(pairs, 8.0).values()) == pytest.approx(8.0)

    def test_by_name_counts_calls(self):
        spans = [_span("x.f", 0, 1), _span("x.f", 1, 3), _span("y.g", 3, 4)]
        assert sp.by_name(sp.window_self(spans, 0, 4)) == {
            "x.f": (2, 3.0), "y.g": (1, 1.0),
        }

    def test_outermost_ignores_nested_same_name(self):
        outer = _span("generation.decode_many", 0.0, 4.0)
        inner = _span("generation.decode_many", 1.0, 3.0, parent=outer)
        other = _span("generation.decode_many", 5.0, 6.0)
        assert analysis.outermost_seconds([outer, inner, other], outer.name) == 5.0


class TestTracer:
    def test_wrap_links_parents_and_keys(self):
        tracer = sp.Tracer()

        def inner(x):
            return x + 1

        traced_inner = tracer.wrap(inner, "a.inner", note=lambda s, a, k, r: s.attrs.update(r=r))

        def outer(x):
            return traced_inner(x) * 2

        tracer.key = "trial-7"
        assert tracer.wrap(outer, "a.outer")(1) == 4
        out, inn = sorted(tracer.spans, key=lambda s: s.start)
        assert inn.parent is out and out.parent is None
        assert inn.attrs == {"r": 2} and inn.key == "trial-7"
        assert out.start <= inn.start <= inn.end <= out.end

    def test_threads_keep_separate_stacks(self):
        tracer = sp.Tracer()
        f = tracer.wrap(lambda: None, "a.f")
        t = threading.Thread(target=f)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        g = tracer.wrap(lambda: f(), "a.g")
        g()
        by_name = {s.name: s for s in tracer.spans if s.parent is not None}
        assert by_name["a.f"].parent.name == "a.g"
        assert sum(s.parent is None for s in tracer.spans) == 2

    def test_context_manager_times_enter_and_exit_not_body(self):
        tracer = sp.Tracer()
        events = []

        class CM:
            def __enter__(self):
                events.append("enter")
                return self

            def __exit__(self, *exc):
                events.append("exit")

        with tracer.wrap_cm(CM, "fi.inject")() as cm:
            assert isinstance(cm, CM)
        assert events == ["enter", "exit"]
        assert [s.name for s in tracer.spans] == ["fi.inject", "fi.inject"]
        assert tracer.spans[0].end <= tracer.spans[1].start

    def test_patched_restores_on_error(self):
        class Owner:
            def f(self):
                return "original"

        original = Owner.__dict__["f"]
        with pytest.raises(RuntimeError):
            with sp.patched([(Owner, "f", lambda self: "patched")]):
                assert Owner().f() == "patched"
                raise RuntimeError
        assert Owner.__dict__["f"] is original


def test_slots_in_use_is_time_weighted():
    spans = [
        _span("inference.kv.acquire", 0.0, 0.0, pool=1),
        _span("inference.kv.acquire", 2.0, 2.0, pool=1),
        _span("inference.kv.release", 6.0, 6.0, pool=1),
        _span("inference.kv.acquire", 1.0, 1.0, pool=2),
    ]
    # One slot for [0, 2), two for [2, 6), one for [6, 10).
    assert analysis.slots_in_use_mean(spans, 0.0, 10.0, pool=1) == pytest.approx(
        (2 + 8 + 4) / 10
    )
    assert analysis.slots_in_use_mean(spans, 0.0, 10.0) == pytest.approx(
        (2 + 8 + 4 + 9) / 10
    )


def test_rejected_tokens_match_the_target_views_of_their_own_burst():
    def truncate(at, view, before, after):
        return _span("inference.kv.truncate", at, at, view=view, before=before, after=after)

    # Burst 2 reuses the address of burst 1's target view 11 for a
    # draft view: its truncation there is no target rollback.
    bursts = [
        {"t0": 0.0, "t1": 1.0, "target_views": {11, 12}},
        {"t0": 2.0, "t1": 3.0, "target_views": {21}},
    ]
    spans = [
        truncate(0.5, 11, 9, 7),
        truncate(0.6, 99, 9, 5),
        truncate(2.5, 11, 9, 6),
        truncate(2.6, 21, 8, 7),
        truncate(4.0, 21, 8, 0),
    ]
    assert analysis.rejected_tokens(spans, bursts) == 2 + 1
