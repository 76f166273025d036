"""Unit tests for the PWD application model."""

import random
from types import SimpleNamespace

import pytest

from repro.app import behavior as behavior_module
from repro.app.behavior import AppBehavior, AppContext, EchoBehavior


class TestAppContext:
    def test_send_collects(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.send(1, {"a": 1})
        ctx.send(2, {"b": 2})
        assert ctx.sends == [(1, {"a": 1}), (2, {"b": 2})]

    def test_output_collects(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.output("x")
        assert ctx.outputs == ["x"]

    def test_self_send_rejected(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        with pytest.raises(ValueError):
            ctx.send(0, {})

    def test_out_of_range_destination_rejected(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        with pytest.raises(ValueError):
            ctx.send(4, {})

    def test_rng_deterministic_per_interval(self):
        # The core PWD requirement: a replayed interval draws identical
        # random numbers.
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 1, 7, seed=42)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_rng_differs_across_intervals(self):
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 1, 8, seed=42)
        assert a.rng.random() != b.rng.random()

    def test_rng_differs_across_incarnations(self):
        # Re-execution in a new incarnation is a *different* nondeterministic
        # choice, not a replay.
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 2, 7, seed=42)
        assert a.rng.random() != b.rng.random()

    def test_rng_stream_is_seeded_by_interval_identity(self):
        ctx = AppContext(3, 8, 1, 7, seed=42)
        expected = random.Random("42/3/1/7")
        assert [ctx.rng.random() for _ in range(4)] == \
            [expected.random() for _ in range(4)]

    def test_rng_built_lazily_once(self, monkeypatch):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(behavior_module, "random",
                            SimpleNamespace(Random=CountingRandom))
        # A handler that never draws (the last hop of a chain) pays for
        # no generator at all.
        quiet = AppContext(0, 4, 0, 2, seed=5)
        EchoBehavior().on_message(EchoBehavior().initial_state(0, 4),
                                  {"output": "o"}, quiet)
        assert built == []
        # Drawing builds one generator and keeps it, so a replayed
        # interval draws the same numbers as the original execution.
        first = AppContext(0, 4, 1, 9, seed=5)
        draws = [first.rng.random(), first.rng.random()]
        assert built == ["5/0/1/9"]
        replay = AppContext(0, 4, 1, 9, seed=5)
        assert [replay.rng.random(), replay.rng.random()] == draws
        assert built == ["5/0/1/9", "5/0/1/9"]

    def test_sends_returns_copy(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.send(1, {})
        ctx.sends.clear()
        assert len(ctx.sends) == 1


class TestEchoBehavior:
    def test_counts_and_logs(self):
        behavior = EchoBehavior()
        state = behavior.initial_state(0, 4)
        ctx = AppContext(0, 4, 0, 2, seed=0)
        state = behavior.on_message(state, {"x": 1}, ctx)
        assert state["delivered"] == 1
        assert state["log"] == [{"x": 1}]

    def test_forwarding(self):
        behavior = EchoBehavior()
        ctx = AppContext(0, 4, 0, 2, seed=0)
        behavior.on_message(behavior.initial_state(0, 4),
                            {"forward_to": 2, "payload": "p"}, ctx)
        assert ctx.sends == [(2, "p")]

    def test_output(self):
        behavior = EchoBehavior()
        ctx = AppContext(0, 4, 0, 2, seed=0)
        behavior.on_message(behavior.initial_state(0, 4), {"output": "o"}, ctx)
        assert ctx.outputs == ["o"]

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AppBehavior().on_message({}, {}, AppContext(0, 2, 0, 1, seed=0))
