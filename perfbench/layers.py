"""Outside-in per-layer timing: wrap public functions of each layer.

:class:`LayerTracer` replaces selected methods on the program's classes with
thin wrappers that count calls and accumulate self time (a call's duration
minus the time spent in wrapped callees) with ``perf_counter_ns``.  Spans are
kept in memory and read once when the run ends.  Install it before any
harness is built: some objects bind methods at construction.

A wrapped method re-entered under the same name (a subclass override calling
``super()``, or a handler recursing into itself) is passed through
uncounted, so each outermost call is counted once.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: Seams whose wrapper also counts truthy results (calls that returned
#: any effect), for the layer's useful-work ratio.
COUNT_USEFUL = frozenset({"core.protocol.on_log_notifications"})

#: (layer, class path, method names).  The class path is
#: ``module:Class``; several classes may feed the same layer name.
SEAMS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine:Engine", ("run",)),
    ("runtime", "repro.runtime.harness:ProcessHost",
     ("incoming", "notify", "flush", "checkpoint", "control_tick",
      "restart")),
    ("runtime", "repro.runtime.executor:EffectExecutor", ("execute",)),
    ("core.protocol", "repro.core.protocol:KOptimisticProcess",
     ("on_receive", "on_log_notifications", "make_log_notification",
      "make_log_notification_for", "flush", "checkpoint", "restart",
      "on_failure_announcement", "on_ack", "on_retransmit_timer")),
    ("core.tables", "repro.core.tables:EntrySetTable",
     ("merge_snapshot", "merge_snapshots", "snapshot_columns",
      "delta_since")),
    ("net", "repro.net.network:Network",
     ("send_app", "send_control", "broadcast_control")),
    ("storage", "repro.storage.stable:ModelBackend",
     ("append_log", "write_checkpoint")),
    ("storage", "repro.storage.filelog:FileLogBackend",
     ("append_log", "write_checkpoint", "recover")),
    ("oracle", "repro.oracle.graph:DependencyOracle",
     ("record_delivery", "mark_stable", "potential_revokers", "is_orphan",
      "check_consistency")),
    ("control", "repro.control.controller:AdaptiveKController",
     ("observe",)),
)


class _Span:
    __slots__ = ("calls", "self_ns", "useful", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        #: Calls whose result was truthy (a non-empty effect list).
        self.useful = 0
        self.active = False


class LayerTracer:
    """Call counts and self time per wrapped ``layer.function``."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Span] = {}
        #: Child-time accumulators of the wrapped calls now on the stack.
        self._stack: List[int] = []

    def install(self, seams=SEAMS) -> "LayerTracer":
        import importlib

        for layer, path, methods in seams:
            module, cls_name = path.split(":")
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._wrap(cls, method, f"{layer}.{method}")
        return self

    def _wrap(self, cls: type, method: str, name: str) -> None:
        original = cls.__dict__[method]
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        count_useful = name in COUNT_USEFUL

        def wrapper(*args, **kwargs):
            if span.active:
                return original(*args, **kwargs)
            span.active = True
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                span.active = False
                span.calls += 1
                span.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count_useful and result:
                span.useful += 1
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = method
        setattr(cls, method, wrapper)

    def reset(self) -> None:
        """Forget everything counted so far."""
        for span in self.spans.values():
            span.calls = span.self_ns = span.useful = 0

    def span(self, name: str) -> Optional[_Span]:
        return self.spans.get(name)

    def report(self) -> Dict[str, float]:
        """``<layer>.<function>.calls`` and ``.self_s`` for every seam."""
        out: Dict[str, float] = {}
        for name, span in sorted(self.spans.items()):
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_ns / 1e9
        return out
