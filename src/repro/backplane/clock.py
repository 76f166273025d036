"""Wall-clock timers and streaming traces for the backplane.

:class:`WallClock` is the serve-side Clock of the shared
:class:`~repro.runtime.harness.ProcessHost` — the subset of the
simulation engine's surface a host needs: a ``now`` property,
``schedule(delay, callback)`` returning a cancellable handle, and
``defer(callback)`` for the same-tick notification drain — backed by the
asyncio event loop.  ``now`` reads the *system* clock (``time.time``):
all workers run on one host, so their trace timestamps share a clock and
post-hoc certification can order events globally without a logical-clock
protocol.

Protocol timer constants (flush intervals, retransmission timeouts) are
expressed in virtual time units; ``timescale`` maps one unit to real
seconds so a serve run with the default config settles in seconds, not
minutes.

:class:`JsonlTracer` is a :class:`~repro.sim.trace.Tracer` that streams
every record to an append-only JSONL file instead of accumulating it in
memory — a SIGKILLed worker keeps everything written before the kill,
which is exactly the property post-hoc certification needs.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Optional

from repro.sim.trace import Tracer


class WallClock:
    """Engine-compatible ``now``/``schedule``/``defer`` over the asyncio loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, timescale: float = 1.0):
        if timescale <= 0:
            raise ValueError(f"timescale must be positive, got {timescale}")
        self.loop = loop
        self.timescale = timescale
        self._stopped = False

    @property
    def now(self) -> float:
        """Wall-clock seconds (epoch) — shared across same-host workers."""
        return time.time()

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: Optional[str] = None) -> asyncio.TimerHandle:
        """Run ``callback`` after ``delay`` *virtual units*; the returned
        handle has ``.cancel()``, matching the engine's EventHandle."""
        return self.loop.call_later(max(0.0, delay) * self.timescale,
                                    self._unless_stopped, callback)

    def defer(self, callback: Callable[[], None],
              label: Optional[str] = None,
              shard: Optional[int] = None) -> asyncio.Handle:
        """Run ``callback`` once the frames already read this loop turn
        are dispatched (the engine's same-tick drain)."""
        return self.loop.call_soon(self._unless_stopped, callback)

    def stop(self) -> None:
        """No pending callback runs after this (a worker shutting down
        must not flush into a closed journal)."""
        self._stopped = True

    def _unless_stopped(self, callback: Callable[[], None]) -> None:
        if not self._stopped:
            callback()


class JsonlTracer(Tracer):
    """A tracer that writes each record to a JSONL file as it happens."""

    def __init__(self, path: str):
        super().__init__(enabled=True)
        self._fh = open(path, "a", encoding="utf-8")

    def record(self, time_: float, category: str,
               process: Optional[int] = None, **data: Any) -> None:
        def safe(value: Any) -> Any:
            try:
                json.dumps(value)
                return value
            except (TypeError, ValueError):
                return str(value)

        self._fh.write(json.dumps({
            "time": time_,
            "category": category,
            "process": process,
            "data": {k: safe(v) for k, v in data.items()},
        }) + "\n")
        # One line per record: a SIGKILL mid-run loses at most the final
        # partially-written line (the certifier skips unparsable tails).
        self._fh.flush()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass
