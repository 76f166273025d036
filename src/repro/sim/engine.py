"""Deterministic discrete-event simulation engine.

The engine is a classic calendar loop: a binary heap of ``(time, priority,
sequence, ...)`` records.  Ties on time are broken first by an explicit
priority (lower runs first) and then by insertion order, which makes every
run with the same seed bit-for-bit reproducible — a property the recovery
tests rely on (deterministic replay must reconstruct identical states).

Two record shapes share the heap:

- **handle records** ``(time, priority, seq, EventHandle)`` — returned by
  :meth:`Engine.schedule`/:meth:`Engine.schedule_at`, cancellable;
- **raw records** ``(time, priority, seq, fn, args, label)`` — pushed by
  :meth:`Engine.schedule_at_raw` for fire-and-forget work (message
  arrivals).  No handle object, no closure: the hot network path schedules
  with zero per-event allocations beyond the heap tuple itself.

The two are discriminated by tuple length; the ``(time, priority, seq)``
prefix alone decides pop order, so mixing shapes never affects the firing
sequence.

Two hooks open the loop up to external control without touching the
default behaviour:

- a **tie-breaker** (:meth:`Engine.set_tie_breaker`) chooses which of
  several same-time events fires next — the systematic schedule explorer
  (:mod:`repro.check`) drives it to enumerate delivery orderings;
- a **post-step callback** (:attr:`Engine.post_step`) runs after every
  fired event — the invariant probe layer checks global properties there.

Events may carry a ``label`` so external choosers and dumped
counterexample traces can describe what each choice meant; producers on
hot paths consult :attr:`Engine.wants_labels` and skip building label
strings when no chooser is installed.

All ``schedule*`` methods accept an optional ``shard`` routing hint.  The
base engine ignores it; :class:`repro.sim.shard.ShardedEngine` uses it to
place the record on a per-worker heap (placement only — the deterministic
cross-shard merge keeps the firing order identical for any shard count).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: A tie-breaker: receives the same-time candidates in default firing
#: order and returns the index of the event to fire next.
TieBreaker = Callable[[List["EventHandle"]], int]

#: Priority of :meth:`Engine.defer` callbacks: strictly after every
#: same-time message delivery (priority 0).
DEFER_PRIORITY = 4


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. events in the past)."""


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; supports cancellation."""

    __slots__ = ("time", "cancelled", "label", "_callback", "_engine")

    def __init__(self, time: float, callback: Callable[..., None],
                 label: Optional[str] = None):
        self.time = time
        self.cancelled = False
        self.label = label
        self._callback = callback
        self._engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (a no-op if it already ran)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._callback = None  # type: ignore[assignment]
        if self._engine is not None:
            self._engine._note_cancel()


def _is_dead(record: Tuple) -> bool:
    """True for a cancelled handle record (raw records cannot cancel)."""
    return len(record) == 4 and record[3].cancelled


class Engine:
    """A single-threaded discrete-event scheduler with virtual time."""

    #: Compaction thresholds: rebuild the heap once at least this many
    #: cancelled records linger AND they make up half the queue.
    COMPACT_MIN_DEAD = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._seq = 0
        self._queue: List[Tuple] = []
        self._live = 0
        self._events_executed = 0
        self._running = False
        self._tie_breaker: Optional[TieBreaker] = None
        #: Invoked (with no arguments) after every fired event; the
        #: checking harness hangs its invariant probes here.
        self.post_step: Optional[Callable[[], None]] = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not yet fired) scheduled events.

        Cancelled records linger in the heap until lazily popped or
        compacted, but they no longer count here.
        """
        return self._live

    @property
    def wants_labels(self) -> bool:
        """Whether event labels will be consumed (a tie-breaker is
        installed).  Hot-path producers skip label formatting otherwise."""
        return self._tie_breaker is not None

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority, label, shard)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback`` to fire at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self._now})"
            )
        handle = EventHandle(time, callback, label)
        handle._engine = self
        heapq.heappush(self._heap_for(shard), (time, priority, self._seq, handle))
        self._seq += 1
        self._live += 1
        return handle

    def defer(
        self,
        callback: Callable[[], None],
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> EventHandle:
        """Run ``callback`` at the current time, behind every same-time
        event of a lower priority (message deliveries use 0): the
        same-tick drain of a host's batched notifications."""
        return self.schedule_at(self._now, callback, DEFER_PRIORITY, label,
                                shard)

    def schedule_at_raw(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple = (),
        priority: int = 0,
        label: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` with no handle.

        The fire-and-forget fast path: no :class:`EventHandle`, no closure
        capture, not cancellable.  Used by the network for message
        arrivals, which are never revoked individually.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self._now})"
            )
        heapq.heappush(self._heap_for(shard),
                       (time, priority, self._seq, fn, args, label))
        self._seq += 1
        self._live += 1

    def _heap_for(self, shard: Optional[int]) -> List[Tuple]:
        """The heap a new record lands on (``shard`` ignored here)."""
        return self._queue

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; maybe compact the heap.

        Cancelled records are deleted lazily, so a cancellation-heavy
        workload (ack/retransmit timers) can leave the heap mostly dead
        weight, inflating every push/pop.  Once the dead fraction reaches
        one half (and is big enough to be worth the rebuild), filter and
        re-heapify — pop order is decided entirely by the (time, priority,
        seq) prefix, so rebuilding never changes the firing sequence.
        """
        self._live -= 1
        dead = len(self._queue) - self._live
        if dead >= self.COMPACT_MIN_DEAD and dead * 2 >= len(self._queue):
            self._queue = [rec for rec in self._queue if not _is_dead(rec)]
            heapq.heapify(self._queue)

    # -- external schedule control --------------------------------------------

    def set_tie_breaker(self, chooser: Optional[TieBreaker]) -> None:
        """Install (or clear) an external same-time tie-breaker.

        When two or more pending events share the earliest time, the
        chooser receives them in default firing order — sorted by
        ``(priority, sequence)`` — and returns the index of the one to
        fire; the rest keep their place in the queue.  With no chooser
        installed the engine behaves exactly as before (priority, then
        insertion order), preserving bit-for-bit reproducibility.
        """
        self._tie_breaker = chooser

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        if self._tie_breaker is not None:
            fired = self._step_chosen()
            if fired is None:
                return False
            return fired
        queue = self._queue
        while queue:
            record = heapq.heappop(queue)
            if len(record) == 4:
                handle = record[3]
                if handle.cancelled:
                    continue
                self._fire(record[0], handle)
            else:
                self._fire_raw(record)
            return True
        return False

    def _candidate_records(self) -> List[Tuple]:
        """Pop every live record sharing the earliest time (tie-breaking)."""
        candidates: List[Tuple] = []
        front_time: Optional[float] = None
        queue = self._queue
        while queue:
            record = heapq.heappop(queue)
            if _is_dead(record):
                continue
            if front_time is None:
                front_time = record[0]
            elif record[0] > front_time:
                heapq.heappush(queue, record)
                break
            candidates.append(record)
        return candidates

    def _requeue(self, record: Tuple) -> None:
        """Return an unchosen candidate to its heap."""
        heapq.heappush(self._queue, record)

    def _step_chosen(self) -> Optional[bool]:
        """One step under an external tie-breaker.

        Returns True after firing, or None when the queue is empty.
        """
        candidates = self._candidate_records()
        if not candidates:
            return None
        index = 0
        if len(candidates) > 1:
            index = self._tie_breaker([_display_handle(r) for r in candidates])
            if not 0 <= index < len(candidates):
                raise SimulationError(
                    f"tie-breaker chose {index} among {len(candidates)} events"
                )
        chosen = candidates.pop(index)
        for record in candidates:
            self._requeue(record)
        self._fire_record(chosen)
        return True

    def _fire_record(self, record: Tuple) -> None:
        if len(record) == 4:
            self._fire(record[0], record[3])
        else:
            self._fire_raw(record)

    def _fire(self, time: float, handle: EventHandle) -> None:
        self._now = time
        callback = handle._callback
        handle.cancelled = True  # mark consumed; cancel() becomes no-op
        self._live -= 1
        self._events_executed += 1
        callback()  # type: ignore[misc]
        if self.post_step is not None:
            self.post_step()

    def _fire_raw(self, record: Tuple) -> None:
        self._now = record[0]
        self._live -= 1
        self._events_executed += 1
        record[3](*record[4])
        if self.post_step is not None:
            self.post_step()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued); ``max_events`` bounds the number of firings —
        a safety net for tests that might otherwise loop forever.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                if self.step():
                    fired += 1
            # The clock advances to the horizon on every normal exit: queue
            # exhausted, all remaining records cancelled, or the next event
            # lying beyond ``until``.  (A queue holding only cancelled
            # records must behave exactly like an empty one.)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without firing anything.

        Used by the epoch-parallel runner to align worker clocks at a
        barrier; refuses to jump over pending events (that would fire them
        in the past)."""
        if time <= self._now:
            return
        next_time = self._peek_time()
        if next_time is not None and next_time < time:
            raise SimulationError(
                f"cannot advance to {time}: event pending at {next_time}"
            )
        self._now = time

    def _peek_time(self) -> Optional[float]:
        queue = self._queue
        while queue:
            record = queue[0]
            if _is_dead(record):
                heapq.heappop(queue)
                continue
            return record[0]
        return None


def _display_handle(record: Tuple) -> EventHandle:
    """A handle view of any record, for tie-breaker/choice display.

    Raw records get a throwaway handle carrying their time and label —
    choosers only read those two fields; firing goes through the record.
    """
    if len(record) == 4:
        return record[3]
    return EventHandle(record[0], record[3], record[5])


def call_soon(engine: Engine, callback: Callable[[], None], priority: int = 0) -> EventHandle:
    """Schedule ``callback`` at the current time (after pending same-time events)."""
    return engine.schedule(0.0, callback, priority)
