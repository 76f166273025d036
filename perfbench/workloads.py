"""The benchmark's three workloads and their seeded injection schedules.

Each workload is open loop in simulated time: the schedule of stimuli is
drawn up front from the benchmark seed with
:func:`repro.workloads.openloop.open_loop_times`, every stimulus carries its
due time ``t0``, and the harness receives the schedule through
:meth:`SimulationHarness.inject_at`.  Generator lag is therefore zero by
construction, and ``t0`` to output commit is the end-to-end latency.

- ``steady``: n=16, K=4, failure-free, in-memory storage, 3 stimuli/unit
  without bursts or diurnal swing -- the per-delivery path
  (Receive/Deliver, Check_deliverability, Send) on list-backed tables.
- ``wide``: n=1024, K=4, failure-free, full-table stability gossip to 8
  random peers per round, 8 stimuli/unit without bursts -- notification
  fan-in, dense numpy table merges and engine dispatch at scale.
- ``recovery``: n=16, adaptive K (k_max=8), file-log storage, 12 crashes
  in four clusters, the default bursty heavy-tailed arrivals at 1.2
  stimuli/unit, retransmit window 32 -- rollback, REDO restart, group
  commit and the K controller beside failure-free delivery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: One stimulus: (due time, destination pid, payload dict).
Stimulus = Tuple[float, int, dict]


@dataclass(frozen=True)
class Workload:
    """A fixed deployment plus the shape of its seeded open-loop traffic."""

    name: str
    n: int
    k: int
    #: Simulated horizon; stimuli stop at ``INSTALL_FRACTION`` of it so the
    #: last chains drain before settle.
    duration: float
    rate: float
    #: Distinct seeded schedules per benchmark run; the first runs twice.
    schedules: int
    #: Keyword arguments for ``open_loop_times`` (shape of the arrivals).
    arrivals: Dict[str, float] = field(default_factory=dict)
    #: (simulated time, pid) crash points.
    crashes: Tuple[Tuple[float, int], ...] = ()
    #: Extra ``SimConfig`` fields.
    config: Dict[str, object] = field(default_factory=dict)

    def sim_config(self, seed: int, storage_dir: Optional[str] = None):
        from repro.runtime.config import SimConfig

        extra = dict(self.config)
        if extra.get("storage_backend") == "filelog":
            extra["storage_dir"] = storage_dir
        return SimConfig(n=self.n, k=self.k, seed=seed, **extra)

    def failures(self):
        from repro.failures.injector import CrashEvent, FailureSchedule

        if not self.crashes:
            return FailureSchedule.none()
        return FailureSchedule([CrashEvent(t, pid) for t, pid in self.crashes])

    def schedule(self, seed: int) -> List[Stimulus]:
        """The seeded stimulus schedule (same seed, same list)."""
        from repro.workloads.openloop import open_loop_times

        rng = random.Random(f"perfbench/{self.name}/{seed}")
        stimuli = []
        until = self.duration * INSTALL_FRACTION
        for token, t0 in enumerate(
                open_loop_times(rng, self.rate, until, **self.arrivals)):
            stimuli.append((t0, rng.randrange(self.n), {
                "token": token,
                "hops": rng.randint(2, 6),
                # Every other chain ends in an output: a coin flip per
                # chain would spread outputs per delivery by a few
                # percent between seeds.
                "emit_output": token % 2 == 0,
                "t0": t0,
            }))
        return stimuli


INSTALL_FRACTION = 0.8

#: Finite-variance Pareto gaps without bursts or diurnal swing: the offered
#: load, and with it every per-delivery ratio, varies little between seeds.
_SMOOTH = {"alpha": 2.5, "diurnal_amplitude": 0.0, "burst_probability": 0.0}


def _clusters(duration: float) -> Tuple[Tuple[float, int], ...]:
    """Four clusters of three closely spaced crashes each."""
    starts = (0.15, 0.35, 0.55, 0.72)
    pids = ((3, 9, 13), (5, 12, 2), (7, 0, 10), (14, 6, 11))
    return tuple(
        (duration * (start + 0.01 * i), pid)
        for start, group in zip(starts, pids)
        for i, pid in enumerate(group)
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("steady", n=16, k=4, duration=1500.0, rate=3.0,
                 schedules=4, arrivals=_SMOOTH),
        Workload("wide", n=1024, k=4, duration=120.0, rate=8.0,
                 schedules=3, arrivals=_SMOOTH,
                 config={"notify_fanout": 8}),
        Workload("recovery", n=16, k=8, duration=2400.0, rate=1.2,
                 schedules=2, crashes=_clusters(2400.0),
                 config={"storage_backend": "filelog",
                         "retransmit_window": 32, "adaptive_k": True,
                         "k_max": 8, "slo_output_latency": 90.0,
                         "control_interval": 10.0}),
    )
}
