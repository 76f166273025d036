"""Wire-level message types.

Three kinds of traffic exist in the paper's system:

- **application messages** (solid lines in Figure 1) — carry a payload plus
  the sender's piggybacked dependency vector ``m.tdv``;
- **rollback / failure announcements** (dotted lines, ``r_1``) — carry the
  ending index of a rolled-back incarnation;
- **logging progress notifications** — broadcast which state intervals have
  become stable.

Application messages are *mutable while buffered*: Check_send_buffer
nullifies entries of ``m.tdv`` in place as logging progress arrives, and the
message is released only when at most K non-NULL entries remain.  Once on
the wire the vector is never modified again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.types import IncarnationId, IntervalIndex, MessageId, ProcessId

_wire_counter = itertools.count()


@dataclass
class AppMessage:
    """An application message with its piggybacked dependency vector."""

    msg_id: MessageId
    src: ProcessId
    dst: ProcessId
    payload: Any
    tdv: DependencyVector
    #: Interval the message was sent from (for tracing / the oracle).
    send_interval: Entry = None  # type: ignore[assignment]
    #: True when regenerated by deterministic replay after a failure.
    replayed: bool = False
    #: Unique per-transmission id (distinguishes duplicates in traces).
    #: Names a transmission, not the message: not compared, not pickled.
    wire_id: int = field(default_factory=lambda: next(_wire_counter),
                         compare=False)
    #: Deliverability flag maintained by Check_deliverability (``m.deliver``).
    deliver: bool = False
    #: Per-message degree of optimism (Section 4.2); ``None`` = system K.
    k_limit: Optional[int] = None

    def __getstate__(self) -> Dict[str, Any]:
        # ``wire_id`` names one in-memory transmission, not the message:
        # it is left out of every pickle (journal records, pipes between
        # parallel workers) and redrawn on load, so journal bytes do not
        # depend on how many messages this interpreter numbered before,
        # and a loaded message never collides with a live one.
        state = dict(self.__dict__)
        del state["wire_id"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.wire_id = next(_wire_counter)

    def piggyback_size(self) -> int:
        """Non-NULL entries carried — the per-message cost K controls."""
        return self.tdv.non_null_count()

    def __str__(self) -> str:
        return f"{self.msg_id}[{self.src}->{self.dst}] tdv={self.tdv!r}"


@dataclass(frozen=True)
class FailureAnnouncement:
    """A rollback announcement broadcast by a *failed* process (Theorem 1).

    ``end`` is the ending index of the failed incarnation: interval
    ``(end.inc, end.sii)`` is the last surviving (stable) interval; every
    interval beyond it — of that or any earlier incarnation — is lost.
    """

    origin: ProcessId
    end: Entry

    def __str__(self) -> str:
        return f"r[{self.origin}: inc {self.end.inc} ended at {self.end.sii}]"


@dataclass(frozen=True)
class LogProgressNotification:
    """A logging progress notification.

    ``table`` is a snapshot of the sender's ``log`` table — a columnar
    :class:`~repro.core.tables.TableSnapshot` in-process, or the legacy
    one-dict-per-process form when it crossed the wire codec.  Receive_log
    merges every entry (the pseudo-code iterates over all ``j``), so
    notifications gossip stability information transitively.
    """

    origin: ProcessId
    table: Any  # TableSnapshot | List[Dict[IncarnationId, IntervalIndex]]

    def __str__(self) -> str:
        return f"log-progress[from P{self.origin}]"


@dataclass(frozen=True)
class LoggingRequest:
    """Output-driven logging (Section 2): ``origin`` holds an output whose
    commit is blocked on this process's logging progress and asks it to
    flush now rather than at the next periodic flush."""

    origin: ProcessId

    def __str__(self) -> str:
        return f"log-request[from P{self.origin}]"


@dataclass(frozen=True)
class ControlEnvelope:
    """Reliable-delivery wrapper for control traffic.

    When the network is unreliable, control messages that *must* arrive
    (failure announcements) are wrapped in an envelope carrying a
    per-sender sequence number.  The receiving transport endpoint
    acknowledges every envelope (including duplicates — the ack itself may
    have been lost) and deduplicates by ``(src, seq)`` before handing the
    payload to the protocol.
    """

    seq: int
    src: ProcessId
    dst: ProcessId
    payload: Any

    def __str__(self) -> str:
        return f"env#{self.seq}[{self.src}->{self.dst}] {self.payload}"


@dataclass(frozen=True)
class ControlAck:
    """Transport-level acknowledgement of a :class:`ControlEnvelope`."""

    seq: int
    src: ProcessId  # the acknowledging process
    dst: ProcessId  # the envelope's original sender

    def __str__(self) -> str:
        return f"ctl-ack#{self.seq}[{self.src}->{self.dst}]"


@dataclass(frozen=True)
class AppAck:
    """Transport-level acknowledgement of an application message.

    Sent by the destination's live transport endpoint on arrival; the
    sender's protocol layer stops the retransmission timer for
    ``msg_id`` when it arrives (``on_ack``).  A crashed destination acks
    nothing — its transport died with it — so the sender keeps retrying
    until the restarted process answers.
    """

    msg_id: MessageId
    src: ProcessId  # the acknowledging process
    dst: ProcessId  # the message's original sender

    def __str__(self) -> str:
        return f"app-ack[{self.msg_id}]"


@dataclass(frozen=True)
class OutputRecord:
    """An outside-world output waiting in (or released from) the
    Output_buffer.  Outputs are 0-optimistic messages (Section 4.2)."""

    output_id: Any
    process: ProcessId
    payload: Any
    send_interval: Entry

    def __str__(self) -> str:
        return f"{self.output_id} from {self.send_interval}_{self.process}"
