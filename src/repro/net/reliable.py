"""Reliable, ordered, exactly-once delivery over the lossy simulated wire.

The raw :class:`~repro.net.network.SimulatedNetwork` delivers whatever
the links carry — which, once :mod:`repro.chaos` is attached, includes
dropped, duplicated, reordered and corrupted frames. This module is the
end-to-end repair layer, modelled on the classic ARQ design:

- every application frame on a directed ``sender→recipient`` stream
  carries a **monotonic sequence number** and a **payload checksum**;
- the receiver **acks** each frame (tiny ``net_ack`` control frames that
  never reach application code), **drops duplicates** idempotently,
  **quarantines corrupt frames** (no ack — the sender retransmits), and
  **holds back out-of-order frames** so application code sees each
  stream exactly once, in order;
- the sender **retransmits on timeout** with exponential backoff under a
  bounded retry budget; exhausting the budget surfaces a typed
  :class:`~repro.errors.DeliveryFailed` to the sending node (via an
  ``on_delivery_failed`` hook) instead of livelocking — the guarantee
  that makes 100% loss a reportable condition, not a hang.

Liveness kinds (heartbeats, telemetry pushes) stay best-effort: a
retried heartbeat is a lie, and a lost telemetry diff is superseded by
the next one. They still get checksums, so corruption never crashes a
receiver.

All timers run on the shared :class:`~repro.net.simclock.SimClock`, so
retry schedules — and therefore every chaos experiment — are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.errors import DeliveryFailed
from repro.net.codec import checksum_of
from repro.obs import get_event_log, get_registry
from repro.obs.dtrace import HOP_RETRANSMIT, get_dtrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.message import Message
    from repro.net.network import SimulatedNetwork

#: Transport-level ack frame kind. Consumed by the network layer; no
#: node ever receives one.
NET_ACK = "net_ack"

#: Kinds that stay best-effort even when reliability is on (see module
#: docstring). ``net_ack`` itself must never be acked (ack-of-ack loop).
DEFAULT_UNRELIABLE_KINDS = (NET_ACK, "heartbeat", "telemetry", "telemetry_event")


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission and dedup-window configuration.

    With the defaults a frame is transmitted up to 7 times over
    ``0.2 * (2^7 - 1) ≈ 25`` simulated seconds before the sender gives
    up — generous enough to ride out a multi-second partition window,
    finite enough that total loss terminates.
    """

    base_timeout_s: float = 0.2
    backoff: float = 2.0
    max_attempts: int = 7
    ack_size_bytes: int = 16
    reorder_buffer: int = 512
    unreliable_kinds: tuple[str, ...] = DEFAULT_UNRELIABLE_KINDS

    def __post_init__(self) -> None:
        if self.base_timeout_s <= 0:
            raise ValueError(f"base_timeout_s must be > 0, got {self.base_timeout_s}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def timeout_after(self, attempt: int) -> float:
        """Backoff component of the timeout after transmission *attempt*
        (0-based). The transport adds its RTT estimate on top."""
        return self.base_timeout_s * (self.backoff**attempt)


def payload_checksum(kind: str, payload: Any) -> int:
    """Deterministic checksum over a frame's kind + canonical payload.

    The fallback for messages without a cached codec frame: crc32 over
    the canonical binary encoding (one ephemeral encode). Messages *with*
    a frame reuse ``Frame.checksum`` — computed once at encode time —
    and are verified by payload identity, costing zero re-encodes.
    """
    return checksum_of(kind, payload)


@dataclass
class _Outstanding:
    """Sender-side state of one unacked reliable frame."""

    message: "Message"
    attempts: int = 1  # transmissions so far
    acked: bool = False
    last_sent: float = 0.0  # sim time of the latest transmission


@dataclass
class _ReceiveState:
    """Receiver-side state of one directed stream: dedup + hold-back."""

    expected: int = 1
    buffer: dict[int, "Message"] = field(default_factory=dict)


class ReliableTransport:
    """ARQ layer owned by a :class:`SimulatedNetwork` (when enabled)."""

    def __init__(self, network: "SimulatedNetwork", policy: RetryPolicy) -> None:
        self._network = network
        self.policy = policy
        self._next_seq: dict[tuple[str, str], int] = {}
        self._outstanding: dict[tuple[str, str, int], _Outstanding] = {}
        self._recv: dict[tuple[str, str], _ReceiveState] = {}
        registry = get_registry()
        self._events = get_event_log()
        self._dtrace = get_dtrace()
        self._f_retries = registry.counter_family("net.retries", ("kind",))
        self._f_dup_dropped = registry.counter_family("net.dup_dropped", ("kind",))
        self._m_corrupt = registry.counter("net.corrupt_dropped")
        self._m_failed = registry.counter("net.delivery_failed")
        self._m_acks = registry.counter("net.acks")
        self._m_held = registry.counter("net.reorder_held")

    # ----- sender side ------------------------------------------------------------

    def is_reliable_kind(self, kind: str) -> bool:
        return kind not in self.policy.unreliable_kinds

    def prepare(self, message: "Message") -> "Message":
        """Stamp checksum (always) and seq (reliable kinds) onto a frame.

        Messages carrying a cached codec frame reuse its checksum — the
        encode already happened; the transport never encodes again.
        """
        if message.frame is not None:
            checksum = message.frame.checksum
        else:
            checksum = payload_checksum(message.kind, message.payload)
        if not self.is_reliable_kind(message.kind):
            return replace(message, checksum=checksum)
        stream = (message.sender, message.recipient)
        seq = self._next_seq.get(stream, 1)
        self._next_seq[stream] = seq + 1
        framed = replace(message, seq=seq, checksum=checksum)
        key = (framed.sender, framed.recipient, seq)
        self._outstanding[key] = _Outstanding(
            message=framed, last_sent=self._network.clock.now
        )
        self._arm_timer(key, attempt=0)
        return framed

    def _arm_timer(self, key: tuple[str, str, int], attempt: int) -> None:
        out = self._outstanding[key]
        timeout = self._estimate_rtt(out.message) + self.policy.timeout_after(attempt)
        self._network.clock.schedule(timeout, lambda: self._on_timeout(key))

    def _estimate_rtt(self, message: "Message") -> float:
        """Expected send→ack round trip, from the known link schedules.

        Without this a multi-second image transfer trips the fixed
        timeout and the sender pointlessly retransmits megabytes into an
        already-congested link. A real ARQ estimates RTT from samples;
        the simulation can read the same quantity off its own links.
        """
        network = self._network
        try:
            forward, _ = network._resolve_link(message.sender, message.recipient)
            reverse, _ = network._resolve_link(message.recipient, message.sender)
        except Exception:
            return 0.0  # endpoint vanished: timeout path handles it
        now = network.clock.now
        return (
            forward.queueing_delay(now)
            + forward.transmission_time(message.size_bytes)
            + forward.latency_s
            + reverse.queueing_delay(now)
            + reverse.transmission_time(self.policy.ack_size_bytes)
            + reverse.latency_s
        )

    def _on_timeout(self, key: tuple[str, str, int]) -> None:
        out = self._outstanding.get(key)
        if out is None or out.acked:
            return
        message = out.message
        if not self._network.has_node(message.sender):
            # The sender fail-stopped; a dead node retransmits nothing.
            self._outstanding.pop(key, None)
            return
        if not self._network.has_node(message.recipient):
            self._fail(key, out, reason="recipient_detached")
            return
        if out.attempts >= self.policy.max_attempts:
            self._fail(key, out, reason="retry_budget_exhausted")
            return
        out.attempts += 1
        now = self._network.clock.now
        self._f_retries.labels(message.kind).inc()
        self._events.emit(
            "net.retry",
            severity="DEBUG",
            at=now,
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            seq=message.seq,
            attempt=out.attempts,
        )
        dtrace = self._dtrace
        frame = message.frame
        if dtrace.enabled and frame is not None and frame.trace:
            # Each retransmission becomes a child span of the context the
            # frame carries — a *sibling* of the wire hop it repairs, so
            # the analyzer can carve backoff time out of that leg. The
            # span covers the wait since the previous transmission.
            for ctx in frame.trace:
                if ctx.trace_id:
                    dtrace.record_hop(
                        ctx, HOP_RETRANSMIT, message.sender, out.last_sent, now,
                        attempt=out.attempts - 1, kind=message.kind,
                    )
        out.last_sent = now
        self._network._transmit(replace(message, attempt=out.attempts - 1))
        self._arm_timer(key, attempt=out.attempts - 1)

    def _fail(self, key: tuple[str, str, int], out: _Outstanding, reason: str) -> None:
        self._outstanding.pop(key, None)
        message = out.message
        error = DeliveryFailed(
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            seq=message.seq or 0,
            attempts=out.attempts,
            reason=reason,
            payload=message.payload,
        )
        self._m_failed.inc()
        self._events.emit(
            "net.delivery_failed",
            severity="ERROR",
            at=self._network.clock.now,
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            seq=message.seq,
            attempts=out.attempts,
            reason=reason,
        )
        self._network.delivery_failures.append(error)
        sender = self._network._nodes.get(message.sender)
        hook = getattr(sender, "on_delivery_failed", None)
        if hook is not None:
            hook(error)

    def on_ack(self, ack: "Message") -> None:
        """An ack arrived (ack.sender is the *receiver* of the stream)."""
        if ack.checksum is not None and ack.checksum != payload_checksum(
            ack.kind, ack.payload
        ):
            self._m_corrupt.inc()  # corrupted ack: retransmit path handles it
            return
        seq = (ack.payload or {}).get("seq")
        key = (ack.recipient, ack.sender, seq)
        out = self._outstanding.pop(key, None)
        if out is not None:
            out.acked = True
            self._m_acks.inc()

    # ----- receiver side ----------------------------------------------------------

    def verify(self, message: "Message") -> bool:
        """Checksum check; False means the frame must be quarantined.

        Frames with a cached encoding verify by *identity*: the payload
        object delivered must be the one the frame encodes (retransmits
        preserve it; chaos corruption swaps it) and the stamped checksum
        must match the frame's — zero re-encoding on the hot path. The
        frameless fallback recomputes the canonical checksum.
        """
        if message.checksum is None:
            return True
        frame = message.frame
        if frame is not None:
            if message.payload is frame.payload and message.checksum == frame.checksum:
                return True
        elif message.checksum == payload_checksum(message.kind, message.payload):
            return True
        self._m_corrupt.inc()
        self._events.emit(
            "net.corrupt_dropped",
            severity="WARN",
            at=self._network.clock.now,
            sender=message.sender,
            recipient=message.recipient,
            kind=message.kind,
            seq=message.seq,
        )
        return False

    def on_frame(self, message: "Message") -> None:
        """Dedup, ack, and deliver a sequenced frame in stream order."""
        stream = (message.sender, message.recipient)
        state = self._recv.setdefault(stream, _ReceiveState())
        seq = message.seq
        assert seq is not None
        if seq < state.expected or seq in state.buffer:
            self._f_dup_dropped.labels(message.kind).inc()
            self._events.emit(
                "net.dup_dropped",
                severity="DEBUG",
                at=self._network.clock.now,
                sender=message.sender,
                recipient=message.recipient,
                kind=message.kind,
                seq=seq,
            )
            self._send_ack(message)  # the previous ack may have been lost
            return
        if seq - state.expected > self.policy.reorder_buffer:
            return  # hold-back overflow: no ack, the sender will retry
        if seq != state.expected:
            self._m_held.inc()
        state.buffer[seq] = message
        self._send_ack(message)
        while state.expected in state.buffer:
            frame = state.buffer.pop(state.expected)
            state.expected += 1
            self._network._hand_off(frame)

    def _send_ack(self, message: "Message") -> None:
        from repro.net.message import Message as _Message

        if not self._network.has_node(message.sender):
            return  # acking a dead sender is pointless
        body = {"seq": message.seq}
        ack = _Message(
            sender=message.recipient,
            recipient=message.sender,
            kind=NET_ACK,
            payload=body,
            size_bytes=self.policy.ack_size_bytes,
            checksum=payload_checksum(NET_ACK, body),
        )
        self._network._transmit(ack)

    # ----- introspection ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Reliable frames sent but not yet acked."""
        return len(self._outstanding)
