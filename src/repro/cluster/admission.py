"""The admission gate in front of the cluster's serial service queues.

Each shard, and each gateway with a routing capacity, builds one
:class:`AdmissionGate` around its ``ServiceQueue`` and hands it every
inbound op. Unguarded, a flash crowd becomes unbounded queueing; the
gate's optional :class:`AdmissionController` turns it into bounded
deferral, deciding on the queue's pending depth:

* **Priority lanes.** Control-plane traffic (heartbeats, PROMOTE, ACK,
  ROUTE envelopes, LEAVE) is always admitted — shedding a heartbeat
  would fake a death and trigger a spurious failover, and shedding a
  LEAVE would leak the session. JOINs are *deferred* (parked FIFO,
  resumed as the queue drains) before data ops are *shed* (bounced to
  the sender with a typed ``RETRY_AFTER`` and a deterministic backoff
  hint).
* **The shed floor.** Parked-kind client ops carry an ``op_seq`` and the
  shard dedups on a highest-seq watermark, so shedding op *n* while
  admitting *n+1* would make the client's retry of *n* look like a
  duplicate and silently drop it. Once an op of a session is shed, every
  later op of that session is shed too until the shed seq returns —
  the fence stays gap-free.

``admission=None`` (the default everywhere) builds a gate without a
controller: every op is queued, nothing is counted, deferred or shed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.obs.dtrace import HOP_SHED_WAIT, get_dtrace
from repro.server.protocol import MessageKind

#: admission lanes, in strictly decreasing priority
LANE_CONTROL = "control"
LANE_JOIN = "join"
LANE_DATA = "data"

#: client kinds that may be shed under overload (everything carrying an
#: op_seq, plus reads). LEAVE is deliberately absent: dropping a leave
#: leaks the session server-side, so it rides the control lane.
_DATA_KINDS = frozenset(
    {
        MessageKind.CHOICE,
        MessageKind.OPERATION,
        MessageKind.ANNOTATE,
        MessageKind.FREEZE,
        MessageKind.RELEASE,
        MessageKind.FETCH_PAYLOAD,
        MessageKind.SUBSCRIBE,
        MessageKind.UNSUBSCRIBE,
    }
)


def lane_of(kind: str) -> str:
    """The admission lane for one message kind.

    Anything not explicitly a join or sheddable data op — heartbeats,
    PROMOTE, ACK, ROUTE envelopes, monitor traffic, LEAVE — is control
    plane and can never be deferred or shed.
    """
    if kind == MessageKind.JOIN:
        return LANE_JOIN
    if kind in _DATA_KINDS:
        return LANE_DATA
    return LANE_CONTROL


@dataclass(frozen=True)
class AdmissionConfig:
    """Thresholds for one admission controller.

    Depths count ops pending in the guarded queue. ``depth_defer`` is
    where JOINs start parking; ``depth_shed`` is where data ops start
    bouncing. ``defer_limit`` bounds the parking lot itself —
    beyond it JOINs are bounced like data ops, so no queue in the system
    grows without bound. ``retry_after_s`` floors the backoff hint
    carried by ``RETRY_AFTER``.
    """

    depth_defer: int = 16
    depth_shed: int = 64
    defer_limit: int = 256
    retry_after_s: float = 0.25

    def __post_init__(self) -> None:
        if self.depth_defer <= 0:
            raise ValueError(f"depth_defer must be > 0, got {self.depth_defer}")
        if self.depth_shed < self.depth_defer:
            raise ValueError(
                f"depth_shed ({self.depth_shed}) must be >= depth_defer "
                f"({self.depth_defer}): joins defer before data sheds"
            )
        if self.defer_limit <= 0:
            raise ValueError(f"defer_limit must be > 0, got {self.defer_limit}")
        if self.retry_after_s <= 0:
            raise ValueError(f"retry_after_s must be > 0, got {self.retry_after_s}")


#: admission verdicts
ACCEPT = "accept"
DEFER = "defer"
SHED = "shed"


def retry_after_body(
    kind: str, payload: Any, after_s: float, node_id: str
) -> dict[str, Any]:
    """The ``RETRY_AFTER`` body bounced back for one shed op.

    Echoes enough identity for the client to retry correctly: a JOIN
    retries by ``doc_id``, a parked op by its ``op_seq`` against the
    client's own op log, and an op_seq-less read gets its whole payload
    back for verbatim re-dispatch.
    """
    body: dict[str, Any] = {
        "kind": kind,
        "after_s": after_s,
        "reason": "shed",
        "node": node_id,
    }
    if isinstance(payload, dict):
        for key in ("doc_id", "viewer_id", "session_id", "op_seq"):
            if key in payload:
                body[key] = payload[key]
        if kind != MessageKind.JOIN and "op_seq" not in payload:
            body["data"] = payload
    return body


@dataclass(frozen=True)
class Decision:
    """One admission verdict plus the backoff hint a bounce carries."""

    action: str
    retry_after_s: float = 0.0


_ACCEPTED = Decision(ACCEPT)


class AdmissionController:
    """Admission policy for one serial queue (shard or gateway).

    :meth:`admit` decides one inbound message's fate from the queue's
    depth; deferred items wait FIFO in the controller's parking lot
    (:meth:`park`) until :meth:`unpark` finds headroom again. The
    :class:`AdmissionGate` in front of the queue drives both.
    """

    def __init__(self, node_id: str, queue: Any, config: AdmissionConfig) -> None:
        self.node_id = node_id
        self.queue = queue
        self.config = config
        self._parked: deque[Any] = deque()
        #: session -> lowest shed op_seq; later seqs shed until it returns
        self._shed_floor: dict[str, int] = {}
        registry = obs.get_registry()
        self._f_accepted = registry.counter_family("admission.accepted", ("node", "lane"))
        self._f_deferred = registry.counter_family("admission.deferred", ("node", "lane"))
        self._f_shed = registry.counter_family("admission.shed", ("node", "lane"))
        self._g_depth = registry.gauge_family("admission.queue_depth", ("node",)).labels(
            node_id
        )
        self._g_parked = registry.gauge_family(
            "admission.deferred_depth", ("node",)
        ).labels(node_id)
        # Plain-attribute mirrors so tests and benchmark reports can read
        # per-controller tallies without going through the registry.
        self.accepted = 0
        self.deferred = 0
        self.shed = 0
        self.shed_by_lane: dict[str, int] = {}
        self.resumed = 0
        self.dropped_dead = 0
        self.max_depth_seen = 0

    # ----- admission --------------------------------------------------------------

    def admit(
        self,
        kind: str,
        *,
        session_id: str | None = None,
        op_seq: int | None = None,
    ) -> Decision:
        """Decide one inbound message's fate. Control always passes."""
        lane = lane_of(kind)
        depth = self.queue.pending
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        self._g_depth.set(depth)
        if lane == LANE_CONTROL:
            return self._accept(lane)
        if lane == LANE_DATA and session_id is not None and op_seq is not None:
            floor = self._shed_floor.get(session_id)
            if floor is not None and op_seq > floor:
                # An earlier op of this session was shed; admitting this
                # one would advance the dedup fence past the hole and the
                # retried op would be dropped as a duplicate. Shed until
                # the floor seq comes back.
                return self._shed(lane)
        if lane == LANE_JOIN:
            if depth < self.config.depth_defer:
                return self._accept(lane)
            if len(self._parked) >= self.config.defer_limit:
                return self._shed(lane)
            self.deferred += 1
            self._f_deferred.labels(self.node_id, lane).inc()
            return Decision(DEFER, self._hint(depth, self.config.depth_defer))
        # data lane
        if depth < self.config.depth_shed:
            decision = self._accept(lane)
            if session_id is not None and op_seq is not None:
                floor = self._shed_floor.get(session_id)
                if floor is not None and op_seq >= floor:
                    del self._shed_floor[session_id]  # the hole is plugged
            return decision
        if session_id is not None and op_seq is not None:
            floor = self._shed_floor.get(session_id)
            if floor is None or op_seq < floor:
                self._shed_floor[session_id] = op_seq
        return self._shed(lane)

    def _accept(self, lane: str) -> Decision:
        self.accepted += 1
        self._f_accepted.labels(self.node_id, lane).inc()
        return _ACCEPTED

    def _shed(self, lane: str) -> Decision:
        self.shed += 1
        self.shed_by_lane[lane] = self.shed_by_lane.get(lane, 0) + 1
        self._f_shed.labels(self.node_id, lane).inc()
        return Decision(SHED, self._hint(self.queue.pending, self.config.depth_defer))

    def _hint(self, depth: int, threshold: int) -> float:
        """Deterministic backoff hint: time to drain back under threshold."""
        rate = self.queue.rate
        excess = max(0, depth - threshold) + 1
        drain_s = excess / rate if rate else 0.0
        return max(self.config.retry_after_s, drain_s)

    # ----- the parking lot --------------------------------------------------------

    def park(self, item: Any) -> None:
        """FIFO-park one deferred item until :meth:`unpark` releases it."""
        self._parked.append(item)
        self._g_parked.set(len(self._parked))

    def unpark(self) -> Any:
        """The oldest parked item once the queue has headroom again
        (pending below ``depth_defer``); else ``None``."""
        if not self._parked or self.queue.pending >= self.config.depth_defer:
            return None
        parked = self._parked.popleft()
        self._g_parked.set(len(self._parked))
        self.resumed += 1
        return parked

    def drop_parked(self) -> None:
        """Account one resumed item whose sender is gone (zero residue)."""
        self.resumed -= 1
        self.dropped_dead += 1

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    # ----- session lifecycle ------------------------------------------------------

    def forget_session(self, session_id: str | None) -> None:
        """Clear the shed floor when a session ends (LEAVE or cleanup)."""
        if session_id is not None:
            self._shed_floor.pop(session_id, None)

    def shed_floor(self, session_id: str) -> int | None:
        return self._shed_floor.get(session_id)

    # ----- introspection ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "accepted": self.accepted,
            "deferred": self.deferred,
            "shed": self.shed,
            "shed_by_lane": dict(self.shed_by_lane),
            "resumed": self.resumed,
            "dropped_dead": self.dropped_dead,
            "parked": len(self._parked),
            "max_depth_seen": self.max_depth_seen,
            "shed_floors": len(self._shed_floor),
        }


class AdmissionGate:
    """The one inbound path in front of a node's serial service queue.

    The owner hands :meth:`submit` every inbound op with a zero-argument
    *dispatch*. With a controller the op is admitted, parked, or bounced
    via ``bounce(sender, RETRY_AFTER, body)``; after each served op the
    gate resumes parked ops FIFO while the queue has headroom. A traced
    op records its queue wait as a *hop* span, and a resumed one first
    its parked time as ``shed_wait``.
    """

    def __init__(
        self, node_id: str, network: Any, queue: Any, config: AdmissionConfig | None,
        *, hop: str, bounce: Callable[[str, str, dict[str, Any]], None],
    ) -> None:
        self.node_id = node_id
        self.queue = queue
        self.controller = (
            AdmissionController(node_id, queue, config) if config is not None else None
        )
        self._network = network
        self._hop = hop
        self._bounce = bounce
        self._dtrace = get_dtrace()
        self._events = obs.get_event_log()
        self._pumping = False

    def submit(
        self, sender: str, kind: str, payload: dict[str, Any], dispatch: Callable[[], None]
    ) -> None:
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        controller = self.controller
        if controller is not None:
            session_id = payload.get("session_id")
            decision = controller.admit(kind, session_id=session_id, op_seq=payload.get("op_seq"))
            if decision.action == DEFER:
                controller.park((sender, kind, dispatch, ctx, self._network.clock.now))
                return
            if decision.action == SHED:
                after_s = decision.retry_after_s
                self._emit("admission.shed", sender=sender, kind=kind, after_s=after_s)
                body = retry_after_body(kind, payload, after_s, self.node_id)
                self._bounce(sender, MessageKind.RETRY_AFTER, body)
                return
            if kind == MessageKind.LEAVE:
                controller.forget_session(session_id)
        self._queue_op(kind, dispatch, ctx)

    def _queue_op(self, kind: str, dispatch: Callable[[], None], ctx: Any) -> None:
        # Capture the context now: the hop span covers the whole wait.
        enqueued = self._network.clock.now

        def serve() -> None:
            if ctx is None:
                dispatch()
            else:
                advanced = self._dtrace.record_hop(
                    ctx, self._hop, self.node_id, enqueued,
                    self._network.clock.now, kind=kind,
                )
                with self._dtrace.inbound(advanced):
                    dispatch()
            if self.controller is not None:
                self._pump()

        self.queue.submit(serve)

    def _pump(self) -> None:
        # At infinite service rate a resumed op is served synchronously
        # and re-enters here; the guard keeps the resume order FIFO.
        if self._pumping:
            return
        self._pumping = True
        network = self._network
        try:
            while (parked := self.controller.unpark()) is not None:
                sender, kind, dispatch, ctx, parked_at = parked
                if not network.has_node(self.node_id):
                    continue  # the node crashed (fail-stop detaches it)
                if not network.has_node(sender):
                    # The parked client left before capacity freed up:
                    # drop with zero residue — nothing was applied.
                    self.controller.drop_parked()
                    self._emit("admission.deferred_dropped", sender=sender, kind=kind)
                    continue
                if ctx is not None:
                    ctx = self._dtrace.record_hop(
                        ctx, HOP_SHED_WAIT, self.node_id, parked_at,
                        network.clock.now, kind=kind,
                    )
                self._queue_op(kind, dispatch, ctx)
        finally:
            self._pumping = False

    def _emit(self, name: str, **fields: Any) -> None:
        self._events.emit(name, at=self._network.clock.now, node=self.node_id, **fields)
