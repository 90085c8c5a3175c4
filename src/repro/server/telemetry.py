"""The monitor channel the interaction server and every gateway offer."""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.server.protocol import MessageKind
from repro.server.session import Session


class TelemetryPublisher:
    """Monitor sessions and the push they receive: a ``TELEMETRY`` metric
    diff since the last push plus buffered events as ``TELEMETRY_EVENT``s.

    Pushes ride host activity, at most one per ``interval`` clock seconds;
    the event subscription and metric baseline exist only while a monitor
    is connected. ``send(node_id, kind, body)`` is the host's delivery
    (``None`` in direct mode: a push only counts and drains).
    """

    def __init__(self, ids: Any, now: Callable[[], float], send: Callable | None) -> None:
        self._ids = ids
        self._now = now
        self._send = send
        self._registry = obs.get_registry()
        self._events = obs.get_event_log()
        self._monitors: dict[str, Session] = {}
        self._pending_events: list[dict[str, Any]] = []
        self._baseline: dict[str, Any] | None = None
        self._last_push_at: float | None = None
        self.interval = 0.0

    def __contains__(self, session_id: object) -> bool:
        return session_id in self._monitors

    def __len__(self) -> int:
        return len(self._monitors)

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._monitors)

    def connect(self, viewer_id: str, node_id: str) -> Session:
        session = Session(
            self._ids.next("monitor"), viewer_id, node_id=node_id, kind="monitor"
        )
        if not self._monitors:
            self._events.subscribe(self._on_event)
            self._baseline = self._registry.snapshot()
        self._monitors[session.session_id] = session
        return session

    def disconnect(self, session_id: str) -> bool:
        """Close one monitor session; ``False`` if it is not a monitor."""
        if self._monitors.pop(session_id, None) is None:
            return False
        if not self._monitors:
            self._events.unsubscribe(self._on_event)
            self._pending_events.clear()
            self._baseline = None
        return True

    def _on_event(self, event: Any) -> None:
        self._pending_events.append(event.to_dict())

    def push(self, force: bool = True) -> int:
        """Push to every monitor (``force=False``: throttled); returns
        the number of monitors reached."""
        if not self._monitors:
            return 0
        now = self._now()
        if not force and self._last_push_at is not None:
            if now - self._last_push_at < self.interval:
                return 0
        self._last_push_at = now
        current = self._registry.snapshot()
        delta = obs.diff(self._baseline or {}, current)
        self._baseline = current
        events, self._pending_events = self._pending_events, []
        if self._send is not None:
            for monitor in self._monitors.values():
                body = {"session_id": monitor.session_id, "at": now, "diff": delta}
                self._send(monitor.node_id, MessageKind.TELEMETRY, body)
                for event in events:
                    body = {"session_id": monitor.session_id, "event": event}
                    self._send(monitor.node_id, MessageKind.TELEMETRY_EVENT, body)
        return len(self._monitors)
