"""The benchmark's three workloads: input plans, the loops that run them, the oracle.

Every workload is generated from one integer seed into a *plan* (the
documents plus the op stream), driven through the public cluster, client
and db API (``ClusterHarness``, ``ClientModule``,
``MultimediaObjectStore``) by this module's own loops, and checked
against the paper's single-server oracle: one ``InteractionServer`` fed
the same ops under ``interpreted_mode()``.

* ``lecture`` — 4 rooms x 32 members; one speaker per room issues its
  ``consultation_events`` stream. Closed loop: one op in flight, then
  ``harness.run()`` to quiescence. Per-member fan-out dominates.
* ``clinic`` — 32 rooms x 3 members, every member acts in turn. About one
  op in eight is a §4.2 edit (half of them global), half of the choices
  are personal, and one step in sixteen is a leave/rejoin. Closed loop.
  Writes keep bumping structure versions.
* ``megaconf`` — a conference day from ``build_conference_schedule``
  (4 tracks x 8 waves x 8 attendees, then a keynote flash crowd) on a
  finite service rate with admission control. Open loop on the simulated
  clock: the whole day is plotted first, then run.

Neither loop calls ``run_cluster_conference`` or ``run_megaconf``,
so a change to ``repro.workloads`` cannot change what is measured except
through the generators pinned by ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.cpnet import interpreted_mode
from repro.db import Database, MultimediaObjectStore
from repro.document.component import PrimitiveMultimediaComponent
from repro.document.serialize import document_to_dict
from repro.net import Link
from repro.server.interaction import InteractionServer
from repro.workloads.megaconf import build_conference_schedule
from repro.workloads.records import generate_record
from repro.workloads.sessions import consultation_events

WORKLOADS = ("lecture", "clinic", "megaconf")

#: Every workload runs on the gateway tier.
SHARDS = 4
GATEWAYS = 2
#: Bandwidth of every shard/gateway/directory link. Each shard-to-gateway
#: link carries the payload bytes of every member behind that gateway; at
#: the network's 10 Mbit/s default it backs up by seconds of simulated
#: time, and on ``megaconf`` a JOIN_ACK queued behind it can keep a
#: speaker out of its whole slot.
BACKBONE_BPS = 1e9

LECTURE_ROOMS = 4
LECTURE_MEMBERS = 32
LECTURE_CHOICES_PER_ROOM = 64

CLINIC_ROOMS = 32
CLINIC_MEMBERS = 3
CLINIC_OPS = 1024
CLINIC_EDIT_SHARE = 1 / 8
CLINIC_REJOIN_SHARE = 1 / 16

#: E17's conference day, scaled to 4 tracks x 8 waves x 8 attendees.
MEGACONF_SCHEDULE = dict(
    tracks=4,
    slots_per_track=8,
    attendees_per_session=8,
    session_s=4.0,
    join_window_s=3.0,
    keynote_window_s=0.25,
    keynote_s=8.0,
    events_per_session=4,
    keynote_events=8,
)
MEGACONF_SERVICE_RATE = 60.0
MEGACONF_ADMISSION = AdmissionConfig(
    depth_defer=8, depth_shed=16, defer_limit=256, retry_after_s=0.25
)
#: How long a speaker whose join is still deferred waits before retrying.
SPEAKER_RETRY_S = 0.25

DOC_SECTIONS = 2
DOC_COMPONENTS_PER_SECTION = 3


@dataclass
class Plan:
    """One workload's generated inputs: documents, clients and ops.

    Closed-loop ops are tuples ``(kind, viewer, *args)`` with kind one of
    ``join``/``choose``/``operate``/``leave``; ``final_leaves`` run after
    the displays are checked. ``megaconf`` carries its schedule and the
    per-room choice streams instead.
    """

    workload: str
    seed: int
    docs: list[Any]
    config: ClusterConfig
    viewers: list[str] = field(default_factory=list)
    ops: list[tuple] = field(default_factory=list)
    final_leaves: list[tuple] = field(default_factory=list)
    schedule: Any = None
    streams: dict[str, list[tuple[str, str]]] = field(default_factory=dict)


def _record(doc_id: str, seed: int):
    return generate_record(
        doc_id,
        sections=DOC_SECTIONS,
        components_per_section=DOC_COMPONENTS_PER_SECTION,
        seed=seed,
    )


def _primitives(document) -> list[str]:
    return [
        path
        for path, node in document.components().items()
        if isinstance(node, PrimitiveMultimediaComponent)
    ]


def plan_lecture(seed: int) -> Plan:
    docs = [_record(f"lecture-{r}", seed * 1000 + r) for r in range(LECTURE_ROOMS)]
    config = ClusterConfig(shards=SHARDS, gateways=GATEWAYS, interest_mode="cpnet")
    plan = Plan("lecture", seed, docs, config)
    for doc in docs:
        for member in range(LECTURE_MEMBERS):
            viewer = f"{doc.doc_id}-m{member}"
            plan.viewers.append(viewer)
            plan.ops.append(("join", viewer, doc.doc_id))
    streams = [
        consultation_events(
            doc, num_events=LECTURE_CHOICES_PER_ROOM, seed=seed * 1000 + 500 + r
        )
        for r, doc in enumerate(docs)
    ]
    for step in range(max(len(s) for s in streams)):
        for doc, stream in zip(docs, streams):
            if step < len(stream):
                path, value = stream[step]
                plan.ops.append(("choose", f"{doc.doc_id}-m0", path, value, "shared"))
    plan.final_leaves = [("leave", viewer) for viewer in plan.viewers]
    return plan


def plan_clinic(seed: int) -> Plan:
    rng = random.Random(seed)
    docs = [_record(f"clinic-{r}", seed * 1000 + r) for r in range(CLINIC_ROOMS)]
    config = ClusterConfig(shards=SHARDS, gateways=GATEWAYS, interest_mode="cpnet")
    plan = Plan("clinic", seed, docs, config)
    members = {
        doc.doc_id: [f"{doc.doc_id}-m{m}" for m in range(CLINIC_MEMBERS)] for doc in docs
    }
    for doc in docs:
        for viewer in members[doc.doc_id]:
            plan.viewers.append(viewer)
            plan.ops.append(("join", viewer, doc.doc_id))
    primitives = {doc.doc_id: _primitives(doc) for doc in docs}
    edits = {doc.doc_id: 0 for doc in docs}
    step = 0
    while len(plan.ops) < CLINIC_OPS:
        doc = docs[step % CLINIC_ROOMS]
        viewer = members[doc.doc_id][(step // CLINIC_ROOMS) % CLINIC_MEMBERS]
        step += 1
        path = rng.choice(primitives[doc.doc_id])
        draw = rng.random()
        if draw < CLINIC_EDIT_SHARE:
            # Operation names are unique per room, so neither a global
            # nor a personal edit can collide with an existing variable.
            edits[doc.doc_id] += 1
            name = f"note{edits[doc.doc_id]}"
            plan.ops.append(("operate", viewer, path, name, rng.random() < 0.5))
        elif draw < CLINIC_EDIT_SHARE + CLINIC_REJOIN_SHARE:
            plan.ops.append(("leave", viewer))
            plan.ops.append(("join", viewer, doc.doc_id))
        else:
            value = rng.choice(doc.network.variable(path).domain)
            scope = "personal" if rng.random() < 0.5 else "shared"
            plan.ops.append(("choose", viewer, path, value, scope))
    plan.final_leaves = [("leave", viewer) for viewer in plan.viewers]
    return plan


def plan_megaconf(seed: int) -> Plan:
    schedule = build_conference_schedule(**MEGACONF_SCHEDULE)
    docs = [_record(slot.doc_id, seed * 1000 + i) for i, slot in enumerate(schedule.slots)]
    config = ClusterConfig(
        shards=SHARDS,
        gateways=GATEWAYS,
        service_rate=MEGACONF_SERVICE_RATE,
        admission=MEGACONF_ADMISSION,
    )
    plan = Plan("megaconf", seed, docs, config, schedule=schedule)
    plan.viewers = list(schedule.attendees)
    for i, (slot, doc) in enumerate(zip(schedule.slots, docs)):
        plan.streams[slot.doc_id] = consultation_events(
            doc, num_events=max(1, slot.events), seed=seed * 1000 + 500 + i
        )[: slot.events]
    return plan


PLANNERS = {"lecture": plan_lecture, "clinic": plan_clinic, "megaconf": plan_megaconf}


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return PLANNERS[workload](seed)


def digest(plan: Plan) -> str:
    """SHA-256 over the plan's documents and op stream (input pinning)."""
    body = {
        "docs": [document_to_dict(doc) for doc in plan.docs],
        "viewers": plan.viewers,
        "ops": [list(op) for op in plan.ops + plan.final_leaves],
        "slots": [
            [s.doc_id, s.start_s, s.join_window_s, s.duration_s, list(s.attendees), s.events]
            for s in (plan.schedule.slots if plan.schedule is not None else ())
        ],
        "streams": {doc: [list(e) for e in events] for doc, events in plan.streams.items()},
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_documents(directory: str, plan: Plan) -> tuple[Database, MultimediaObjectStore]:
    """A fresh database under *directory* holding the plan's documents."""
    db = Database(directory)
    store = MultimediaObjectStore(db)
    for doc in plan.docs:
        store.store_document(doc)
    return db, store


# ----- results ----------------------------------------------------------------------


@dataclass
class RunResult:
    """What one driven repetition measured (wall samples in ms)."""

    attempted: int = 0
    completed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    wall_ms: dict[str, list[float]] = field(default_factory=dict)
    sim_ms: dict[str, list[float]] = field(default_factory=dict)
    timed_s: float = 0.0
    events: int = 0
    displays: dict[str, dict[str, str]] = field(default_factory=dict)
    checked: list[tuple[str, str, dict[str, str]]] = field(default_factory=list)
    late_joins: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failures[reason] = self.failures.get(reason, 0) + count

    def sample(self, kind: str, wall_s: float | None, sim_s: float | None) -> None:
        if wall_s is not None:
            self.wall_ms.setdefault(kind, []).append(wall_s * 1e3)
        if sim_s is not None:
            self.sim_ms.setdefault(kind, []).append(sim_s * 1e3)


#: Closed-loop ops, or simulated seconds of the open loop, between two
#: runs of the reference loop.
CHECKPOINT_OPS = 16
CHECKPOINT_SIM_S = 1.0
_REFERENCE_KEYS = tuple(f"section{i % 7}.item{i}" for i in range(1500))
_REFERENCE_BLOCK = bytes(range(256)) * 1024


def reference_loop() -> float:
    """Wall seconds of a fixed piece of Python work: the machine's speed now.

    Half interpreter work (string-keyed dict updates, tuple allocation, a
    sort), half byte copying, like the program itself, whose dispatch
    and whose frame and payload bytes slow down differently when the
    machine is shared.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    pairs = []
    for index, key in enumerate(_REFERENCE_KEYS):
        counts[key[:8]] = counts.get(key[:8], 0) + 1
        pairs.append((key, index))
    pairs.sort(reverse=True)
    buffer = bytearray()
    for _ in range(4):
        buffer += _REFERENCE_BLOCK
        bytes(buffer)
    return time.perf_counter() - started


class Meter:
    """Accumulates the wall time of the timed phases.

    Between timed stretches, :meth:`checkpoint` runs the reference loop,
    so the speed of a shared machine is sampled all through the run.
    A span recorder, when given, records only while a phase is timed,
    and tags its spans with the index of the op being driven.
    """

    def __init__(self, recorder: Any = None) -> None:
        self.timed_s = 0.0
        self.reference_s: list[float] = []
        self.recorder = recorder
        self._started = 0.0

    def start(self) -> None:
        if self.recorder is not None:
            self.recorder.active = True
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.timed_s += time.perf_counter() - self._started
        if self.recorder is not None:
            self.recorder.active = False

    def op(self, index: int) -> None:
        if self.recorder is not None:
            self.recorder.op = index

    def checkpoint(self) -> None:
        self.stop()
        self.reference_s.append(reference_loop())
        self.start()


def build_harness(plan: Plan, store: MultimediaObjectStore):
    harness = ClusterHarness(store, plan.config)
    network = harness.network
    for sender in network.backbone_ids:
        for recipient in network.backbone_ids:
            if sender != recipient:
                network.set_peer_link(sender, recipient, Link(bandwidth_bps=BACKBONE_BPS))
    clients = {viewer: harness.add_client(viewer) for viewer in plan.viewers}
    return harness, clients


# ----- closed loop (lecture, clinic) ------------------------------------------------


_KIND_NAMES = {"choose": "choice", "operate": "edit", "join": "join", "leave": "leave"}


def _issue(client, op: tuple) -> None:
    kind = op[0]
    if kind == "join":
        client.join(op[2])
    elif kind == "choose":
        client.choose(op[2], op[3], scope=op[4])
    elif kind == "operate":
        client.operate(op[2], op[3], global_importance=op[4])
    else:
        client.leave()


def _run_closed(harness, clients, ops, result: RunResult, meter: Meter, first: int) -> None:
    clock = harness.clock
    perf = time.perf_counter
    for index, op in enumerate(ops, first):
        if index % CHECKPOINT_OPS == 0:
            meter.checkpoint()
        meter.op(index)
        client = clients[op[1]]
        errors_before = len(client.errors)
        started_sim = clock.now
        started = perf()
        _issue(client, op)
        result.events += harness.run()
        wall = perf() - started
        result.attempted += 1
        if len(client.errors) != errors_before:
            result.fail("client_error", len(client.errors) - errors_before)
            continue
        if op[0] == "join" and client.session_id is None:
            result.fail("join_incomplete")
            continue
        result.completed += 1
        name = _KIND_NAMES[op[0]]
        sim = clock.now - started_sim
        result.sample(name, wall, sim)
        if op[0] == "join":
            result.sim_ms.setdefault("join_latency", []).append(client.join_latency * 1e3)


def run_closed_loop(plan: Plan, harness, clients, meter: Meter) -> RunResult:
    """Drive the plan one op at a time, each to quiescence."""
    result = RunResult()
    meter.start()
    _run_closed(harness, clients, plan.ops, result, meter, 0)
    meter.stop()
    # Displays are read between the two timed phases: after the final
    # leaves no viewer is in a room any more.
    result.displays = {viewer: c.displayed() for viewer, c in clients.items()}
    for viewer, client in clients.items():
        result.checked.append((viewer, client.doc_id, result.displays[viewer]))
    meter.start()
    _run_closed(harness, clients, plan.final_leaves, result, meter, len(plan.ops))
    meter.stop()
    result.timed_s = meter.timed_s
    return result


# ----- open loop on the simulated clock (megaconf) ----------------------------------


def run_open_loop(plan: Plan, harness, clients, meter: Meter) -> RunResult:
    """Plot the whole conference day on the sim clock, then run it.

    As in E17, an attendee whose join is still pending at its slot's end
    (deferred by admission, or queued behind payload transfers on a
    link) is *late*: it is not sampled, and the join fails only if
    it never completes by the end of the day. Completions are counted by
    the client's own ``client.join_latency_s`` observations.
    """
    result = RunResult()
    clock = harness.clock
    schedule = plan.schedule
    acks = obs.get_registry().histogram("client.join_latency_s")
    acks_before = acks.count
    issued = {"joins": 0}

    def in_room(client, doc_id: str) -> bool:
        return client.session_id is not None and client.doc_id == doc_id

    def join(client, doc_id):
        def fire():
            issued["joins"] += 1
            client.join(doc_id)
        return fire

    class Speaker:
        """Issues one slot's choice stream, in order, from inside the room.

        A speaker whose join is still deferred when a choice falls due
        polls until it is in; at the slot's end whatever is due and
        unsent goes out before it leaves, or fails if it never got in.
        """

        def __init__(self, slot) -> None:
            self.client = clients[slot.attendees[0]]
            self.doc_id = slot.doc_id
            self.stream = plan.streams[slot.doc_id]
            self.due = self.issued = 0
            self.polling = self.closed = False

        def fall_due(self) -> None:
            self.due += 1
            self.drain()

        def drain(self) -> None:
            if self.closed:
                return
            if not in_room(self.client, self.doc_id):
                if not self.polling:
                    self.polling = True
                    clock.schedule(SPEAKER_RETRY_S, self.poll)
                return
            while self.issued < self.due:
                self.client.choose(*self.stream[self.issued])
                self.issued += 1
                result.completed += 1

        def poll(self) -> None:
            self.polling = False
            self.drain()

        def close(self) -> None:
            self.due = len(self.stream)
            self.drain()
            self.closed = True
            result.fail("choice_never_issued", len(self.stream) - self.issued)

    def collect(slot, speaker):
        def fire():
            speaker.close()
            for name in slot.attendees:
                client = clients[name]
                if not in_room(client, slot.doc_id):
                    result.late_joins += 1
                    continue
                if client.join_latency is not None:
                    result.sim_ms.setdefault("join_latency", []).append(
                        client.join_latency * 1e3
                    )
                    client.join_latency = None
                if not slot.keynote:
                    result.attempted += 1
                    client.leave()
                    result.completed += 1
        return fire

    for slot in schedule.slots:
        count = len(slot.attendees)
        for j, name in enumerate(slot.attendees):
            at = slot.start_s + slot.join_window_s * j / max(1, count)
            clock.schedule_at(at, join(clients[name], slot.doc_id))
        speaker = Speaker(slot)
        talk_start = slot.start_s + slot.join_window_s
        talk_s = max(slot.duration_s - slot.join_window_s, 1e-6)
        for i in range(len(speaker.stream)):
            at = talk_start + talk_s * (i + 0.5) / len(speaker.stream)
            clock.schedule_at(at, speaker.fall_due)
        clock.schedule_at(slot.end_s, collect(slot, speaker))
        result.attempted += count + len(speaker.stream)

    responses_before = {name: len(c.response_times) for name, c in clients.items()}
    meter.start()
    until = 0.0
    while clock.pending:
        until += CHECKPOINT_SIM_S
        result.events += harness.run_until(until)
        meter.checkpoint()
    meter.stop()
    completed_joins = acks.count - acks_before
    result.completed += completed_joins
    result.fail("join_never_completed", issued["joins"] - completed_joins)
    for name, client in clients.items():
        for sim_s in client.response_times[responses_before[name]:]:
            result.sample("choice", None, sim_s)
        result.fail("client_error", len(client.errors))
    # Track attendees leave at the boundary with updates still in flight
    # (by design, a departed viewer drops them), so only the keynote room
    # is quiescent with every member present: its displays are checked.
    result.displays = {viewer: c.displayed() for viewer, c in clients.items()}
    keynote = schedule.keynote
    present = [name for name in keynote.attendees if in_room(clients[name], keynote.doc_id)]
    for name in present:
        result.checked.append((name, keynote.doc_id, result.displays[name]))
    meter.start()
    for name in present:
        result.attempted += 1
        clients[name].leave()
        result.events += harness.run()
        result.completed += 1
    meter.stop()
    result.timed_s = meter.timed_s
    return result


def drive(plan: Plan, harness, clients, meter: Meter) -> RunResult:
    if plan.workload == "megaconf":
        return run_open_loop(plan, harness, clients, meter)
    return run_closed_loop(plan, harness, clients, meter)


# ----- the oracle -------------------------------------------------------------------


def oracle_check(plan: Plan, directory: str, result: RunResult) -> dict[str, int]:
    """Compare every checked display with the single-server oracle.

    One ``InteractionServer`` in direct mode, on the interpreted CP-net
    engine and with the workload's interest mode, is fed the same ops.
    ``mismatches`` counts viewers whose display differs from what that
    server shipped them: its ``presentation_for(viewer).outcome`` as
    filtered by the viewer's interest, which is what a client of the one
    server would display. ``interest_gaps`` counts viewers whose display
    differs from the unfiltered ``presentation_for(viewer).outcome``;
    with ``interest_mode="cpnet"`` that is the §5.3 filter at work (a
    rejoined viewer is not subscribed to parts its join-time view hid),
    so it is reported, not failed.
    """
    db, store = store_documents(directory, plan)
    try:
        with interpreted_mode():
            server = InteractionServer(store, interest_mode=plan.config.interest_mode)
            if plan.workload == "megaconf":
                expected = _oracle_megaconf(plan, server)
            else:
                expected = _oracle_closed(plan, server)
    finally:
        db.close()
    counts = {"mismatches": 0, "interest_gaps": 0}
    for viewer, doc_id, display in result.checked:
        shipped, outcome = expected[(viewer, doc_id)]
        counts["mismatches"] += display != shipped
        counts["interest_gaps"] += display != outcome
    return counts


def _views(server: InteractionServer, session_id: str, viewer: str, doc_id: str):
    """(what the server shipped the viewer, the viewer's full outcome)."""
    session = server.session(session_id)
    room = server.room(session.room_id)
    shipped = dict(session.known_spec(doc_id) or {})
    return shipped, dict(room.presentation_for(viewer).outcome)


def _oracle_closed(plan: Plan, server: InteractionServer) -> dict:
    sessions: dict[str, tuple[str, str]] = {}
    for op in plan.ops:
        kind, viewer = op[0], op[1]
        if kind == "join":
            session = server.connect_session(viewer)
            sessions[viewer] = (session.session_id, op[2])
            server.join_room(session.session_id, op[2])
        elif kind == "choose":
            server.handle_choice(sessions[viewer][0], op[2], op[3], op[4])
        elif kind == "operate":
            server.handle_operation(sessions[viewer][0], op[2], op[3], op[4])
        else:
            server.disconnect_session(sessions.pop(viewer)[0])
    return {
        (viewer, doc_id): _views(server, session_id, viewer, doc_id)
        for viewer, (session_id, doc_id) in sessions.items()
    }


def _oracle_megaconf(plan: Plan, server: InteractionServer) -> dict:
    expected = {}
    for slot in plan.schedule.slots:
        sessions = {}
        for name in slot.attendees:
            session = server.connect_session(name)
            sessions[name] = session.session_id
            server.join_room(session.session_id, slot.doc_id)
        speaker = sessions[slot.attendees[0]]
        for path, value in plan.streams[slot.doc_id]:
            server.handle_choice(speaker, path, value)
        for name, session_id in sessions.items():
            expected[(name, slot.doc_id)] = _views(server, session_id, name, slot.doc_id)
        for session_id in sessions.values():
            server.disconnect_session(session_id)
    return expected
