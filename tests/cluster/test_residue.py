"""Shard state is reclaimed when its sessions and rooms end.

Every per-session and per-room structure a shard keeps for replication
and dedup — the room op histories, the replica bootstrap marks, the
standby replicas' applied logs and the per-session ``op_seq`` fences —
must read zero once every client has left, and a room that closes and
reopens must still fail over like any other.
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.workloads import consultation_events, generate_record

HORIZON = 30.0


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build(tmp_path, name, docs, shards=2):
    store = MultimediaObjectStore(Database(str(tmp_path / name)))
    records = {}
    for index, doc_id in enumerate(docs):
        records[doc_id] = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        store.store_document(records[doc_id])
    config = ClusterConfig(shards=shards, gateways=2, failure_timeout=1.5)
    return ClusterHarness(store, config), records


def residue(harness):
    """Entry counts of every per-session / per-room replication structure."""
    shards = list(harness.shards.values())
    return {
        "room_history": sum(
            len(ops) for s in shards for ops in s._room_history.values()
        ),
        "standby_log": sum(
            len(s.standby_for(p).applied_log)
            for s in shards
            for p in harness.shards
            if s.standby_for(p) is not None
        ),
        "replica_rooms": sum(
            len(keys) for s in shards for keys in s._replica_rooms.values()
        ),
        "op_fences": sum(len(s._op_seen) for s in shards),
    }


def test_everyone_leaving_reclaims_histories_logs_marks_and_fences(tmp_path):
    docs = [f"case-{i}" for i in range(4)]
    harness, records = build(tmp_path, "residue", docs)
    rooms = {
        doc_id: [harness.add_client(f"{doc_id}-m{j}") for j in range(4)]
        for doc_id in docs
    }
    for doc_id, members in rooms.items():
        for client in members:
            client.join(doc_id)
    harness.run()
    for index, (doc_id, members) in enumerate(rooms.items()):
        for path, value in consultation_events(records[doc_id], num_events=8, seed=index):
            members[0].choose(path, value)
    harness.run()
    during = residue(harness)
    assert during["room_history"] == 4 * (4 + 8)  # joins + choices so far
    assert during["op_fences"] == 4  # one per member that issued an op
    for members in rooms.values():
        for client in members:
            client.leave()
    harness.run()
    assert all(
        not server.room_ids
        for shard in harness.shards.values()
        for server in shard.serving_servers()
    )
    assert residue(harness) == {
        "room_history": 0,
        "standby_log": 0,
        "replica_rooms": 0,
        "op_fences": 0,
    }


def reopen_and_fail_over(tmp_path, name, crash):
    """Close a room, reopen it, then (optionally) crash its primary."""
    harness, records = build(tmp_path, name, ["case-0"])
    doc_id = "case-0"
    a, b = harness.add_client("re-a"), harness.add_client("re-b")
    events = consultation_events(records[doc_id], num_events=6, seed=3)
    for client in (a, b):
        client.join(doc_id)
    harness.run()
    for path, value in events[:2]:
        a.choose(path, value)
    harness.run()
    for client in (a, b):
        client.leave()  # the room closes with its last member
    harness.run()
    for client in (a, b):
        client.join(doc_id)
    harness.run()
    for path, value in events[2:4]:
        a.choose(path, value)
    harness.run()
    primary = harness.owner_of(doc_id)
    replica = next(s for s in harness.shards.values() if s.node_id != primary)
    standby_ops = [e.op for e in replica.standby_for(primary).applied_log]
    harness.start(until=HORIZON)
    if crash:
        harness.run_until(3.0)
        harness.crash(primary)
        harness.run_until(10.0)
    harness.run()
    for path, value in events[4:]:
        b.choose(path, value)
    harness.run()
    return {
        "harness": harness,
        "primary": primary,
        "standby_ops": standby_ops,
        "errors": a.errors + b.errors,
        "final": {c.viewer_id: c.displayed() for c in (a, b)},
    }


def test_reopened_room_fails_over_to_its_replica(tmp_path):
    control = reopen_and_fail_over(tmp_path, "control", crash=False)
    run = reopen_and_fail_over(tmp_path, "crash", crash=True)
    harness, primary = run["harness"], run["primary"]
    # The standby holds only the reopened room's ops: two joins, two
    # choices — the closed incarnation was reclaimed with its room.
    assert run["standby_ops"] == ["join", "join", "choice", "choice"]
    assert [f["primary"] for f in harness.failovers] == [primary]
    promoted = harness.shards[harness.owner_of("case-0")]
    assert promoted.promoted_primaries == (primary,)
    assert harness.serving_server_of("case-0") is not promoted.server
    assert run["errors"] == []
    # The promoted replica served the post-crash choices exactly as the
    # uncrashed primary did.
    assert run["final"] == control["final"]
