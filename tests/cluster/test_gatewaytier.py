"""The sharded gateway tier: homing, route caches, gateway failover.

Steady state: clients spread across N gateways by consistent hash, JOINs
route by the room ring, and every post-join op rides the gateway's route
cache — zero directory hops on the data plane. Failure: a dead gateway's
clients re-home onto the ring's survivor and replay their parked ops
(exactly-once via the shard-side op_seq fence); a dead shard broadcasts
ROUTE_INVALIDATE so stale cache entries die with it.
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.errors import ClusterError
from repro.db import Database, MultimediaObjectStore
from repro.workloads import consultation_events, generate_record

DOCS = ("case-0", "case-1", "case-2")
EVENTS_PER_ROOM = 6
HORIZON = 30.0


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_store(tmp_path, name):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    records = {}
    for index, doc_id in enumerate(DOCS):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    return store, records


def drive_tier(tmp_path, name, gateways=2, crash_gateway_of=None, monitor=False):
    """One 3-room conference through the tier; optionally kill a gateway.

    ``crash_gateway_of`` names a viewer whose *home gateway* fail-stops
    between the two halves of every room's choice stream — the worst
    case: parked ops, a warm route cache, live sessions.
    """
    store, records = build_store(tmp_path, name)
    config = ClusterConfig(shards=3, gateways=gateways, failure_timeout=1.5)
    harness = ClusterHarness(store, config)
    clients = {}
    for index, doc_id in enumerate(DOCS):
        pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
        for client in pair:
            client.join(doc_id)
        clients[doc_id] = pair
    mon = harness.add_monitor() if monitor else None
    harness.run()
    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=EVENTS_PER_ROOM, seed=21 + index
        )
        for index, doc_id in enumerate(DOCS)
    }
    for doc_id, events in streams.items():
        for path, value in events[: EVENTS_PER_ROOM // 2]:
            clients[doc_id][0].choose(path, value)
    harness.run()
    harness.start(until=HORIZON)
    victim = harness.home_of(crash_gateway_of) if crash_gateway_of else None
    if victim is not None:
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(10.0)
    harness.run()
    for doc_id, events in streams.items():
        for path, value in events[EVENTS_PER_ROOM // 2 :]:
            clients[doc_id][1].choose(path, value)
    harness.run()
    return {
        "harness": harness,
        "victim": victim,
        "monitor": mon,
        "clients": clients,
        "final": {
            client.viewer_id: client.displayed()
            for pair in clients.values()
            for client in pair
        },
        "errors": [
            {"viewer": client.viewer_id, **error}
            for pair in clients.values()
            for client in pair
            for error in client.errors
        ],
    }


class TestTierRouting:
    def test_clients_spread_across_gateways(self, fresh_obs, tmp_path):
        result = drive_tier(tmp_path, "spread", gateways=2)
        harness = result["harness"]
        assert result["errors"] == []
        homes = {
            harness.home_of(client.viewer_id)
            for pair in result["clients"].values()
            for client in pair
        }
        # Six clients over two ring members: both gateways terminate links.
        assert homes == set(harness.gateways)

    def test_route_cache_serves_steady_state(self, fresh_obs, tmp_path):
        result = drive_tier(tmp_path, "steady", gateways=2)
        harness = result["harness"]
        cache = harness.route_cache_stats()
        # Every post-join op hits the cache the JOIN_ACK sniff filled:
        # the directory never fields a data-plane lookup.
        assert cache["hits"] > 0
        assert cache["misses"] == 0
        assert cache["hit_rate"] == 1.0
        assert harness.directory.stats()["sessions_known"] == len(DOCS) * 2

    def test_route_cache_metric_families(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        drive_tier(tmp_path, "families", gateways=2)
        counters = registry.snapshot()["counters"]
        for gateway_id in ("gw-1", "gw-2"):
            for family in ("hits", "misses", "invalidations"):
                name = f'gateway.route_cache.{family}{{gateway="{gateway_id}"}}'
                assert name in counters, name
        total_hits = sum(
            value
            for name, value in counters.items()
            if name.startswith("gateway.route_cache.hits{")
        )
        assert total_hits > 0

    def test_route_cache_families_reach_the_dashboard(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        drive_tier(tmp_path, "dash", gateways=2)
        panel = obs.render_dashboard(registry.snapshot())
        assert 'gateway.route_cache.hits{gateway="gw-1"}' in panel
        assert 'gateway.route_cache.misses{gateway="gw-2"}' in panel


class TestGatewayFailover:
    def test_crash_rehomes_and_converges(self, fresh_obs, tmp_path):
        control = drive_tier(tmp_path, "control", gateways=2)
        crashed = drive_tier(
            tmp_path, "crashed", gateways=2, crash_gateway_of="dr-0-0"
        )
        assert crashed["errors"] == []
        harness = crashed["harness"]
        victim = crashed["victim"]
        # The failover completed and moved every stranded client.
        assert len(harness.gateway_failovers) == 1
        record = harness.gateway_failovers[0]
        assert record["gateway"] == victim
        assert record["clients"] > 0
        # Everybody now terminates on the survivor.
        survivor = next(g for g in harness.gateways if g != victim)
        for pair in crashed["clients"].values():
            for client in pair:
                assert harness.home_of(client.viewer_id) == survivor
        # And the conference ends byte-identical to the unkilled run.
        assert crashed["final"] == control["final"]

    def test_replay_is_exactly_once(self, fresh_obs, tmp_path):
        registry, _ = fresh_obs
        crashed = drive_tier(
            tmp_path, "replayed", gateways=2, crash_gateway_of="dr-0-0"
        )
        moved = [
            client
            for pair in crashed["clients"].values()
            for client in pair
            if client.gateway_failovers
        ]
        assert moved, "the victim homed at least one client"
        # Writers replay their parked ops; a viewer that had not sent a
        # mutating op yet legitimately replays zero.
        assert any(entry["replayed"] > 0 for c in moved for entry in c.gateway_failovers)
        # The replay re-sent ops the shard had already applied; the
        # op_seq fence dropped them instead of double-applying.
        counters = registry.snapshot()["counters"]
        assert counters.get("cluster.shard.dup_ops_dropped", 0) > 0

    def test_monitor_rehomes_after_crash(self, fresh_obs, tmp_path):
        result = drive_tier(
            tmp_path, "monitored", gateways=2, crash_gateway_of="dr-0-0",
            monitor=True,
        )
        harness = result["harness"]
        mon = result["monitor"]
        # Wherever it started, the monitor ends on a live gateway with a
        # live telemetry session (re-connected by its failover hook if
        # its home was the victim).
        assert harness.network.home_of(mon.node_id) != result["victim"]
        assert mon.session_id is not None


    def test_responses_queued_on_the_dead_gateway_are_resynced(
        self, fresh_obs, tmp_path
    ):
        """A gateway with a routing queue dies holding accepted-but-unsent
        updates for clients that never act; the failover still heals them."""
        store, records = build_store(tmp_path, "queued")
        config = ClusterConfig(
            shards=1, gateways=2, route_rate=5.0, failure_timeout=1.5
        )
        harness = ClusterHarness(store, config)
        clients = [harness.add_client(f"q-{i}") for i in range(12)]
        doomed = harness.gateways[harness.home_of("q-0")]
        listeners = [c for c in clients if harness.home_of(c.viewer_id) == doomed.node_id]
        speaker = next(c for c in clients if c not in listeners)
        for client in [speaker, *listeners]:
            client.join("case-0")
        harness.run()
        harness.start(until=HORIZON)
        # One choice per component, so no later update repeats a lost one.
        events = consultation_events(records["case-0"], num_events=12, seed=4)
        for path, value in dict(events).items():
            speaker.choose(path, value)
        harness.run_until(harness.clock.now + 2.0)
        assert doomed.queue.pending > len(listeners)  # updates still waiting
        harness.crash(doomed.node_id)
        harness.run()
        assert len(harness.gateway_failovers) == 1
        assert not any(c.errors for c in [speaker, *listeners])
        for listener in listeners:
            assert listener.displayed() == speaker.displayed()


class TestShardFailureInTier:
    def test_shard_crash_invalidates_route_caches(self, fresh_obs, tmp_path):
        store, records = build_store(tmp_path, "inval")
        config = ClusterConfig(shards=3, gateways=2, failure_timeout=1.5)
        harness = ClusterHarness(store, config)
        clients = {}
        for index, doc_id in enumerate(DOCS):
            pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
            for client in pair:
                client.join(doc_id)
            clients[doc_id] = pair
        harness.run()
        streams = {
            doc_id: consultation_events(
                records[doc_id], num_events=EVENTS_PER_ROOM, seed=21 + index
            )
            for index, doc_id in enumerate(DOCS)
        }
        for doc_id, events in streams.items():
            for path, value in events[: EVENTS_PER_ROOM // 2]:
                clients[doc_id][0].choose(path, value)
        harness.run()
        harness.start(until=HORIZON)
        victim = harness.owner_of(DOCS[0])
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(10.0)
        harness.run()
        # The directory broadcast ROUTE_INVALIDATE: entries pointing at
        # the dead shard were dropped from every gateway's cache...
        cache = harness.route_cache_stats()
        assert cache["invalidations"] > 0
        assert victim not in harness.directory.live_shards
        # ...and the next ops took the miss path to the promoted owner.
        for doc_id, events in streams.items():
            for path, value in events[EVENTS_PER_ROOM // 2 :]:
                clients[doc_id][1].choose(path, value)
        harness.run()
        assert len(harness.failovers) >= 1
        errors = [e for pair in clients.values() for c in pair for e in c.errors]
        assert errors == []


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(shards=0)
        with pytest.raises(ClusterError):
            ClusterConfig(gateways=-1)
        with pytest.raises(ClusterError):
            ClusterConfig(route_rate=0.0)

    def test_a_cluster_needs_a_gateway(self):
        with pytest.raises(ClusterError):
            ClusterConfig(gateways=0)
