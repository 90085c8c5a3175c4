"""Deterministic per-choice cost proxies of a cluster fan-out.

Wall time on shared machines is too noisy to gate on, so these pin the
counts that track the fan-out's cost instead: component-index builds
(one per tree shape, never one per choice or per member) and codec
encodes (the wire is unchanged by the document index and the
propagation size memo, so the count is the one measured before either
existed).
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.document import Hidden, PrimitiveMultimediaComponent, Text
from repro.workloads import consultation_events, generate_record

MEMBERS = 16
CHOICES = 16
#: codec.encodes over the 16 shared choices below, measured before the
#: component index and the propagation size memo were added.
ENCODES_FOR_CHOICES = 820


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


def read(registry, name):
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


@pytest.fixture
def lecture(tmp_path, registry):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    record = generate_record("lecture", sections=2, components_per_section=3, seed=0)
    store.store_document(record)
    harness = ClusterHarness(
        store, ClusterConfig(shards=2, gateways=2, interest_mode="cpnet")
    )
    members = [harness.add_client(f"m{index}") for index in range(MEMBERS)]
    for client in members:
        client.join("lecture")
    harness.run()
    yield harness, members, record
    db.close()


def test_choices_build_no_index_and_encode_as_before(lecture, registry):
    harness, members, record = lecture
    builds_after_joins = read(registry, "document.index_builds")
    assert builds_after_joins > 0
    encodes_before = read(registry, "codec.encodes")
    events = consultation_events(record, num_events=CHOICES, seed=0)
    assert len(events) == CHOICES
    for path, value in events:
        members[0].choose(path, value)
        harness.run()
        assert read(registry, "document.index_builds") == builds_after_joins
    assert read(registry, "codec.encodes") - encodes_before == ENCODES_FOR_CHOICES


def test_a_structural_change_costs_one_build(lecture, registry):
    harness, members, record = lecture
    server = harness.serving_server_of("lecture")
    room = server.open_room("lecture")
    section = record.component_paths()[0]
    builds = read(registry, "document.index_builds")
    room.document.add_component(
        section, PrimitiveMultimediaComponent("extra", [Text("full", 64), Hidden()])
    )
    room.engine.invalidate()
    for path, value in consultation_events(record, num_events=4, seed=1):
        members[0].choose(path, value)
        harness.run()
    assert read(registry, "document.index_builds") - builds == 1
    # The actor always receives its own fan-out, new component included.
    assert f"{section}.extra" in members[0].displayed()
