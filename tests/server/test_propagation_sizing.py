"""Propagation byte accounting, measured once per distinct content.

``InteractionServer._propagate`` sizes every member's delta, filtered
delta and full outcome (and the peer event an uninterested member is
spared) only to feed counters. The test recomputes those sizes per
member, from the member's known spec before the fan-out, and checks that
every propagation and interest byte counter equals the per-member sums,
while ``encoded_size`` runs at most once per distinct content in each
fan-out rather than once per member.
"""

import pytest

from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.net import SimulatedNetwork
from repro.presentation.spec import diff_presentations
from repro.server import InteractionServer
from repro.server import interaction
from repro.server.protocol import encoded_size

DOC = "record-17"
COUNTERS = (
    "server.propagation.diff_bytes",
    "server.propagation.full_bytes",
    "interest.bytes_saved",
)


class Ledger:
    """Expected counter growth, summed member by member, and the contents
    each fan-out sizes (one list per propagate, one entry per member-level
    sizing, so repeats are kept)."""

    def __init__(self):
        self.totals = dict.fromkeys(COUNTERS, 0)
        self.room_bytes: dict[tuple[str, str], int] = {}
        self.sized: list[list[str]] = []

    def size(self, content):
        self.sized[-1].append(repr(content))
        return encoded_size(content)

    def add(self, name, size, room=None, mode=None):
        self.totals[name] += size
        if room is not None:
            key = (room, mode)
            self.room_bytes[key] = self.room_bytes.get(key, 0) + size


def expect_propagation(server, room, change, ledger):
    """The pre-fan-out accounting rule, applied to each member in turn."""
    doc_id = room.document.doc_id
    size = ledger.size
    ledger.sized.append([])
    for member_id in room.member_sessions:
        member = server.session(member_id)
        spec = room.presentation_for(member.viewer_id)
        delta = diff_presentations(member.known_spec(doc_id), spec.outcome)
        if not delta:
            continue
        if member.viewer_id == change.viewer_id:
            filtered = delta
        else:
            filtered = room.interest.filter_delta(member_id, delta)
        if not filtered:
            ledger.add("interest.bytes_saved", size(delta))
            continue
        if len(filtered) != len(delta):
            ledger.add("interest.bytes_saved", size(delta) - size(filtered))
        ledger.add("server.propagation.diff_bytes", size(filtered), room.room_id, "diff")
        ledger.add("server.propagation.full_bytes", size(spec.outcome), room.room_id, "full")
    event_body = {
        "doc_id": doc_id, "seq": change.seq,
        "viewer": change.viewer_id, "kind": change.kind, "data": change.data,
    }
    component = change.data.get("component")
    for member_id in room.member_sessions:
        member = server.session(member_id)
        if member.viewer_id == change.viewer_id or component is None:
            continue
        if not room.interest.covers(member_id, component):
            ledger.add("interest.bytes_saved", size(event_body))


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


@pytest.fixture
def rig(tmp_path, registry, monkeypatch):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    network = SimulatedNetwork()
    server = InteractionServer(store, network=network)
    ledger = Ledger()
    fanouts: list[list[str]] = []  # per propagate: the contents sized

    def counting_size(content):
        fanouts[-1].append(repr(content))
        return encoded_size(content)

    original = InteractionServer._propagate

    def propagate(self, room, change):
        expect_propagation(self, room, change, ledger)
        fanouts.append([])
        return original(self, room, change)

    monkeypatch.setattr(interaction, "encoded_size", counting_size)
    monkeypatch.setattr(InteractionServer, "_propagate", propagate)
    yield network, server, ledger, fanouts
    db.close()


def test_counters_equal_per_member_sums_and_sizing_is_shared(rig, registry):
    network, server, ledger, fanouts = rig
    names = ("actor", "all1", "all2", "all3", "labs", "ct", "mixed", "personal")
    clients = {}
    for name in names:
        clients[name] = ClientModule(name, network=network, auto_fetch=False)
        network.attach_client(clients[name])
        clients[name].join(DOC)
    network.run()
    clients["labs"].subscribe(["labs"], replace=True)
    clients["ct"].subscribe(["imaging.ct_head"], replace=True)
    clients["mixed"].subscribe(["imaging", "consult.voice_note"], replace=True)
    network.run()
    clients["personal"].choose("consult.voice_note", "transcript", scope="personal")
    network.run()
    choices = [
        ("actor", "imaging.ct_head", "icon"),
        ("actor", "labs", "hidden"),
        ("all1", "imaging.ct_head", "segmented"),
        ("mixed", "consult", "hidden"),
        ("personal", "imaging.xray_chest", "flat", "personal"),
        ("actor", "labs", "shown"),
    ]
    for name, component, value, *scope in choices:
        clients[name].choose(component, value, *scope)
        network.run()

    counters = registry.counters
    for name in COUNTERS:
        assert counters[name].value == ledger.totals[name], name
    assert ledger.totals["interest.bytes_saved"] > 0
    for (room, mode), size in ledger.room_bytes.items():
        key = f'server.propagation.room_bytes{{room="{room}",mode="{mode}"}}'
        assert counters[key].value == size, key

    # Each fan-out sizes exactly the distinct contents the per-member
    # rule sizes, once each.
    assert len(fanouts) == len(ledger.sized) == 1 + len(choices)
    for sized, per_member in zip(fanouts, ledger.sized):
        assert sorted(sized) == sorted(set(per_member))
    # A shared choice reaches all eight members, but most of them see
    # the same delta and outcome: 5 sizings where the per-member rule
    # made 18.
    assert (len(fanouts[1]), len(ledger.sized[1])) == (5, 18)
