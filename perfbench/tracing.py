"""Per-layer tracing installed from outside the program.

The traced run wraps the entry points of each layer with a timing
wrapper before anything is built. Every call records one span — name,
start, end, parent span and the op it served — in flat in-memory arrays;
nothing is written while the run is measured. At the end the spans are
reduced: a span's self time is its duration minus the time of its child
spans, and a layer's self time is the sum over its spans. Time inside no
span at all (the benchmark's own loop) is reported as unclaimed.

Only class attributes are replaced, so every instance, including bound
methods cached after installation, goes through the wrapper. Module-level
functions are wrapped only where callers look them up at call time:
``repro.net.codec`` helpers are bound by ``from``-import in the cluster
and server modules, so encode *counts* come from the ``codec.*`` counters
and encode *time* from ``codec._write_value``, which every encoder calls
through the module global.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Any, Callable

from repro.client.buffer import ClientBuffer
from repro.client.client import ClientModule
from repro.client.view import RenderTree
from repro.cluster.admission import AdmissionController
from repro.cluster.failover import FailureDetector
from repro.cluster.gateway import Gateway
from repro.cluster.gatewaytier import GatewayDirectory, GatewayNode
from repro.cluster.replication import ReplicaState, ShipLog
from repro.cluster.ring import HashRing
from repro.cluster import shard as shard_module
from repro.cpnet import compiled, updates
from repro.cpnet.cpt import CPT
from repro.cpnet.network import CPNet
from repro.db.orm import MultimediaObjectStore
from repro.document.document import MultimediaDocument
from repro.interest.registry import InterestRegistry
from repro.net import codec
from repro.net.batch import Batcher
from repro.net.link import Link
from repro.net.network import NetworkStats, SimulatedNetwork
from repro.net.reliable import ReliableTransport
from repro.net.simclock import SimClock
from repro.obs.dtrace import DeliveryTracer, NullDeliveryTracer
from repro.obs.events import EventLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricFamily, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.obs.watch import Watchdog
from repro.presentation.engine import PresentationEngine
from repro.server.interaction import InteractionServer
from repro.server.permissions import PermissionPolicy
from repro.server.room import Room
from repro.server.triggers import TriggerManager

#: layer -> classes whose methods are that layer's entry points. The
#: cluster layer is split into its gateway and shard halves; admission,
#: ring and failure detection count towards the cluster layer only.
LAYER_CLASSES: dict[str, tuple[type, ...]] = {
    "net": (SimulatedNetwork, SimClock, Link, Batcher, ReliableTransport, NetworkStats),
    "cluster.gateway": (Gateway, GatewayNode, GatewayDirectory),
    "cluster.shard": (
        shard_module.ShardServer,
        shard_module.ServiceQueue,
        shard_module._GatewayTransport,
        shard_module._StandbyTransport,
        ShipLog,
        ReplicaState,
    ),
    "cluster": (AdmissionController, HashRing, FailureDetector),
    "server": (InteractionServer, Room, PermissionPolicy, TriggerManager),
    "document": (MultimediaDocument,),
    "presentation": (PresentationEngine,),
    "cpnet": (
        CPNet,
        CPT,
        updates.ViewerExtension,
        compiled.CompiledCPNet,
        compiled.CompiledExtension,
        compiled.CompletionCache,
    ),
    "interest": (InterestRegistry,),
    "client": (ClientModule, ClientBuffer, RenderTree),
    "db": (MultimediaObjectStore,),
    "obs": (
        Counter,
        Gauge,
        Histogram,
        MetricFamily,
        MetricsRegistry,
        EventLog,
        Tracer,
        Watchdog,
        DeliveryTracer,
        NullDeliveryTracer,
    ),
}

#: Module-level functions that callers resolve at call time.
LAYER_FUNCTIONS: dict[str, tuple[tuple[Any, str], ...]] = {
    "cpnet": (
        (compiled, "compile_cpnet"),
        (compiled, "compile_extension"),
        (updates, "apply_operation"),
    ),
}

ENCODE_SPAN = "net.codec.encode"


class SpanRecorder:
    """Flat in-memory span store with parent links.

    ``active`` gates recording, so only the timed phases are traced;
    ``op`` is the index of the op being driven, shared by all its spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.op = 0
        self._installed: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self.name_ids[name]

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        name_id = self._name_id(name, layer)
        stack = self.stack
        span_name, parent, op_index = self.span_name, self.parent, self.op_index
        start, end = self.start, self.end
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_index.append(self.op)
            end.append(0.0)
            stack.append(index)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf()
                stack.pop()

        return traced

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        for layer, classes in LAYER_CLASSES.items():
            for cls in classes:
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("__") or not inspect.isfunction(value):
                        continue
                    if inspect.isgeneratorfunction(value):
                        continue  # its body runs after the call returns
                    self._replace(cls, attr, self.wrap(value, f"{cls.__name__}.{attr}", layer))
        for layer, functions in LAYER_FUNCTIONS.items():
            for module, attr in functions:
                fn = getattr(module, attr)
                self._replace(module, attr, self.wrap(fn, f"{module.__name__}.{attr}", layer))
        self._install_encode()

    def _install_encode(self) -> None:
        """Time each top-level ``_write_value`` call as one encode span.

        The recursion inside resolves ``_write_value`` through the module
        global as well, so the wrapper puts the original back for the
        duration of the call: nested values cost no wrapper.
        """
        original = codec._write_value
        timed = self.wrap(original, ENCODE_SPAN, "net")

        def write_value(out, value, interner):
            codec._write_value = original
            try:
                return timed(out, value, interner)
            finally:
                codec._write_value = write_value

        self._replace(codec, "_write_value", write_value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self.span_name)

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        count = len(self.span_name)
        child = [0.0] * count
        for index in range(count):
            p = self.parent[index]
            if p >= 0:
                child[p] += self.end[index] - self.start[index]
        totals: dict[str, dict[str, float]] = {}
        for index in range(count):
            name = self.names[self.span_name[index]]
            duration = self.end[index] - self.start[index]
            entry = totals.get(name)
            if entry is None:
                entry = totals[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[index]
        return totals

    def layer_self_s(self, totals: dict[str, dict[str, float]]) -> dict[str, float]:
        """Self seconds per span layer (``cluster.gateway`` kept apart)."""
        out: dict[str, float] = {}
        for name, entry in totals.items():
            layer = self.layers[self.name_ids[name]]
            out[layer] = out.get(layer, 0.0) + entry["self_s"]
        return out
