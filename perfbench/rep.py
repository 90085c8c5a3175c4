"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload lecture --seed 0 [--trace] [--oracle]

``run.py`` starts one of these per repetition because the obs registry,
the CP-net compile memo, the completion cache and the extension-id
counter are process-global: repetitions in one process would inherit
each other's state. Prints one JSON object on its last stdout line.
Everything it writes lives under ``perfbench/.work`` and is removed
before it exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-ups measured per repetition besides the one the run uses.
EXTRA_SETUPS = 8


def _counters() -> dict[str, float]:
    registry = obs.get_registry()
    values = {name: counter.value for name, counter in registry.counters.items()}
    for name, histogram in registry.histograms.items():
        values[f"{name}.count"] = histogram.count
        values[f"{name}.sum"] = histogram.total
    return values


def _delta(after: dict[str, float], before: dict[str, float], name: str) -> float:
    """Growth of one counter, summed over its labelled children if a family."""
    return sum(
        v - before.get(k, 0)
        for k, v in after.items()
        if k == name or k.startswith(name + "{")
    )


def _cluster_state(harness) -> dict[str, float]:
    """Cumulative cluster counters read off the harness (not the registry)."""
    route = harness.route_cache_stats()
    controllers = [s.admission for s in harness.shards.values() if s.admission] + [
        g.admission for g in harness.gateways.values() if g.admission
    ]
    shipped = 0
    for shard in harness.shards.values():
        for log in shard.stats()["replication"].values():
            shipped += log["shipped"]
    return {
        "route_hits": route["hits"],
        "route_misses": route["misses"],
        "replication_shipped": shipped,
        "admission_deferred": sum(c.deferred for c in controllers),
        "admission_shed": sum(c.shed for c in controllers),
        "admission_control_shed": sum(
            c.shed_by_lane.get("control", 0) for c in controllers
        ),
    }


def _buffer_state(clients) -> tuple[int, int]:
    return (
        sum(c.buffer.hits for c in clients.values()),
        sum(c.buffer.misses for c in clients.values()),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, totals, result, harness, before, after) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    self_s = recorder.layer_self_s(totals)
    ops = max(result.completed, 1)
    counters_b, counters_a = before["counters"], after["counters"]
    cluster_b, cluster_a = before["cluster"], after["cluster"]

    def d(name: str) -> float:
        return _delta(counters_a, counters_b, name)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def us_per_op(seconds: float) -> float:
        return seconds * 1e6 / ops

    def layer_us(layer: str) -> float:
        return us_per_op(sum(s for k, s in self_s.items() if k.split(".")[0] == layer))

    hits = d("cpnet.completion_cache.hits")
    lookups = hits + d("cpnet.completion_cache.misses")
    route_hits = cluster_a["route_hits"] - cluster_b["route_hits"]
    route_total = route_hits + cluster_a["route_misses"] - cluster_b["route_misses"]
    buf_hits = after["buffer"][0] - before["buffer"][0]
    buf_total = buf_hits + after["buffer"][1] - before["buffer"][1]
    shards = harness.stats()["shards"].values()
    claimed = sum(self_s.values())
    return {
        "net.encodes_per_op": d("codec.encodes") / ops,
        "net.encode_self_us_per_op": us_per_op(
            totals.get(tracing.ENCODE_SPAN, {}).get("self_s", 0.0)
        ),
        "net.frames_per_op": d("net.messages") / ops,
        "net.send_self_us_per_op": us_per_op(
            totals.get("SimulatedNetwork.send", {}).get("self_s", 0.0)
        ),
        "net.events_per_op": result.events / ops,
        "net.wire_kb_per_op": d("net.bytes_total") / 1024 / ops,
        "net.retransmits": d("net.retries"),
        "net.queue_delay_ms_per_frame": _ratio(
            d("net.queue_delay_s.sum") * 1e3, d("net.queue_delay_s.count")
        ),
        "net.self_us_per_op": layer_us("net"),
        "document.components_calls_per_op": calls("MultimediaDocument.components") / ops,
        "document.self_us_per_op": layer_us("document"),
        "presentation.presentation_for_calls_per_op": calls(
            "PresentationEngine.presentation_for"
        ) / ops,
        "presentation.self_us_per_op": layer_us("presentation"),
        "cpnet.sweeps_per_op": (d("cpnet.compiled.completions") + d("cpnet.completions")) / ops,
        "cpnet.cache_hit_ratio": _ratio(hits, lookups),
        "cpnet.compiles_per_op": d("cpnet.compile") / ops,
        "cpnet.self_us_per_op": layer_us("cpnet"),
        "server.self_us_per_op": layer_us("server"),
        "server.payload_fetches_per_op": calls(
            "InteractionServer.fetch_component_payload"
        ) / ops,
        "client.self_us_per_op": layer_us("client"),
        "client.buffer_hit_ratio": _ratio(buf_hits, buf_total),
        "interest.self_us_per_op": layer_us("interest"),
        "cluster.gateway_self_us_per_op": us_per_op(self_s.get("cluster.gateway", 0.0)),
        "cluster.route_cache_hit_ratio": _ratio(route_hits, route_total),
        "cluster.shard_self_us_per_op": us_per_op(self_s.get("cluster.shard", 0.0)),
        "cluster.self_us_per_op": layer_us("cluster"),
        "cluster.replication_entries_per_op": (
            cluster_a["replication_shipped"] - cluster_b["replication_shipped"]
        ) / ops,
        "cluster.shard_queue_max_depth": max(
            s.queue.max_pending for s in harness.shards.values()
        ),
        "cluster.admission_deferred": cluster_a["admission_deferred"] - cluster_b["admission_deferred"],
        "cluster.admission_shed": cluster_a["admission_shed"] - cluster_b["admission_shed"],
        "cluster.admission_control_shed": (
            cluster_a["admission_control_shed"] - cluster_b["admission_control_shed"]
        ),
        "cluster.rooms_open_end": sum(s["rooms"] for s in shards),
        "cluster.sessions_open_end": sum(s["sessions"] for s in shards),
        "db.fetch_document_calls": calls("MultimediaObjectStore.fetch_document"),
        "db.self_us_per_op": layer_us("db"),
        "obs.self_us_per_op": layer_us("obs"),
        "unclaimed_self_frac": _ratio(result.timed_s - claimed, result.timed_s),
        "spans": len(recorder),
    }


def _state(harness, clients) -> dict:
    return {
        "counters": _counters(),
        "cluster": _cluster_state(harness),
        "buffer": _buffer_state(clients),
    }


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _setup(plan, directory: Path, reference_s: list[float]):
    reference_s.append(workloads.reference_loop())
    started = time.perf_counter()
    db, store = workloads.store_documents(str(directory), plan)
    harness, clients = workloads.build_harness(plan, store)
    return time.perf_counter() - started, db, harness, clients


def _top_spans(totals, ops: int, count: int = 12) -> list[list]:
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:count]
    return [
        [name, entry["calls"] / ops, entry["self_s"] * 1e6 / ops] for name, entry in ranked
    ]


def run(workload: str, seed: int, trace: bool, oracle: bool, work: Path) -> dict:
    """One repetition on the inputs of plan seed *seed*; wall times are raw."""
    recorder = None
    if trace:
        recorder = tracing.SpanRecorder()
        recorder.install()
    plan = workloads.make_plan(workload, seed)
    workloads.reference_loop()  # warm-up: its first call runs cold
    setup_reference_s: list[float] = []
    setup_s, db, harness, clients = _setup(plan, work / "db", setup_reference_s)
    try:
        before = _state(harness, clients)
        meter = workloads.Meter(recorder)
        result = workloads.drive(plan, harness, clients, meter)
        after = _state(harness, clients)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        db.close()
    out = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "input_digest": workloads.digest(plan),
        "display_digest": _digest(result.displays),
        "timed_s": result.timed_s,
        "attempted": result.attempted,
        "completed": result.completed,
        "failures": result.failures,
        "wall_ms": result.wall_ms,
        "sim_ms": result.sim_ms,
        "peak_rss_mb": peak_rss_mb,
        "checked_viewers": len(result.checked),
        "late_joins": result.late_joins,
    }
    if recorder is not None:
        recorder.uninstall()
        totals = recorder.reduce()
        out["layers"] = layer_metrics(recorder, totals, result, harness, before, after)
        out["top_spans"] = _top_spans(totals, max(result.completed, 1))
    if oracle:
        out["oracle"] = workloads.oracle_check(plan, str(work / "oracle"), result)
    # Set-up is short and noisy, so it is repeated, after everything
    # measured so that the extra clusters cannot disturb the timed phase.
    setups = [setup_s]
    for index in range(EXTRA_SETUPS):
        seconds, extra_db, _, _ = _setup(plan, work / f"setup-{index}", setup_reference_s)
        extra_db.close()
        setups.append(seconds)
    out["setup_s"] = statistics.median(setups)
    out["reference_s"] = meter.reference_s + setup_reference_s
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--oracle", action="store_true", help="check against the oracle")
    args = parser.parse_args(argv)
    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.trace, args.oracle, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
