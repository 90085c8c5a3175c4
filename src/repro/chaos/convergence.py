"""Convergence harness: chaos runs must end where the control run ends.

The strongest claim the reliability layer makes is not "fewer errors" —
it is *exactly-once, in-order delivery*, and the observable consequence
is that a conference driven under loss, duplication, reordering, a
partition window and a primary crash finishes with every client
displaying **byte-for-byte** the state of the fault-free control run.

:func:`run_convergence` runs the control once and the chaos scenario
under N seeds, each in its own isolated metrics registry/event log, and
compares. ``python -m repro.chaos.convergence --seeds 1 2 3 4 5`` is the
CI entry point: exit status 1 on any divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable

from repro import obs
from repro.chaos.plan import FaultPlan
from repro.db.engine import Database
from repro.db.orm import MultimediaObjectStore
from repro.workloads.chaos import run_chaos_conference

#: Fault rates of the acceptance scenario: lossy enough that repair
#: mechanisms demonstrably fire, survivable within the retry budget.
DEFAULT_RATES = {
    "drop_rate": 0.06,
    "dup_rate": 0.05,
    "reorder_rate": 0.08,
    "corrupt_rate": 0.02,
}

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def _one_run(
    root: str,
    name: str,
    plan: FaultPlan | None,
    tracing: bool = False,
    runner: Any = run_chaos_conference,
    interpreted: bool = False,
    **kwargs: Any,
) -> dict[str, Any]:
    """One isolated conference run (fresh obs context, fresh database)."""
    from contextlib import nullcontext

    from repro.cpnet.compiled import interpreted_mode

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            tracer = (
                obs.use_dtrace(obs.DeliveryTracer(sample_every=1))
                if tracing
                else nullcontext()
            )
            engine_mode = interpreted_mode() if interpreted else nullcontext()
            db = Database(f"{root}/{name}")
            try:
                with tracer, engine_mode:
                    store = MultimediaObjectStore(db)
                    result = runner(store, plan=plan, **kwargs)
            finally:
                db.close()
            counters = registry.snapshot()["counters"]
            result["counters"] = {
                key: value
                for key, value in counters.items()
                if key.startswith(("net.", "chaos.", "gateway.route", "cpnet."))
            }
            result.pop("harness", None)
            return result


def run_convergence(
    root: str,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    quick: bool = False,
    crash: bool = True,
    partition: bool = True,
    interest_churn: bool = False,
    tracing: bool = False,
    gateway_crash: bool = False,
    megaconf: bool = False,
    cpnet_compiled: bool = False,
) -> dict[str, Any]:
    """Control + one chaos run per seed; report agreement.

    *root* is a scratch directory for the runs' databases. ``quick``
    trims the workload (fewer events) for CI smoke jobs. The returned
    report has ``converged`` per seed plus the overall ``ok`` verdict:
    every seed byte-identical to control, zero client-visible errors,
    zero delivery failures, and — to prove chaos was actually on — at
    least one injected fault and one retransmission per seed.
    ``interest_churn`` runs the scenario with CP-net interest management
    on and subscriptions churning across the fault windows (see
    :func:`~repro.workloads.chaos.run_chaos_conference`).
    ``tracing`` turns full-sampling delivery tracing on for the seeded
    chaos runs only — the control stays untraced, so convergence then
    also proves trace trailers are invisible to the data plane.
    ``gateway_crash`` fail-stops one of the tier's gateways
    mid-conference — in both the control and the seeded runs, so the
    replay/op_seq machinery must reconverge byte-identically under
    faults too.
    ``megaconf`` swaps the three-phase conference for the mega-conference
    keynote flash crowd (:func:`~repro.workloads.megaconf
    .run_megaconf_convergence`): admission control is on, JOIN deferral
    engages during the keynote wave, and the fault window (plus the
    optional gateway crash) lands mid-keynote — overload shedding and
    chaos repair must *compose* without breaking byte-identity; each
    seed must also register gateway JOIN deferrals.
    ``cpnet_compiled`` makes the *control* run on the interpreted CP-net
    engine while the seeded chaos runs keep compiled evaluation and the
    shared completion cache on — so convergence then also proves the
    compiled hot path (with caching, across a shard crash) is
    byte-identical to the reference sweeps; each seed must additionally
    register completion-cache hits to prove sharing actually happened.
    """
    if megaconf:
        from repro.workloads.megaconf import run_megaconf_convergence

        runner: Any = run_megaconf_convergence
        kwargs: dict[str, Any] = dict(quick=quick, gateway_crash=gateway_crash)
        seed_kwargs: dict[str, Any] = {}
    else:
        runner = run_chaos_conference
        events_per_room = 3 if quick else 6
        kwargs = dict(
            events_per_room=events_per_room,
            crash_owner_of="case-0" if crash else None,
            interest_churn=interest_churn,
            gateway_crash=gateway_crash,
        )
        seed_kwargs = dict(partition=partition)
    control = _one_run(
        root, "control", None, runner=runner, interpreted=cpnet_compiled, **kwargs
    )
    report: dict[str, Any] = {
        "control": {
            "displayed": control["displayed"],
            "errors": control["errors"],
            "sim_seconds": control["sim_seconds"],
        },
        "seeds": {},
    }
    ok = not control["errors"]
    for seed in seeds:
        plan = FaultPlan(seed=seed, **DEFAULT_RATES)
        result = _one_run(
            root, f"seed-{seed}", plan,
            tracing=tracing, runner=runner, **seed_kwargs, **kwargs,
        )
        retries = sum(
            value
            for key, value in result["counters"].items()
            if key.startswith("net.retries")
        )
        injected = sum(result["injected"].values())
        converged = result["displayed"] == control["displayed"]
        cache_hits = int(
            result["counters"].get("cpnet.completion_cache.hits", 0)
        )
        gateway_deferred = result.get("admission", {}).get("gateway_deferred", 0)
        seed_ok = (
            converged
            and not result["errors"]
            and not result["delivery_failures"]
            and injected > 0
            and retries > 0
            # Compiled mode must prove the cache actually shared work,
            # not just that the compiled sweep happened to agree.
            and (not cpnet_compiled or cache_hits > 0)
            # The keynote wave must exercise the gateway admission gate.
            and (not megaconf or gateway_deferred > 0)
        )
        ok = ok and seed_ok
        report["seeds"][seed] = {
            "ok": seed_ok,
            "converged": converged,
            "completion_cache_hits": cache_hits,
            "gateway_deferred": gateway_deferred,
            "errors": result["errors"],
            "delivery_failures": result["delivery_failures"],
            "injected": result["injected"],
            "retries": retries,
            "failovers": len(result["failovers"]),
            "gateway_failovers": len(result.get("gateway_failovers", [])),
            "expected_delivery_failures": len(
                result.get("expected_delivery_failures", [])
            ),
            "victim": result["victim"],
            "gateway_victim": result.get("gateway_victim"),
            "sim_seconds": result["sim_seconds"],
        }
    report["ok"] = ok
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos convergence suite: N seeded runs vs fault-free control."
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--quick", action="store_true", help="trimmed CI workload")
    parser.add_argument("--no-crash", action="store_true")
    parser.add_argument("--no-partition", action="store_true")
    parser.add_argument(
        "--interest-churn",
        action="store_true",
        help="churn subscriptions across the fault windows (repro.interest)",
    )
    parser.add_argument(
        "--tracing",
        action="store_true",
        help="trace the chaos runs at full sampling (control stays untraced)",
    )
    parser.add_argument(
        "--gateway-crash",
        action="store_true",
        help="kill one gateway of the tier mid-conference",
    )
    parser.add_argument(
        "--megaconf",
        action="store_true",
        help="keynote flash crowd with admission control instead of the "
        "three-phase conference (faults land mid-keynote)",
    )
    parser.add_argument(
        "--cpnet-compiled",
        action="store_true",
        help="interpreted control vs compiled+cached chaos runs: proves the "
        "compiled CP-net hot path is byte-identical under faults",
    )
    parser.add_argument("--root", default=None, help="scratch dir (default: mkdtemp)")
    args = parser.parse_args(argv)
    root = args.root
    if root is None:
        import tempfile

        root = tempfile.mkdtemp(prefix="chaos-convergence-")
    report = run_convergence(
        root,
        seeds=args.seeds,
        quick=args.quick,
        crash=not args.no_crash,
        partition=not args.no_partition,
        interest_churn=args.interest_churn,
        tracing=args.tracing,
        gateway_crash=args.gateway_crash,
        megaconf=args.megaconf,
        cpnet_compiled=args.cpnet_compiled,
    )
    for seed, entry in report["seeds"].items():
        status = "ok" if entry["ok"] else "DIVERGED"
        deferred = f"gateway_deferred={entry['gateway_deferred']} " if args.megaconf else ""
        print(
            f"seed {seed}: {status}  injected={sum(entry['injected'].values())} "
            f"retries={entry['retries']} failovers={entry['failovers']} "
            f"gateway_failovers={entry['gateway_failovers']} {deferred}"
            f"errors={len(entry['errors'])} "
            f"delivery_failures={len(entry['delivery_failures'])}"
        )
    if not report["ok"]:
        print(json.dumps(report, indent=2, default=str), file=sys.stderr)
        return 1
    print(f"all {len(report['seeds'])} seeds converged to the control run")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
