"""Wall-clock conference benchmark: lecture, clinic and megaconf.

    python3 perfbench/run.py --workload lecture --seed 0 --seconds 15 --trace 0

A run measures rounds of ``ROUND`` repetitions, one per input set
generated from the seed (plan seeds ``seed * ROUND + k``), each in a
fresh interpreter (``rep.py``), until the timed phases add up to
``--seconds``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it pairs every repetition with a traced one and reports
the per-layer metrics and the tracing overhead. Every metric is printed
by name with its unit on stderr; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Wall times are scaled to a nominal machine speed. Each repetition runs a
fixed pure-Python reference loop between its timed stretches; a
repetition's times are multiplied by ``REFERENCE_NOMINAL_S`` over the
mean time of its reference loops. On a shared machine whose speed
drifts by tens of percent within minutes, this cuts the spread between
runs about threefold. The raw values are printed on stderr beside them.

The first round is checked against the single-server oracle, every
repetition of one input set must end with the same displays, and the
inputs must match the digests pinned in ``pins.json`` for the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

WORKLOADS = ("lecture", "clinic", "megaconf")
#: Input sets per run, so one run averages over several generated inputs.
ROUND = 4
#: Untraced rounds per run at least: one round of `lecture` can fill
#: ``--seconds`` on its own, and four repetitions are too few to be steady.
MIN_ROUNDS = 2
#: Seconds the reference loop takes at nominal machine speed.
REFERENCE_NOMINAL_S = 3.0e-3
#: Stop starting rounds after this much wall time, so a run always ends
#: well inside the 180 s a run may take.
WALL_BUDGET_S = 90.0
REP_TIMEOUT_S = 170.0

#: Closed-loop wall latencies: printed where a workload has them.
WALL_LATENCIES = (("choice", 0.50), ("choice", 0.95), ("edit", 0.50), ("join", 0.50))


class RepFailed(RuntimeError):
    pass


def plan_seeds(seed: int) -> list[int]:
    return [seed * ROUND + k for k in range(ROUND)]


def combine(digests: list[str]) -> str:
    """One digest for a run's input sets, in plan-seed order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def round_digest(workload: str, seed: int) -> str:
    """The pinned digest of *seed*'s inputs, computed in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return combine(
        [workloads.digest(workloads.make_plan(workload, s)) for s in plan_seeds(seed)]
    )


def percentile(samples: list[float], q: float) -> float | None:
    """Linear-interpolation percentile, or None unless ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scale(rep: dict) -> float:
    """Factor taking this repetition's wall times to nominal machine speed."""
    return REFERENCE_NOMINAL_S / statistics.mean(rep["reference_s"])


def run_rep(workload: str, seed: int, trace: bool, oracle: bool) -> dict:
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if oracle:
        command.append("--oracle")
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RepFailed(f"repetition failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """(untraced reps, traced reps): whole rounds covering *seconds* of timed work."""
    plain: list[dict] = []
    traced: list[dict] = []
    # A traced round is three times longer, and its counts repeat exactly.
    min_rounds = 1 if trace else MIN_ROUNDS
    started = time.monotonic()
    for rounds in itertools.count(1):
        for plan_seed in plan_seeds(seed):
            plain.append(run_rep(workload, plan_seed, False, oracle=rounds == 1))
            if trace:
                traced.append(run_rep(workload, plan_seed, True, oracle=False))
        timed = sum(r["timed_s"] for r in plain + traced)
        if (rounds >= min_rounds and timed >= seconds) or (
            time.monotonic() - started > WALL_BUDGET_S
        ):
            return plain, traced


def check(workload: str, seed: int, reps: list[dict]) -> tuple[list[str], int, int]:
    """(problems that make the output incorrect, attempted, failed)."""
    problems = []
    by_seed: dict[int, list[dict]] = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(rep)
    for plan_seed, group in by_seed.items():
        if len({r["input_digest"] for r in group}) != 1:
            problems.append(f"plan seed {plan_seed}: inputs differ between repetitions")
        if len({r["display_digest"] for r in group}) != 1:
            problems.append(f"plan seed {plan_seed}: repetitions ended with different displays")
    digest = combine([by_seed[s][0]["input_digest"] for s in plan_seeds(seed)])
    pinned = json.loads(PINS.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        print(f"note: seed {seed} has no pinned input digest", file=sys.stderr)
    elif digest != pinned:
        problems.append(f"inputs changed: digest {digest} != pinned {pinned}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(sum(r["failures"].values()) for r in reps)
    for r in reps:
        # A failed op (say, a speaker the overloaded cluster never let
        # into its room) is counted in `failed`; only a wrong display
        # makes the output incorrect.
        if r["failures"]:
            print(f"  plan seed {r['seed']}: failed ops {r['failures']}", file=sys.stderr)
        if "oracle" in r and r["oracle"]["mismatches"]:
            problems.append(
                f"plan seed {r['seed']}: {r['oracle']['mismatches']} displays differ from the oracle"
            )
            failed += r["oracle"]["mismatches"]
    return problems, attempted, failed


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(r["setup_s"] * scale(r) for r in reps), "s"),
        "ops_per_s": (
            statistics.median(r["completed"] / (r["timed_s"] * scale(r)) for r in reps),
            "ops/s",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def informational(reps: list[dict]) -> dict[str, tuple[float | None, str, int]]:
    """Metrics printed on stderr only: raw values, and those not every workload has."""
    out: dict[str, tuple[float | None, str, int]] = {
        "raw.setup_s": (statistics.median(r["setup_s"] for r in reps), "s", len(reps)),
        "raw.ops_per_s": (
            statistics.median(r["completed"] / r["timed_s"] for r in reps), "ops/s", len(reps)
        ),
    }
    for kind, q in WALL_LATENCIES:
        samples = [x * scale(r) for r in reps for x in r["wall_ms"].get(kind, ())]
        if samples:
            out[f"{kind}_ms.p{round(q * 100)}"] = (percentile(samples, q), "ms", len(samples))
    # Simulated times are deterministic per input set: one round suffices.
    distinct = reps[:ROUND]
    for kind, source, q in (("choice", "choice", 0.90), ("join", "join_latency", 0.90),
                            ("join", "join_latency", 0.95)):
        samples = [x for r in distinct for x in r["sim_ms"].get(source, ())]
        out[f"sim_{kind}_ms.p{round(q * 100)}"] = (percentile(samples, q), "sim ms", len(samples))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(sum(r["failures"].values()) for r in reps)
    out["failed_op_frac"] = (failed / attempted, "ratio", attempted)
    joins = sum(len(r["sim_ms"].get("join_latency", ())) + r["late_joins"] for r in distinct)
    out["late_joins"] = (sum(r["late_joins"] for r in distinct), "count", joins)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Counts: mean over the traced reps (exact per seed). Times: median, scaled."""
    out = {}
    for name in traced[0]["layers"]:
        if name == "spans":
            continue
        if name.endswith("_us_per_op"):
            value = statistics.median(r["layers"][name] * scale(r) for r in traced)
        else:
            value = statistics.mean(r["layers"][name] for r in traced)
        out[name] = (value, layer_unit(name))
    out["trace_overhead_frac"] = (
        sum(r["timed_s"] * scale(r) for r in traced)
        / sum(r["timed_s"] * scale(r) for r in plain),
        "ratio",
    )
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_us_per_op"):
        return "us/op"
    if name.endswith("kb_per_op"):
        return "kB/op"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_ms_per_frame"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def report(workload: str, seed: int, plain: list, traced: list, metrics: dict) -> None:
    err = sys.stderr
    print(
        f"perfbench {workload} seed={seed}: {len(plain)} untraced + {len(traced)} traced"
        f" repetitions over plan seeds {plan_seeds(seed)}, each in a fresh interpreter;"
        f" times scaled to nominal speed",
        file=err,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}", file=err)
    if traced:
        print(f"  spans per traced repetition: {traced[0]['layers']['spans']}", file=err)
        print("  top spans by self time (first traced repetition, per op):", file=err)
        for name, calls, self_us in traced[0]["top_spans"]:
            print(f"    {name:50s} {calls:10.2f} calls {self_us:10.1f} us", file=err)
    else:
        for name, (value, unit, n) in informational(plain).items():
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"  {name:44s} {shown:>14s} {unit} (n={n})", file=err)
        per_rep = [r["completed"] / (r["timed_s"] * scale(r)) for r in plain]
        q = statistics.quantiles(per_rep, n=4)
        print(
            f"  ops_per_s over repetitions: min {min(per_rep):.1f}, max {max(per_rep):.1f},"
            f" IQR/median {(q[2] - q[0]) / statistics.median(per_rep):.3f}",
            file=err,
        )
    speeds = [scale(r) for r in plain + traced]
    print(f"  speed scale per repetition: {min(speeds):.3f} .. {max(speeds):.3f}", file=err)
    checked = [r for r in plain if "oracle" in r]
    print(
        f"  oracle: {sum(r['checked_viewers'] for r in checked)} viewers checked,"
        f" {sum(r['oracle']['mismatches'] for r in checked)} mismatches,"
        f" {sum(r['oracle']['interest_gaps'] for r in checked)} differ only by"
        " interest filtering",
        file=err,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems, attempted, failed = check(args.workload, args.seed, plain + traced)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    report(args.workload, args.seed, plain, traced, metrics)
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
