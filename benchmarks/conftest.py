"""Shared benchmark helpers.

Each benchmark module regenerates one of the paper's figures/claims (see
DESIGN.md's per-experiment index). Timing goes through pytest-benchmark;
the derived tables — the actual figure contents — are printed through
``report`` (bypassing capture so they appear in ``bench_output.txt``).

Every benchmark module also emits an observability snapshot: a
module-scoped fixture diffs the process metrics registry around the
module's tests and writes the delta to ``benchmarks/metrics/<module>.json``
— so each figure comes with the subsystem counters/histograms that
produced it. Quick runs write theirs to ``benchmarks/metrics/quick/``
instead (ignored by git): their shrunken workloads must not overwrite
the full-run dumps that are tracked.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import obs

METRICS_DIR = Path(__file__).parent / "metrics"

#: Quick mode (``REPRO_BENCH_QUICK=1``) is the CI smoke setting: timing
#: collection is disabled and modules that consult the flag shrink their
#: workloads, so the suite exercises every benchmark path in seconds.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Where ``metrics_snapshot`` writes the per-module deltas.
SNAPSHOT_DIR = METRICS_DIR / "quick" if QUICK else METRICS_DIR


def pytest_configure(config):
    if QUICK:
        config.option.benchmark_disable = True


class _NanStats(dict):
    """Stand-in for timing stats when collection is disabled: every
    figure renders (as ``nan``) instead of crashing on ``stats[None]``."""

    def __missing__(self, key):
        return float("nan")


@pytest.fixture
def benchmark(benchmark):
    """In quick mode, pre-seed the disabled fixture's ``stats`` so report
    lines that read ``benchmark.stats[...]`` render (as ``nan``) instead
    of crashing. A timed run overwrites the attribute with real stats."""
    if QUICK and benchmark.stats is None:
        benchmark.stats = _NanStats()
    return benchmark


@pytest.fixture(scope="module", autouse=True)
def metrics_snapshot(request):
    """Write the metrics delta accumulated by one benchmark module."""
    before = obs.snapshot()
    yield
    delta = obs.diff(before, obs.snapshot())
    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    out = SNAPSHOT_DIR / f"{request.module.__name__}.json"
    out.write_text(obs.to_json(delta) + "\n")


class Reporter:
    """Prints experiment tables past pytest's output capture."""

    def __init__(self, capsys) -> None:
        self._capsys = capsys

    def table(self, title: str, header: list[str], rows: list[list]) -> None:
        widths = [
            max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
            for i in range(len(header))
        ]
        with self._capsys.disabled():
            print(f"\n== {title} ==")
            print("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
            for row in rows:
                print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    def line(self, text: str) -> None:
        with self._capsys.disabled():
            print(text)


@pytest.fixture
def report(capsys) -> Reporter:
    return Reporter(capsys)
