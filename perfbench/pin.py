"""Rewrite ``pins.json``: each workload's input digest for seeds 0-63.

    python3 perfbench/pin.py

Run it only in a change that means to alter the benchmark's inputs; the
benchmark refuses a pinned seed whose generated inputs no longer match.
"""

from __future__ import annotations

import json
import sys

import run

PINNED_SEEDS = range(64)


def main() -> int:
    pins = {
        workload: {str(seed): run.round_digest(workload, seed) for seed in PINNED_SEEDS}
        for workload in run.WORKLOADS
    }
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
