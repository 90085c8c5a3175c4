"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They pin the generated inputs, check that the deterministic per-layer
counts repeat exactly for a seed, and check the output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer values that are times, not counts: they may differ between runs.
TIMED = ("_us_per_op", "unclaimed_self_frac")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_match_pins(workload):
    pins = json.loads(run.PINS.read_text())[workload]
    for seed in (0, 1, 63):
        assert run.round_digest(workload, seed) == pins[str(seed)]


def test_workloads_run_on_the_gateway_tier():
    for workload in workloads.WORKLOADS:
        config = workloads.make_plan(workload, 0).config
        assert config.gateways >= 1


@pytest.mark.parametrize("plan_seed", [107, 190])
def test_megaconf_speakers_get_into_their_rooms(plan_seed):
    # On the default 10 Mbit/s backbone these inputs kept two speakers'
    # JOIN_ACKs behind payload bytes for a whole slot: 8 failed choices.
    rep = run.run_rep("megaconf", plan_seed, False, oracle=False)
    assert rep["failures"] == {}
    assert rep["late_joins"] == 0
    assert rep["completed"] == rep["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = (run.run_rep(workload, 0, True, oracle=False) for _ in range(2))
    counts = [
        {k: v for k, v in rep["layers"].items() if not k.endswith(TIMED)}
        for rep in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["net.retransmits"] == 0
    assert counts[0]["cluster.admission_control_shed"] == 0
    assert counts[0]["cluster.rooms_open_end"] == counts[0]["cluster.sessions_open_end"] == 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_contract(trace, section):
    proc = _benchmark("--workload", "megaconf", "--seed", "0", "--seconds", "1",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert name in proc.stderr


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    proc = _benchmark("--workload", "clinic", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
