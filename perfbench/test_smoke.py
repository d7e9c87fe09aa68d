"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the oracles on hand-solved cases, runs every workload at its smoke
size in both modes, and checks that the printed metrics are exactly the
ones BENCHMARK.json names, with their units.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
from stagepomdp import make_model  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _model(transition, payoff, init, signal_map):
    n_w, n_a = np.asarray(payoff).shape
    n_s = max(signal_map) + 1
    return make_model([f"w{i}" for i in range(n_w)], [f"a{i}" for i in range(n_a)],
                      [f"s{i}" for i in range(n_s)], signal_map, payoff,
                      transition, init)


def test_cesaro_mean_hand_solved():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    # a periodic chain: the Cesaro mean exists although the powers oscillate
    assert oracles.cesaro_mean(flip, np.array([1.0, 0.0]), np.array([1.0, 0.0])) \
        == pytest.approx(0.5, abs=1e-12)
    absorbing = np.array([[0.5, 0.5], [0.0, 1.0]])
    assert oracles.cesaro_mean(absorbing, np.array([1.0, 0.0]),
                               np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # two closed classes entered with probability 1/4 and 3/4
    split = np.array([[0.0, 0.25, 0.75], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert oracles.cesaro_mean(split, np.array([1.0, 0.0, 0.0]),
                               np.array([0.0, 1.0, 0.2])) == pytest.approx(0.4, abs=1e-12)


def test_revealed_value_hand_solved():
    # one state, two actions: the value is the better payoff at any discount
    one = _model(np.ones((1, 2, 1)), [[0.3, 0.7]], [1.0], [0])
    value, bound = oracles.revealed_value(one, 0.05, 0.5)
    assert value == pytest.approx(0.7, abs=1e-12) and bound <= 1e-12
    # figure 1 with the state revealed: alternate correctly for ever, value 1
    t = np.zeros((3, 2, 3))
    t[0, 0, 1] = t[0, 1, 2] = t[1, 1, 0] = t[1, 0, 2] = 1.0
    t[2, :, 2] = 1.0
    fig1 = _model(t, [[1, 1], [1, 1], [0, 0]], [1.0, 0.0, 0.0], [0, 0, 0])
    assert oracles.revealed_value(fig1, 0.01, 0.5)[0] == pytest.approx(1.0, abs=1e-11)


def test_controller_discounted_hand_solved():
    # payoff 1 in state 0 only; the action swaps the state; start in state 0.
    # V = eff * sum_t (1-eff)^t [t even] = eff / (1 - (1-eff)^2) = 1 / (2 - eff)
    t = np.zeros((2, 1, 2))
    t[0, 0, 1] = t[1, 0, 0] = 1.0
    swap = _model(t, [[1.0], [0.0]], [1.0, 0.0], [0, 0])
    rule, update, init_memory = oracles.sequence_arrays([np.array([1.0])], 1)
    chain = oracles.controller_chain(swap, rule, update, init_memory, 1.0)
    eff = 0.2
    assert oracles.discounted_from_chain(*chain, eff) == pytest.approx(1 / (2 - eff),
                                                                       abs=1e-12)
    # at duration h the swap happens with probability h per stage; the sum
    # V0 + V1 is 1 and the difference solves D = eff + (1-eff)(1-2h) D
    h = 0.3
    chain_h = oracles.controller_chain(swap, rule, update, init_memory, h)
    a = (1 - eff) * (1 - 2 * h)
    assert oracles.discounted_from_chain(*chain_h, eff) == pytest.approx(
        0.5 + 0.5 * eff / (1 - a), abs=1e-12)


def test_figure1_closed_forms():
    for h in (0.25, 0.5, 0.9, 1.0):
        series = sum(h * (1 - h) ** (n - 1) for n in range(1, 4000, 2))
        assert oracles.figure1_first_mimic(h) == pytest.approx(series, abs=1e-12)
    assert oracles.figure1_first_mimic(0.5) == pytest.approx(2 / 3)
    assert oracles.figure1_alternating_average(1.0) == 1.0
    assert oracles.figure1_alternating_average(0.5) == 0.0


def test_tail_latency_rank():
    assert run.tail_latency(list(range(40))) == 29
    assert run.tail_latency([3.0, 1.0]) == 1.0


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("exact-routes", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
