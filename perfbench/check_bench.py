"""Checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/check_bench.py``.
The file name keeps these out of the default test collection: the smoke runs
start several interpreters per workload and take a minute or two.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import oracle as orc  # noqa: E402
from perfbench.oracle import CheckFailed  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.worker import tail  # noqa: E402
from perfbench.workloads import build_trajectory, scipy_import_s  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *report, last = proc.stdout.strip().splitlines()
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(r.split()[:1] == [m["name"]] for r in report)  # printed for people too


def test_names_are_plain():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_without_library_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("design", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _plant(domain="continuous", n=2, m=1, scale="raw"):
    return orc.draw_plant(np.random.default_rng(7), n, m, domain, "general", scale)


@pytest.mark.parametrize("domain,scale", [("continuous", "raw"), ("discrete", "rho1.1")])
def test_verifier_rejects_a_perturbed_gain(domain, scale):
    plant = _plant(domain, scale=scale)
    p, k = plant.riccati()
    orc.check_riccati(plant, p, k, "reference")  # the reference itself passes
    bumped = k.copy()
    bumped[0, 0] += 1e-3 * np.linalg.norm(k)
    with pytest.raises(CheckFailed):
        orc.check_riccati(plant, p, bumped, "bumped")
    with pytest.raises(CheckFailed):
        orc.check_stabilizing(plant, 100.0 * plant.b.T, "positive feedback")
    targets = orc.stable_targets(np.random.default_rng(1), plant.n, plant.continuous)
    with pytest.raises(CheckFailed):
        orc.check_spectrum(plant.a, plant.b, bumped, targets, "placement")


def test_verifier_rejects_a_perturbed_trace(tmp_path):
    deck = build_trajectory(5, {"root": ROOT, "tmpdir": str(tmp_path)})
    response, _cost, csv_op = deck[:3]
    trace = response.run(NullTracer())
    (_, check), = response.checks
    check(trace)
    states = trace.states.copy()
    states[len(states) // 2, 0] += 1e-6 * np.abs(states).max()
    bumped = type(trace)(trace.times, states, trace.inputs, trace.outputs)
    with pytest.raises(CheckFailed):
        check(bumped)

    path = csv_op.run(NullTracer())
    (_, check_csv), = csv_op.checks
    check_csv(path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed):
        check_csv(path)


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)


def test_scipy_import_time_counts_outermost_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   scipy._lib",
        "import time:       200 |        300 | scipy",
        "import time:        50 |         50 |     scipy.linalg._x",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |        460 | bimatrix.core",
    ])
    assert scipy_import_s(text) == pytest.approx(750e-6)
