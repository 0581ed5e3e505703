"""Self-tests of the benchmark: seeded inputs, workload shapes, trace sums.

Run from the repository root::

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

import dataclasses
import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

# Share of the n^2 pair groundings whose BOUND guard is non-zero.
GUARD_DENSITY = {"pair_dense": (0.02, 0.08)}


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def tree(directory):
    return sorted(os.listdir(directory))


def test_benchmark_json_names_what_the_code_reports():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert tuple(m["name"] for m in BENCHMARK["end_to_end"]) == END_TO_END


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    generate(workload, 7, str(tmp_path / "a"))
    generate(workload, 7, str(tmp_path / "b"))
    generate(workload, 8, str(tmp_path / "c"))
    names = tree(tmp_path / "a")
    assert names == tree(tmp_path / "b") == tree(tmp_path / "c")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert "annotations.tsv" in mismatch


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_builds_the_designed_shape(name, seed, tmp_path):
    workload = WORKLOADS[name]
    inputs = generate(workload, seed, str(tmp_path))
    shape = json.loads(run_script(os.path.join(HERE, "setup_probe.py"), inputs.config))
    assert shape["n"] == workload.n == len(inputs.proteins)
    assert shape["dropped"] == workload.extra_proteins
    assert shape["cut_nodes"] == workload.cut_nodes == len(inputs.nodes)
    assert shape["rules"] == workload.rule_count
    assert shape["folds"] == workload.folds
    low, high = GUARD_DENSITY.get(name, (0.0, 0.0))
    assert low <= shape["pair_guard_density"] <= high
    for node in inputs.nodes.values():
        if node.is_bin:
            assert 0 < len(node.members) < int(workload.settings["min_count"])
        else:
            assert len(node.members) >= int(workload.settings["min_count"])


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
                    ["c", 5.0, 9.0, 0]]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_count():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda counts, args, result: counts.update({"seen": result}))
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts["seen"] == 5
    assert sum(tracer.self_times()) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    small = dataclasses.replace(
        WORKLOADS["pair_dense"],
        settings={**WORKLOADS["pair_dense"].settings, "max_iterations": 2},
    )
    inputs = generate(small, 3, str(tmp_path / "inputs"))
    result = tmp_path / "layers.json"
    run_script(os.path.join(HERE, "tracing.py"), inputs.config, str(tmp_path / "out"),
               str(result))
    layers = json.loads(result.read_text())
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    self_times = [value for key, value in layers.items()
                  if key.endswith("_s") and not key.startswith("trace.")
                  and key not in ("learner.train_s", "learner.stage1_s", "learner.stage2_s")]
    assert sum(self_times) == pytest.approx(layers["trace.self_sum_s"], abs=1e-9)
    assert abs(layers["trace.wall_s"] - sum(self_times)) <= layers["trace.overhead_s"]
    assert layers["learner.stage1_s"] + layers["learner.stage2_s"] == pytest.approx(
        layers["learner.train_s"])
    assert layers["logic.penalty_calls"] > 0 and layers["learner.stage2_evals"] > 0
    assert layers["learner.stage1_capped_folds"] == small.folds
