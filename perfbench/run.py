"""End-to-end and per-layer benchmark of ``fungo run``.

Usage, from the repository root::

    python3 perfbench/run.py --workload oc_rules --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see ``workloads.py``).

``--trace 0`` measures what a user sees.  It times set-up in fresh
processes, then runs ``fungo run`` with ``--jobs`` equal to the core count
as a child process, again and again for ``--seconds``.  It reports medians.

``--trace 1`` first makes one untraced run with ``--jobs`` equal to the core
count.  Then, for ``--seconds``, it makes traced runs with ``--jobs 1``
(``tracing.py``) and reports the median of each per-layer figure.

Every run must exit 0 and write the complete bundle.  The first bundle's
headline metrics must match a recomputation from its ``predictions.tsv`` and
the planted labels.  Every later bundle, traced or not, must be
byte-identical to the first, apart from the echoed output path.  The last
line of standard output is one JSON object with ``correct``, ``attempted``
(runs), ``failed`` (runs) and ``metrics``.  The environment fingerprint and
every run's figures go to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Inputs, Workload, generate  # noqa: E402

STARTED = time.perf_counter()
TIME_LIMIT_S = 160  # one invocation, all children included
MIN_RUNS = 3
SETUP_MIN_PROBES = 5
SETUP_MAX_PROBES = 25
SETUP_PROBE_S = 3.0  # probe at least this long, so short set-ups get more probes
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "success_ratio",
              "example_f1", "label_macro_f1", "consistency", "auc_average")
BUNDLE_FILES = ("config.txt", "rules.txt", "folds.tsv", "predictions.tsv",
                "per_node.tsv", "curve_average.csv", "metrics.txt")
ORACLE_METRICS = ("example_precision", "example_recall", "example_f1",
                  "label_macro_f1", "label_micro_f1", "consistency")
QUALITY_METRICS = END_TO_END[4:]  # read from metrics.txt
PRINTED_PRECISION = 5e-7  # metrics.txt prints 6 decimals


@dataclass
class Child:
    """Outcome of one child process: exit code, wall time, own peak RSS."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


def spawn(argv: list[str], log_path: str) -> Child:
    """Run ``python3 argv`` from the checkout root and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    with open(log_path + ".out", "wb") as out, open(log_path + ".err", "wb") as err:
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(max(TIME_LIMIT_S - (start - STARTED), 1.0), proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # keep the maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path + ".out", encoding="utf-8") as handle:
        stdout = handle.read()
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, wall_s, usage.ru_maxrss / 1024.0, stdout)


def fungo_run(config: str, out_dir: str, jobs: int, log_path: str) -> Child:
    return spawn(["-m", "fungo.cli", "run", "--config", config, "--out", out_dir,
                  "--jobs", str(jobs)], log_path)


def setup_probe(config: str, log_path: str) -> dict | None:
    child = spawn([os.path.join(HERE, "setup_probe.py"), config], log_path)
    if child.code != 0:
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks


def bundle_problems(out_dir: str, folds: int) -> list[str]:
    """Files ``fungo run`` must write."""
    expected = list(BUNDLE_FILES)
    for i in range(folds):
        expected += [f"fold_{i}/predictions.tsv", f"fold_{i}/model.txt"]
    problems = [f"missing {name}" for name in expected
                if not os.path.isfile(os.path.join(out_dir, name))]
    curves = os.path.join(out_dir, "curves")
    if not os.path.isdir(curves) or not os.listdir(curves):
        problems.append("missing curves/")
    return problems


def snapshot(out_dir: str) -> dict[str, bytes]:
    """Every file of a bundle, with the echoed output path masked."""
    files = {}
    marker = os.path.abspath(out_dir).encode("utf-8")
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out_dir)] = handle.read().replace(marker, b"<out>")
    return files


def read_metrics(out_dir: str) -> dict[str, float]:
    metrics = {}
    with open(os.path.join(out_dir, "metrics.txt"), encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.partition(" = ")
            metrics[key] = float(value)
    return metrics


def oracle_metrics(out_dir: str, inputs: Inputs) -> dict[str, float]:
    """Headline metrics recomputed from ``predictions.tsv`` and the planted
    labels, by the definitions in ``fungo.evaluation``."""
    nodes = inputs.nodes
    predicted: dict[str, set[str]] = {p: set() for p in inputs.proteins}
    seen = set()
    with open(os.path.join(out_dir, "predictions.tsv"), encoding="utf-8") as handle:
        for line in handle:
            protein, predicate, _, label, _ = line.rstrip("\n").split("\t")
            seen.add((protein, predicate))
            if label == "pos":
                predicted[protein].add(predicate)
    expected = {(p, q) for p in inputs.proteins for q in nodes}
    if seen != expected:
        raise ValueError("predictions.tsv does not cover every protein and cut node once")

    real = sorted(q for q, node in nodes.items() if not node.is_bin)
    n = len(inputs.proteins)
    p_sum = r_sum = f_sum = 0.0
    for protein in inputs.proteins:
        truth = {q for q in real if protein in nodes[q].members}
        chosen = predicted[protein] & set(real)
        hit = len(truth & chosen)
        p_sum += hit / len(chosen) if chosen else 0.0
        r_sum += hit / len(truth) if truth else 0.0
        f_sum += 2.0 * hit / (len(truth) + len(chosen)) if truth or chosen else 1.0
    tp_all = fp_all = fn_all = 0
    f1_sum = 0.0
    for q in real:
        tp = sum(1 for p in nodes[q].members if q in predicted[p])
        fp = sum(1 for p in inputs.proteins if q in predicted[p]) - tp
        fn = len(nodes[q].members) - tp
        f1_sum += 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    consistent = 0.0
    for protein in inputs.proteins:
        chosen = predicted[protein]
        if not chosen:
            consistent += 1.0
            continue
        acc = 0.0
        for q in chosen:
            parents = nodes[q].parents
            if nodes[q].level <= 1 or not parents:
                acc += 1.0
            else:
                acc += sum(1 for parent in parents if parent in chosen) / len(parents)
        consistent += acc / len(chosen)
    micro_den = 2 * tp_all + fp_all + fn_all
    return {
        "example_precision": p_sum / n,
        "example_recall": r_sum / n,
        "example_f1": f_sum / n,
        "label_macro_f1": f1_sum / len(real),
        "label_micro_f1": 2 * tp_all / micro_den if micro_den else 0.0,
        "consistency": consistent / n,
    }


def reference_problems(out_dir: str, inputs: Inputs) -> list[str]:
    printed = read_metrics(out_dir)
    try:
        oracle = oracle_metrics(out_dir, inputs)
    except ValueError as exc:
        return [str(exc)]
    return [f"{key}: metrics.txt {printed.get(key)} vs recomputed {oracle[key]:.6f}"
            for key in ORACLE_METRICS
            if key not in printed or abs(printed[key] - oracle[key]) > PRINTED_PRECISION]


def shape_problems(workload: Workload, probe: dict) -> list[str]:
    """The pipeline must build the shape the workload was designed for."""
    expected = {"n": workload.n, "cut_nodes": workload.cut_nodes,
                "rules": workload.rule_count, "folds": workload.folds}
    return [f"{key}: built {probe[key]}, designed {value}"
            for key, value in expected.items() if probe[key] != value]


def diverged_folds(out_dir: str, folds: int) -> int:
    count = sum(os.path.exists(os.path.join(out_dir, f"fold_{i}", "divergence.txt"))
                for i in range(folds))
    return count or folds


# ---------------------------------------------------------------------------
# the two modes


class Invocation:
    """Runs of one benchmark invocation and their pass/fail bookkeeping."""

    def __init__(self, workload: Workload, inputs: Inputs, work: str):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.folds_attempted = 0
        self.folds_failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self.runs: list[dict] = []

    def check(self, child: Child, out_dir: str, tag: str) -> bool:
        """Count a finished run; True when its bundle passes every check."""
        folds = self.workload.folds
        self.attempted += 1
        self.folds_attempted += folds
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        if not problems:
            problems = bundle_problems(out_dir, folds)
        if not problems:
            bundle = snapshot(out_dir)
            if self.reference is None:
                problems = reference_problems(out_dir, self.inputs)
                self.reference = bundle
            elif bundle != self.reference:
                differ = sorted(k for k in set(bundle) | set(self.reference)
                                if bundle.get(k) != self.reference.get(k))
                problems = [f"bundle differs from the first run in {differ[:5]}"]
        self.runs.append({"tag": tag, "code": child.code, "wall_s": child.wall_s,
                          "peak_rss_mb": child.peak_rss_mb, "problems": problems})
        if problems:
            self.failed += 1
            self.folds_failed += diverged_folds(out_dir, folds) if child.code else folds
            self.problems += [f"{tag}: {p}" for p in problems]
            return False
        return True

    def out_dir(self, tag: str) -> str:
        path = os.path.join(self.work, tag)
        shutil.rmtree(path, ignore_errors=True)
        return path


def keep_running(started: float, seconds: float, durations: list[float], runs: int) -> bool:
    """Another run fits in the window, or too few runs were made yet; never
    past the invocation's time limit."""
    now = time.perf_counter()
    expected = statistics.median(durations) if durations else 0.0
    if durations and now - STARTED + expected > TIME_LIMIT_S:
        return False
    return runs < MIN_RUNS or now - started + expected <= seconds


def setup_probes(config: str, work: str, trace: bool) -> list[dict] | None:
    """Set-up timings from fresh processes; one suffices for the shape and
    environment of a traced invocation."""
    probes: list[dict] = []
    started = time.perf_counter()
    while not probes or not trace and (
            len(probes) < SETUP_MIN_PROBES
            or len(probes) < SETUP_MAX_PROBES
            and time.perf_counter() - started < SETUP_PROBE_S):
        probe = setup_probe(config, os.path.join(work, f"setup{len(probes)}"))
        if probe is None:
            return None
        probes.append(probe)
    return probes


def measure_end_to_end(bench: Invocation, seconds: float, probes: list[dict]) -> dict:
    config = bench.inputs.config
    jobs = os.cpu_count() or 1
    walls, rss = [], []
    first_out = None
    started = time.perf_counter()
    while keep_running(started, seconds, walls, bench.attempted):
        tag = f"run{bench.attempted}"
        out_dir = bench.out_dir(tag)
        child = fungo_run(config, out_dir, jobs, os.path.join(bench.work, tag))
        if bench.check(child, out_dir, tag):
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
            if first_out is None:
                first_out = out_dir
                continue
        shutil.rmtree(out_dir, ignore_errors=True)
        if bench.failed >= MIN_RUNS and not walls:
            break
    quality = read_metrics(first_out) if first_out else {}
    metrics = {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MiB"),
        "success_ratio": (1.0 - bench.folds_failed / bench.folds_attempted, "ratio"),
    }
    for key in QUALITY_METRICS:
        metrics[key] = (quality.get(key, 0.0), "ratio")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "io.bytes_written":
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_layers(bench: Invocation, seconds: float) -> dict:
    config = bench.inputs.config
    out_dir = bench.out_dir("untraced")
    child = fungo_run(config, out_dir, os.cpu_count() or 1,
                      os.path.join(bench.work, "untraced"))
    bench.check(child, out_dir, "untraced")
    traced: list[dict] = []
    durations: list[float] = []
    started = time.perf_counter()
    while keep_running(started, seconds, durations, len(traced) + 1):
        tag = f"traced{len(traced)}"
        out_dir = bench.out_dir(tag)
        result = os.path.join(bench.work, tag + ".json")
        child = spawn([os.path.join(HERE, "tracing.py"), config, out_dir, result],
                      os.path.join(bench.work, tag))
        durations.append(child.wall_s)
        if not bench.check(child, out_dir, tag):
            break
        with open(result, encoding="utf-8") as handle:
            traced.append(json.load(handle))
        shutil.rmtree(out_dir, ignore_errors=True)
    if not traced:
        return {}
    bench.runs[-1]["layers"] = traced[-1]
    return {key: (statistics.median(t[key] for t in traced), unit_of(key))
            for key in traced[0]}


def fingerprint(probe: dict | None) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if probe:
        env.update({k: probe[k] for k in ("numpy", "blas", "has_numba", "engine")})
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "fungo", "cli.py")):
        print(f"error: no fungo sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(workload, args.seed, os.path.join(work, "inputs"))
        bench = Invocation(workload, inputs, work)
        probes = setup_probes(inputs.config, work, bool(args.trace))
        if probes is None:
            print("error: set-up probe failed; see its log", file=sys.stderr)
            return 1
        bench.problems += shape_problems(workload, probes[0])
        if args.trace:
            metrics = measure_layers(bench, args.seconds)
        else:
            metrics = measure_end_to_end(bench, args.seconds, probes)
        env = fingerprint(probes[0])
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "env": env, "shape": probes[0], "runs": bench.runs,
                  "problems": bench.problems,
                  "metrics": {k: v for k, (v, _) in metrics.items()}}
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        with open(os.path.join(WORK, "results", name + ".json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems and bool(metrics),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
