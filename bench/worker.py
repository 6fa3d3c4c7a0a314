"""One workload in one process: set up, signal ready, measure, report.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

run.py starts this with BLAS pinned to one thread and ``src`` on the path. It
prints JSON events on stdout: ``{"event": "ready"}`` once inputs are built and
warm-up is done, then (unless --setup-only) one ``{"event": "result", ...}``.

Passes over the workload's fixed operation list repeat until the next one
would overrun SECONDS. Gates run after each pass's calls, outside its timing.
With TRACE 1, one untraced pass comes first, then traced passes; counts come
from the first traced pass and self times are medians over traced passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import pipelines  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, NUMERIC_COMMANDS, Tracer  # noqa: E402

# call_tail_s is this percentile: the highest that leaves at least ten samples
# beyond it on every workload at the baseline. It is fixed, not derived from
# the sample count, so a change that alters how many calls fit in a run does
# not change which percentile is compared.
TAIL_PERCENTILE = 75
IMPORT_PROBES = 5
FAMILIES = ("equiv", "query", "simple")


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


@dataclass
class Outcome:
    name: str
    seconds: float  # wall time
    reason: Optional[str]  # None when the operation passed its gate
    wrong: bool  # it produced output, and the output is wrong
    cpu: float = 0.0  # CPU time of this process, for in-process operations


def hd_quantile(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics. The
    operations of a workload differ in cost by design, so a plain quantile
    can sit on a jump between two of them and swing with noise; this one
    moves smoothly. Needs at least four samples.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 4:
        raise ValueError("Harrell-Davis quantile needs at least four samples")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    density = np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid) - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2 * np.diff(grid))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=cdf[-1]))
    return float(weights @ x / weights.sum())


def depth_exponent(outcomes: list, depth_of: dict) -> tuple:
    """Least-squares slope of log(rung time) on log T, and the rungs used.

    A rung's time is the sum, over the distinct operations of that rung, of
    the least CPU time of each operation across its repetitions. CPU time and
    its minimum: a scaling law should not move with other load on the host,
    and that load only ever adds time.
    """
    times: dict = {}
    for o in outcomes:
        if o.name in depth_of and o.reason is None:
            times.setdefault(o.name, []).append(o.cpu)
    rungs: dict = {}
    for name, ts in times.items():
        rungs[depth_of[name]] = rungs.get(depth_of[name], 0.0) + min(ts)
    Ts = sorted(rungs)
    if len(Ts) < 2:
        return float("nan"), Ts
    xs = [math.log(T) for T in Ts]
    ys = [math.log(rungs[T]) for T in Ts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return slope, Ts


def run_ops(ops: list, tracer: Optional[Tracer] = None) -> tuple:
    """Call every op, then gate every result; returns (wall seconds of the calls, outcomes)."""
    results = []
    t_pass = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        c0, t0 = process_time(), perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a raising operation is a counted failure, and the run goes on
            result, error = None, f"raised {type(exc).__name__}"
        results.append((perf_counter() - t0, process_time() - c0, result, error))
        if tracer is not None:
            tracer.stack.clear()  # spans left open by an exception
    wall = perf_counter() - t_pass
    outcomes = []
    for i, (op, (seconds, cpu, result, error)) in enumerate(zip(ops, results)):
        if tracer is not None:
            tracer.op = i
        reason = error if error is not None else op.check(result)
        outcomes.append(Outcome(op.name, seconds, reason, error is None and reason is not None, cpu))
    return wall, outcomes


class InProcess:
    """deep-tower, wide-search and numeric: library calls in this process."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.golden = workloads.Golden()
        self.workload = workloads.IN_PROCESS[name](seed, self.golden)
        self.names = [op.name for op in self.workload.ops]

    def warm_up(self) -> None:
        for op in self.workload.warmup:
            op.call()

    def run_pass(self, tracer: Optional[Tracer] = None) -> tuple:
        return run_ops(self.workload.ops, tracer)

    def rungs(self) -> list:
        return [op for op in self.workload.ops if op.family]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self) -> dict:
        return {"cli.import_s": (0.0, "s"), "cli.numpy_loaded": (0, "count")}


class Cli:
    """cli-pipelines: one afkit process per stage."""

    def __init__(self, seed: int):
        self.seed = seed
        self.env = dict(os.environ)
        self.pipelines = pipelines.pipelines(seed)
        self.names = [f"{p.name}.{s.name}" for p in self.pipelines for s in p.stages]
        workdir = OUT / "work-cli"
        workdir.mkdir(parents=True, exist_ok=True)
        self.executor = pipelines.Executor(ROOT, workdir, self.env, workloads.Golden())
        self.numpy_loaded = 0

    def warm_up(self) -> None:
        stage = pipelines.Stage("gen", ("gen", "car", "--depth", "2"))
        self.executor.run(pipelines.Pipeline("warm-up", [stage], {}), trace=False)

    def run_pass(self, tracer: Optional[Tracer] = None) -> tuple:
        outcomes = []
        t_pass = perf_counter()
        for pipeline in self.pipelines:
            commands = {s.name: s.args[0] for s in pipeline.stages}
            for r in self.executor.run(pipeline, trace=tracer is not None):
                outcomes.append(Outcome(f"{r.pipeline}.{r.stage}", r.seconds, r.reason, r.wrong))
                if tracer is not None and r.trace is not None:
                    tracer.add_summary(r.trace)
                    if r.trace["numpy_loaded"] and commands[r.stage] not in NUMERIC_COMMANDS:
                        self.numpy_loaded = 1
        return perf_counter() - t_pass, outcomes

    def rungs(self) -> list:
        return []

    def peak_rss_mb(self) -> float:
        # The largest child: ru_maxrss of RUSAGE_CHILDREN is a maximum, not a sum.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_extras(self) -> dict:
        return {"cli.import_s": (self.import_seconds(), "s"), "cli.numpy_loaded": (self.numpy_loaded, "count")}

    def import_seconds(self) -> float:
        """Median child `import afkit.cli` time minus that of a bare interpreter."""
        bare, full = [], []
        for _ in range(IMPORT_PROBES):
            for code, sink in (("pass", bare), ("import afkit.cli", full)):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True, capture_output=True)
                sink.append(perf_counter() - t0)
        return statistics.median(full) - statistics.median(bare)


def measure(runner, seconds: float) -> dict:
    """Untraced passes until the next would overrun `seconds`."""
    outcomes, batches = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, got = runner.run_pass()
        outcomes += got
        batches.append(wall)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    calls = [o.seconds for o in outcomes if o.reason is None]
    ladder = runner.rungs()
    probe = []
    if not ladder:
        ladder = workloads.probe_ops(runner.seed, workloads.Golden())
        _, probe = run_ops(ladder)
    exps, rungs = {}, {}
    for fam in FAMILIES:
        depth_of = {op.name: op.depth for op in ladder if op.family == fam}
        exps[fam], rungs[fam] = depth_exponent(outcomes + probe, depth_of)
    metrics = {
        "batch_s": (statistics.median(batches), "s"),
        "call_p50_s": (hd_quantile(calls, 0.5), "s"),
        "call_tail_s": (hd_quantile(calls, TAIL_PERCENTILE / 100), "s"),
        "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
        "equiv_depth_exp": (exps["equiv"], "1"),
        "query_depth_exp": (exps["query"], "1"),
        "simple_depth_exp": (exps["simple"], "1"),
    }
    info = {
        "passes": len(batches),
        "call_samples": len(calls),
        "call_tail_percentile": TAIL_PERCENTILE,
        "exponent_rungs": rungs,
        "exponents_from": "probe ladder" if probe else "timed passes",
    }
    return {"metrics": metrics, "outcomes": outcomes + probe, "info": info}


def measure_traced(runner, seconds: float, spans_path: Path) -> dict:
    """One untraced pass, then traced passes until the next would overrun `seconds`."""
    start = perf_counter()
    untraced, reference = runner.run_pass()
    outcomes = list(reference)
    tracer = Tracer()
    layers, batches = [], []
    while True:
        t0 = perf_counter()
        tracer.reset()
        tracer.install()
        try:
            wall, got = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        batches.append(wall)
        layers.append(tracer.layer_values())
        for o, ref in zip(got, reference):
            if (o.reason is None) != (ref.reason is None):
                o.reason = o.reason or f"traced verdict differs from untraced: {ref.reason}"
                o.wrong = True
        outcomes += got
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    metrics = {}
    for metric, unit in LAYER_METRICS:
        values = [layer[metric] for layer in layers]
        metrics[metric] = (values[0] if unit == "count" else statistics.median(values), unit)
    metrics.update(runner.layer_extras())
    traced = statistics.median(batches)
    metrics["trace.batch_s"] = (traced, "s")
    metrics["trace.untraced_batch_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    if len(tracer.start):
        tracer.write_spans(str(spans_path), runner.names)
    info = {"passes": 1 + len(batches), "spans": str(spans_path.relative_to(ROOT)) if len(tracer.start) else None}
    return {"metrics": metrics, "outcomes": outcomes, "info": info}


def main(argv: list) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    OUT.mkdir(exist_ok=True)
    runner = Cli(seed) if name == "cli-pipelines" else InProcess(name, seed)
    runner.warm_up()
    emit({"event": "ready"})
    if "--setup-only" in argv:
        return 0
    if trace:
        got = measure_traced(runner, seconds, OUT / f"spans-{name}.bin")
    else:
        got = measure(runner, seconds)
    outcomes = got["outcomes"]
    failures: dict = {}
    for o in outcomes:
        if o.reason is not None:
            failures.setdefault(o.name, o.reason)
    emit(
        {
            "event": "result",
            "metrics": got["metrics"],
            "info": got["info"],
            "attempted": len(outcomes),
            "failed": sum(o.reason is not None for o in outcomes),
            "wrong": sum(o.wrong for o in outcomes),
            "failures": failures,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
