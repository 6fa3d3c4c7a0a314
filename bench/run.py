"""afkit benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; afkit is imported from ``src``.
Each workload runs in worker processes (worker.py) with BLAS pinned to one
thread. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and the environment record. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``failed`` counts operations that failed their gate: they raised, printed a
traceback or something other than one JSON document, exited with the wrong
code, differed from the golden bytes, or produced a witness that does not
replay. ``correct`` is false when any operation produced wrong output; an
operation that crashed without output counts in ``failed`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-pipelines", "deep-tower", "wide-search", "numeric")
# Worker processes that only set up; with the measuring worker they give
# SETUP_SAMPLES spawn-to-ready times, whose median is setup_s.
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
WORKER_GRACE = 150  # seconds a worker may run past --seconds before it is killed


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process and its JSON event lines, read against a deadline."""

    def __init__(self, args: list, deadline: float):
        self.deadline = deadline
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE,
            env=worker_env(),
            cwd=ROOT,
        )
        self.buffer = b""

    def event(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = self.deadline - perf_counter()
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            if not ready:
                self.close()
                raise RuntimeError("worker timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                self.close()
                raise RuntimeError(f"worker exited with code {self.proc.returncode} before reporting")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    args = [name, str(seed), str(seconds), "1" if trace else "0"]
    setup = []
    # setup_s is an end-to-end metric, so the traced run does not sample it.
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        w = Worker(args + ["--setup-only"], perf_counter() + WORKER_GRACE)
        try:
            w.event()
            setup.append(perf_counter() - w.start)
        finally:
            w.close()
    w = Worker(args, perf_counter() + seconds + WORKER_GRACE)
    try:
        w.event()
        setup.append(perf_counter() - w.start)
        result = w.event()
    finally:
        w.close()
    if not trace:
        result["metrics"]["setup_s"] = [statistics.median(setup), "s"]
    result["info"]["setup_samples"] = len(setup)
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    probe = "import numpy, sympy; print(numpy.__version__, sympy.__version__)"
    versions = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=worker_env())
    numpy_v, sympy_v = (versions.stdout.split() + ["unknown", "unknown"])[:2]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_v,
        "sympy": sympy_v,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afkit" / "cli.py").is_file():
        print(f"bench: no afkit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out["correct"] = out["correct"] and result["wrong"] == 0
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        print(f"== {name}: {result['attempted']} ops attempted, {result['failed']} failed ({result['wrong']} wrong)")
        for metric, (value, unit) in result["metrics"].items():
            print(f"   {metric:40s} {value:14.6g} {unit}")
            out["metrics"][prefix + metric] = {"value": value, "unit": unit}
        for op, reason in result["failures"].items():
            print(f"   FAILED {op}: {reason}")
        record = dict(env, workload=name, ops_attempted=result["attempted"], ops_failed=result["failed"], **result["info"])
        print("   environment " + json.dumps(record, sort_keys=True))
        (BENCH / "out").mkdir(exist_ok=True)
        (BENCH / "out" / f"result-{name}{'-trace' if args.trace else ''}.json").write_text(
            json.dumps({"environment": record, "result": result}, indent=1, sort_keys=True) + "\n"
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
