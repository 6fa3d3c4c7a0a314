"""Record golden.json: the canonical-JSON hashes and exit codes every gate compares to.

    PYTHONPATH=src python3 bench/record_golden.py

Run it at the baseline commit only: it calls every seed-independent
operation of every workload, and every stage of every pipeline variant a
seed can draw, and stores what the code under test returns. The known
crash (the CAR zigzag at depth 1200) gets no record; its gate asks for a
replayable witness instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import pipelines  # noqa: E402
import workloads  # noqa: E402
from run import worker_env  # noqa: E402
from worker import run_ops  # noqa: E402


def main() -> int:
    golden = workloads.Golden(record=True)
    failures = []
    ops = workloads.deep_tower(0, golden).ops + workloads.probe_ops(0, golden) + workloads.numeric(0, golden).ops
    for o in run_ops(ops)[1]:
        if o.reason is not None:
            failures.append(f"{o.name}: {o.reason}")
    workdir = BENCH / "out" / "work-golden"
    workdir.mkdir(parents=True, exist_ok=True)
    executor = pipelines.Executor(ROOT, workdir, worker_env(), golden)
    for pipeline in pipelines.every_variant():
        for r in executor.run(pipeline, trace=False):
            if r.reason is not None:
                failures.append(f"{r.pipeline}.{r.stage}: {r.reason}")
    golden.save()
    for line in failures:
        print("not recorded:", line)
    print(f"{len(golden.data['inprocess'])} in-process and {len(golden.data['cli'])} CLI records in {golden.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
