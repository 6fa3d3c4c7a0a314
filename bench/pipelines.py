"""cli-pipelines: the README pipelines as sequential ``afkit`` processes.

Each stage is one process, started through ``cli_runner.py``. The harness
feeds a stage's stdout to the next stage's stdin itself (no shell pipe), so
stages never run at the same time. A stage argument ``@name`` is a file
holding the output of the earlier stage ``name`` (``@name:key`` holds one key
of that JSON output); ``stdin`` names the stage whose output is piped in.

The seed picks pipeline variants from fixed menus, so golden hashes for
every stage of every variant could be recorded at the baseline commit. Most
stages are cheap conversions, as in typical use; the few heavy ones (the
depth-1200 chain, `moduli --n 25`, `perturb-demo`) stay well above the p75
call latency, so that p75 does not sit on the jump between the two groups.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from afkit import bratteli, elliott, jsonio

import workloads

RUNNER = Path(__file__).with_name("cli_runner.py")

CAR_DEPTHS = (6, 7, 8, 9, 10)
TRACE_VARIANTS = (("1,2,-,3", 6), ("2,-,1,4,-", 8), ("1,1,2,-,3", 10), ("x,2,3", 6), ("3,1,-,-,2", 8), ("1,-,-,2,2", 10))
UNITALIZE_SEEDS = range(4)
SHEN_SEEDS = range(4)
K0_SEEDS = range(4)
MODULI_VARIANTS = (("1/3", 3, 2), ("1/2", 4, 3), ("2/5", 5, 2), ("1/4", 6, 1))
PERTURB_SEEDS = range(8)
# The one heavy moduli call; DeltaGlimm(25, 8) runs an uncached Fraction recursion.
HEAVY_MODULI = ("moduli", "--n", "25", "--k", "8")
CRASH_DEPTH = workloads.CRASH_DEPTH
STAGE_TIMEOUT = 60


@dataclass
class Stage:
    name: str
    args: tuple
    stdin: Optional[str] = None
    # Stages without a golden record (the known crash) are judged only by
    # exit code 0 and their semantic gate.
    golden: bool = True
    gate: Optional[Callable[[dict, object], Optional[str]]] = None  # (outputs, parsed stdout)


@dataclass
class Pipeline:
    name: str
    stages: list
    inputs: dict  # literal payloads addressable like stage outputs


def _zigzag_gate(cert_stage: str, depth: int):
    def gate(outputs, parsed):
        if parsed.get("status") != "ok":
            return f"zigzag status {parsed.get('status')!r}"
        cert = jsonio.certificate_from_obj(json.loads(outputs[cert_stage]))
        witness = jsonio.zigzag_from_obj(parsed["witness"])
        if witness.depth != depth:
            return f"zigzag reached depth {witness.depth} of {depth}"
        if not elliott.verify_zigzag(witness, cert, cert):
            return "zigzag witness fails verify_zigzag"
        return None

    return gate


def _equiv_gate(left: str, right: str):
    def gate(outputs, parsed):
        if parsed.get("status") != "ok":
            return f"equiv status {parsed.get('status')!r}"
        d1 = jsonio.diagram_from_obj(json.loads(outputs[left]))
        d2 = jsonio.diagram_from_obj(json.loads(outputs[right]))
        if not bratteli.replay_equivalence(jsonio.equivalence_from_obj(parsed["witness"]), d1, d2):
            return "equivalence witness does not replay"
        return None

    return gate


def car_pipeline(depth: int) -> Pipeline:
    D = str(depth)
    return Pipeline(
        f"car-{depth}",
        [
            Stage("gen", ("gen", "car", "--depth", D)),
            Stage("seq", ("diagram-to-af", "-"), "gen"),
            Stage("cert", ("af-to-cert", "-"), "seq"),
            Stage("zigzag", ("zigzag", "-", "@cert", "--depth", D), "cert", gate=_zigzag_gate("cert", depth)),
            Stage("verify", ("verify-zigzag", "@zigzag:witness", "@cert", "@cert")),
            Stage("supernatural", ("supernatural", "-", "--depth", D), "gen"),
            Stage("simple", ("simple", "-"), "gen"),
            Stage("validate", ("validate", "-"), "seq"),
            Stage("path-count", ("path-count", "-", "--from", "0,0", "--to", f"{D},0"), "gen"),
            Stage("cert-to-af", ("cert-to-af", "-"), "cert"),
            Stage("af-to-diagram", ("af-to-diagram", "-"), "seq"),
            Stage("validate-cert", ("validate", "-"), "cert"),
        ],
        {},
    )


def trace_pipeline(table: str, depth: int) -> Pipeline:
    stages = ",".join(str(s) for s in range(0, depth + 1, 2))
    return Pipeline(
        f"trace-{table}-{depth}",
        [
            Stage("gen", ("gen", "trace", "--depth", str(depth), "--table", table)),
            Stage("telescope", ("telescope", "-", "--stages", stages), "gen"),
            Stage("equiv", ("equiv", "@gen", "@telescope"), gate=_equiv_gate("gen", "telescope")),
            Stage("validate", ("validate", "-"), "telescope"),
            Stage("simple", ("simple", "-"), "gen"),
            Stage("seq", ("diagram-to-af", "-"), "gen"),
            Stage("cert", ("af-to-cert", "-"), "seq"),
            Stage("path-count", ("path-count", "-", "--from", "0,0", "--to", f"{depth},0"), "gen"),
        ],
        {},
    )


def unitalize_payload(seed: int) -> str:
    """Rank-3 tower whose middle unit coordinate is 0 at every stage."""
    rnd = random.Random(seed)
    units = [(rnd.randint(1, 3), 0, rnd.randint(1, 3))]
    bonds = []
    for _ in range(5):
        a, c, d, e = (rnd.randint(0, 2) for _ in range(4))
        a, e = a + 1, e + 1
        bond = ((a, rnd.randint(0, 2), c), (0, rnd.randint(1, 2), 0), (d, rnd.randint(0, 2), e))
        u = units[-1]
        units.append((a * u[0] + c * u[2], 0, d * u[0] + e * u[2]))
        bonds.append([list(r) for r in bond])
    obj = {"stages": [{"rank": 3, "unit": list(u)} for u in units], "bonds": bonds, "unital": False}
    return jsonio.canonical_dumps(obj)


def unitalize_pipeline(seed: int) -> Pipeline:
    return Pipeline(
        f"unitalize-{seed}",
        [
            Stage("unitalize", ("unitalize", "-"), "input"),
            Stage("validate", ("validate", "-"), "unitalize"),
            Stage("cert-to-af", ("cert-to-af", "-"), "unitalize"),
            Stage("af-to-diagram", ("af-to-diagram", "-"), "cert-to-af"),
        ],
        {"input": unitalize_payload(seed)},
    )


def k0_pipeline(seed: int) -> Pipeline:
    rnd = random.Random(seed)
    algebra = {"summands": [rnd.randint(1, 9) for _ in range(rnd.randint(1, 5))]}
    return Pipeline(f"k0-{seed}", [Stage("k0", ("k0", "-"), "input")], {"input": jsonio.canonical_dumps(algebra)})


def shen_pipeline(seed: int) -> Pipeline:
    rnd = random.Random(seed)
    p, q = rnd.randint(1, 9), rnd.randint(1, 9)
    payload = {
        "cert": jsonio.certificate_to_obj(workloads.cert_of(workloads.full_two_tower(6))),
        "theta": {"stage": 0, "matrix": [[p, q], [q, p]], "positive": True},
        "alpha": [1, -1],
    }
    return Pipeline(f"shen-{seed}", [Stage("shen", ("shen", "-"), "input")], {"input": jsonio.canonical_dumps(payload)})


def moduli_pipeline(eps: str, n: int, k: int) -> Pipeline:
    return Pipeline(
        f"moduli-{eps.replace('/', '_')}-{n}-{k}",
        [Stage("heavy", HEAVY_MODULI), Stage("moduli", ("moduli", "--eps", eps, "--n", str(n), "--k", str(k)))],
        {},
    )


def perturb_pipeline(seed: int) -> Pipeline:
    args = ("perturb-demo", "--n", "2", "--k", "4", "--seed", str(seed), "--sizes", "1,2")
    return Pipeline(f"perturb-{seed}", [Stage("demo", args)], {})


def crash_pipeline() -> Pipeline:
    D = str(CRASH_DEPTH)
    return Pipeline(
        f"car-zigzag-{CRASH_DEPTH}",
        [
            Stage("gen", ("gen", "car", "--depth", D)),
            Stage("seq", ("diagram-to-af", "-"), "gen"),
            Stage("cert", ("af-to-cert", "-"), "seq"),
            Stage(
                "zigzag",
                ("zigzag", "-", "@cert", "--depth", D),
                "cert",
                golden=False,
                gate=_zigzag_gate("cert", CRASH_DEPTH),
            ),
        ],
        {},
    )


def pipelines(seed: int) -> list:
    rnd = random.Random(seed)
    return [
        *(car_pipeline(d) for d in rnd.sample(CAR_DEPTHS, 2)),
        trace_pipeline(*rnd.choice(TRACE_VARIANTS)),
        unitalize_pipeline(rnd.choice(UNITALIZE_SEEDS)),
        k0_pipeline(rnd.choice(K0_SEEDS)),
        shen_pipeline(rnd.choice(SHEN_SEEDS)),
        moduli_pipeline(*rnd.choice(MODULI_VARIANTS)),
        perturb_pipeline(rnd.choice(PERTURB_SEEDS)),
        crash_pipeline(),
    ]


def every_variant() -> list:
    """Every pipeline any seed can draw, for recording golden hashes."""
    return (
        [car_pipeline(d) for d in CAR_DEPTHS]
        + [trace_pipeline(t, d) for t, d in TRACE_VARIANTS]
        + [unitalize_pipeline(s) for s in UNITALIZE_SEEDS]
        + [k0_pipeline(s) for s in K0_SEEDS]
        + [shen_pipeline(s) for s in SHEN_SEEDS]
        + [moduli_pipeline(*v) for v in MODULI_VARIANTS]
        + [perturb_pipeline(s) for s in PERTURB_SEEDS]
        + [crash_pipeline()]
    )


@dataclass
class StageResult:
    pipeline: str
    stage: str
    seconds: float
    reason: Optional[str]  # None when the stage passed its gate
    wrong: bool  # the stage produced output, and that output is wrong
    trace: Optional[dict] = None


class Executor:
    """Runs pipelines stage by stage in ``workdir`` with the given environment."""

    def __init__(self, root: Path, workdir: Path, env: dict, golden: workloads.Golden):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.golden = golden

    def _resolve(self, ref: str, outputs: dict) -> str:
        name, _, key = ref.partition(":")
        text = outputs[name]
        if key:
            text = jsonio.canonical_dumps(json.loads(text)[key])
        return text

    def run(self, pipeline: Pipeline, trace: bool) -> list:
        outputs = dict(pipeline.inputs)
        results = []
        for stage in pipeline.stages:
            refs = [a[1:] for a in stage.args if a.startswith("@")]
            if stage.stdin is not None:
                refs.append(stage.stdin)
            if any(r.partition(":")[0] not in outputs for r in refs):
                results.append(StageResult(pipeline.name, stage.name, 0.0, "upstream stage failed", False))
                continue
            result, stdout = self.run_stage(pipeline, stage, outputs, trace)
            results.append(result)
            if result.reason is None or result.wrong:
                outputs[stage.name] = stdout
        return results

    def run_stage(self, pipeline: Pipeline, stage: Stage, outputs: dict, trace: bool):
        args, key_args = [], []
        for i, a in enumerate(stage.args):
            if a.startswith("@"):
                text = self._resolve(a[1:], outputs)
                path = self.workdir / f"{pipeline.name}.{stage.name}.{i}.json"
                path.write_text(text)
                args.append(str(path))
                key_args.append("@" + workloads.digest(text))
            else:
                args.append(a)
                key_args.append(a)
        stdin = self._resolve(stage.stdin, outputs) if stage.stdin is not None else ""
        key = workloads.digest(json.dumps([key_args, workloads.digest(stdin)]))
        trace_path = self.workdir / f"{pipeline.name}.{stage.name}.trace.json"
        cmd = [sys.executable, str(RUNNER), str(trace_path) if trace else "-", *args]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, input=stdin.encode("utf-8"), capture_output=True, env=self.env, cwd=self.root, timeout=STAGE_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return StageResult(pipeline.name, stage.name, perf_counter() - t0, "timed out", False), ""
        seconds = perf_counter() - t0
        stdout = proc.stdout.decode("utf-8", errors="replace")
        summary = None
        if trace and trace_path.exists():
            summary = json.loads(trace_path.read_text())
            trace_path.unlink()

        def done(reason, wrong=False):
            return StageResult(pipeline.name, stage.name, seconds, reason, wrong, summary), stdout

        if b"Traceback" in proc.stderr:
            last = proc.stderr.decode("utf-8", errors="replace").strip().splitlines()[-1]
            return done(f"traceback, exit {proc.returncode}: {last[:120]}")
        try:
            parsed = json.loads(stdout)
        except json.JSONDecodeError:
            return done(f"stdout is not one JSON document (exit {proc.returncode})")
        if stage.golden:
            reason = self.golden.check("cli", key, [proc.returncode, workloads.digest(stdout)])
            if reason is not None:
                return done(f"{' '.join(stage.args[:2])}: {reason}", True)
        elif proc.returncode != 0:
            return done(f"exit {proc.returncode}", True)
        if stage.gate is not None:
            reason = stage.gate(outputs, parsed)
            if reason is not None:
                return done(reason, True)
        return done(None)
