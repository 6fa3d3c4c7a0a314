"""The four benchmark workloads: seeded inputs, operation lists and gates.

Every workload is closed-loop with one client: each operation starts after
the previous one ends. An operation's gate returns None when its output is
correct and a one-line reason otherwise. Gates compare against golden
canonical-JSON hashes recorded at the baseline commit (``golden.json``), and
re-check every witness by replaying it.

The seed only draws inputs; the structure of each workload (tower shapes,
ladders, pipeline lists) is fixed, so every seed asks for the same amount of
work and runs of different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from afkit import bratteli, dimgroup, elliott, jsonio, perturb
from afkit.dimgroup import LimitElement, LimitHom
from afkit.findim import AlgebraHom, FinDimAlgebra
from afkit.ordgrp import PosMatrix

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Depth ladders of deep-tower: T -> repetitions per pass. Small rungs repeat
# so that no rung time is a single millisecond-scale sample, and often enough
# that the workload's median and p75 call latencies fall inside a cluster of
# repetitions (equiv T=50 and T=100) rather than on a jump between two
# operations.
EQUIV_RUNGS = {50: 17, 100: 7, 200: 1, 400: 1}
QUERY_RUNGS = {100: 10, 200: 2, 400: 3, 800: 1}
SIMPLE_RUNGS = {100: 4, 200: 2, 400: 1}
ZIGZAG_RUNGS = (100, 200, 400, 800, 1200)  # CAR against CAR/2: T/2 - 1 rounds
# build_zigzag recurses once per round. CAR against itself with this many
# rounds raises RecursionError at the baseline commit; the operation stays in
# the data and counts as failed.
CRASH_DEPTH = 1200

# The smaller ladder behind the depth exponents of the other workloads
# (see probe_ops). It runs once after the timed passes, outside batch_s.
PROBE_RUNGS = {
    "equiv": {40: 7, 80: 4, 160: 2},
    "query": {100: 3, 200: 2, 400: 2},
    "simple": {50: 5, 100: 3, 200: 2},
}

# wide-search: (width, depth, structure seed). Fixed structures; the run seed
# draws the relabellings. The cheap width-4 searches keep at least 40 calls in
# a run, so that p75 has ten samples beyond it.
WIDE_EQUIV = ((6, 4, 7), (5, 6, 1), (5, 6, 2), (5, 5, 3), (4, 5, 4), (4, 6, 9), (4, 5, 10), (4, 6, 12))
WIDE_ZIGZAG = ((4, 4, 5), (4, 4, 8))
WIDE_BUDGET = 3_000_000

NUMERIC_DEFECT = ((4, 6, 8),)  # canonical systems, N = sum n^2 = 116
NUMERIC_EMBED = (((2, 3, 4), (9, 18), ((1, 1, 1), (2, 2, 2))),)  # source, target, mult
NUMERIC_EXCHANGE = ((2, 16), (4, 32), (8, 64), (8, 128))  # (n, d), k = 4
NUMERIC_GLIMM = ((1, 2), (2, 3), (1, 2, 3), (3, 5, 8))  # block sizes, k = 3
NUMERIC_MODULI = ((5, 8), (10, 8), (25, 8))  # DeltaGlimm(n, k); Delta4 at the last
DEFECT_TOL = 1e-10


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:32]


class Golden:
    """Golden hashes keyed by operation; in record mode, checks store instead."""

    def __init__(self, record: bool = False, path: Path = GOLDEN_PATH):
        self.record = record
        self.path = path
        self.data = {"inprocess": {}, "cli": {}}
        if not record:
            self.data = json.loads(path.read_text())

    def check(self, table: str, key: str, value) -> Optional[str]:
        if self.record:
            self.data[table][key] = value
            return None
        want = self.data[table].get(key)
        if want is None:
            return f"no golden record for {key}"
        if want != value:
            return f"output differs from golden ({value} != {want})"
        return None

    def canonical(self, key: str, obj) -> Optional[str]:
        return self.check("inprocess", key, digest(jsonio.canonical_dumps(obj)))

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` gates its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    family: Optional[str] = None  # depth-exponent family, with its rung depth
    depth: Optional[int] = None


@dataclass
class Workload:
    ops: list
    warmup: list  # cheap calls made once before timing; their results are not gated


def first_of(ops: list, names: tuple) -> list:
    """The first op of each given name, for warm-up."""
    return [next(op for op in ops if op.name == name) for name in names]


# -- inputs -------------------------------------------------------------------


def full_two_tower(depth: int) -> bratteli.LabeledBratteliDiagram:
    """Two vertices per level, every edge matrix [[1,1],[1,1]]."""
    levels = tuple((2**s, 2**s) for s in range(depth + 1))
    edges = tuple(PosMatrix(((1, 1), (1, 1))) for _ in range(depth))
    return bratteli.LabeledBratteliDiagram(levels, edges, unital=True)


def car_half(depth: int):
    car = bratteli.gen_car(depth)
    return car, bratteli.telescope(car, range(0, depth + 1, 2))


def cert_of(diagram) -> dimgroup.DimCertificate:
    return dimgroup.certificate_of_af(bratteli.af_sequence_of_diagram(diagram))


def wide_diagram(width: int, depth: int, structure_seed: int) -> bratteli.LabeledBratteliDiagram:
    """Root, then `depth` levels of `width` vertices with equal labels.

    Every row of a gap matrix holds two edges, so each level's labels are
    equal and label-preserving bijections are all permutations of the level.
    """
    rnd = random.Random(structure_seed)
    levels = [(1,), (1,) * width]
    edges = [PosMatrix(tuple((1,) for _ in range(width)))]
    for _ in range(depth - 1):
        while True:
            rows = []
            for _ in range(width):
                row = [0] * width
                for _ in range(2):
                    row[rnd.randrange(width)] += 1
                rows.append(tuple(row))
            if all(any(r[j] for r in rows) for j in range(width)):
                break
        edges.append(PosMatrix(tuple(rows)))
        levels.append((levels[-1][0] * 2,) * width)
    return bratteli.LabeledBratteliDiagram(tuple(levels), tuple(edges), unital=True)


def _random_level_perms(rnd: random.Random, diagram) -> list:
    perms = []
    for level in diagram.levels:
        perm = list(range(len(level)))
        rnd.shuffle(perm)
        perms.append(perm)
    return perms


def antithetic_relabellings(rnd: random.Random, diagram) -> tuple:
    """A random relabelling and its mirror (i -> n-1-sigma(i) on every level).

    Equivalence search enumerates label bijections lexicographically, so the
    two land at complementary positions.
    """
    perms = _random_level_perms(rnd, diagram)
    mirror = [[len(p) - 1 - x for x in p] for p in perms]
    return bratteli.apply_iso(diagram, perms), bratteli.apply_iso(diagram, mirror)


def cyclic_relabellings(rnd: random.Random, diagram) -> list:
    """A random relabelling followed by each cyclic shift of its vertex images."""
    perms = _random_level_perms(rnd, diagram)
    width = max(len(p) for p in perms)
    return [bratteli.apply_iso(diagram, [[(x + k) % len(p) for x in p] for p in perms]) for k in range(width)]


# -- gates --------------------------------------------------------------------


def equivalence_gate(left, right, golden: Optional[Golden] = None, key: str = ""):
    def check(witness):
        if witness is None:
            return "no equivalence witness within budget"
        if not bratteli.replay_equivalence(witness, left, right):
            return "equivalence witness does not replay"
        if golden is not None:
            return golden.canonical(key, jsonio.equivalence_to_obj(witness))
        return None

    return check


def zigzag_gate(cert_a, cert_b, depth: int, golden: Optional[Golden] = None, key: str = ""):
    def check(witness):
        if witness.depth != depth:
            return f"zigzag reached depth {witness.depth} of {depth}"
        if not elliott.verify_zigzag(witness, cert_a, cert_b):
            return "zigzag witness fails verify_zigzag"
        if golden is not None:
            return golden.canonical(key, jsonio.zigzag_to_obj(witness))
        return None

    return check


def every_gate(gates: list):
    """Gate a list of results, one gate each; the first failure is the reason."""

    def check(results):
        return next((r for gate, got in zip(gates, results) if (r := gate(got)) is not None), None)

    return check


def verdict_gate(status: str, stage: int):
    def check(verdict):
        if (verdict.status, verdict.stage) != (status, stage):
            return f"verdict {verdict.status}@{verdict.stage}, expected {status}@{stage}"
        return None

    return check


# -- depth ladders ------------------------------------------------------------


def ladder_ops(rnd: random.Random, golden: Golden, prefix: str, rungs: dict) -> list:
    """Operations of the three exponent families over the given rungs.

    Repetitions are interleaved round-robin across rungs, so that a slow
    stretch of the host (a clock ramping up after idling, say) does not land
    on every repetition of one rung.
    """
    groups = []
    for T, reps in rungs.get("equiv", {}).items():
        car, half = car_half(T)
        gate = equivalence_gate(car, half, golden, f"car-half-equiv-T{T}")
        groups.append([Op(f"{prefix}equiv-T{T}", lambda c=car, h=half: bratteli.equivalence_search(c, h), gate, "equiv", T)] * reps)
    for T, reps in rungs.get("query", {}).items():
        cert = cert_of(bratteli.gen_car(T))
        gate = verdict_gate("unknown", T)
        group = []
        for _ in range(reps):
            # CAR bonds double, so distinct elements never merge and a
            # negative element never turns positive: both verdicts are unknown@T.
            a, b = rnd.sample(range(1, 1000), 2)
            c = rnd.randrange(1, 1000)
            ea, eb, ec = LimitElement(0, (a,)), LimitElement(0, (b,)), LimitElement(0, (-c,))
            group.append(Op(f"{prefix}eq-T{T}", lambda x=cert, p=ea, q=eb: dimgroup.eq_at_depth(x, p, q), gate, "query", T))
            group.append(Op(f"{prefix}pos-T{T}", lambda x=cert, p=ec: dimgroup.positive_at_depth(x, p), gate, "query", T))
        groups.append(group)
    for T, reps in rungs.get("simple", {}).items():
        tower = full_two_tower(T)

        def simple_gate(verdict, T=T):
            if not verdict.witnessed or verdict.depth != T:
                return f"simplicity window not witnessed at depth {T}"
            return None

        groups.append([Op(f"{prefix}simple-T{T}", lambda d=tower: bratteli.simplicity_window(d), simple_gate, "simple", T)] * reps)
    ops = []
    for i in range(max(len(g) for g in groups)):
        ops += [g[i] for g in groups if i < len(g)]
    return ops


def probe_ops(seed: int, golden: Golden) -> list:
    """The exponent ladder of the workloads without depth rungs of their own."""
    return ladder_ops(random.Random(seed), golden, "probe-", PROBE_RUNGS)


def deep_tower(seed: int, golden: Golden) -> Workload:
    rnd = random.Random(seed)
    ops = ladder_ops(rnd, golden, "", {"equiv": EQUIV_RUNGS, "query": QUERY_RUNGS, "simple": SIMPLE_RUNGS})
    for T in ZIGZAG_RUNGS:
        car, half = car_half(T)
        ca, cb = cert_of(car), cert_of(half)
        rounds = T // 2 - 1
        gate = zigzag_gate(ca, cb, rounds, golden, f"car-half-zigzag-T{T}")
        ops.append(Op(f"zigzag-T{T}", lambda a=ca, b=cb, r=rounds: elliott.build_zigzag(a, b, r), gate))
    crash = cert_of(bratteli.gen_car(CRASH_DEPTH))
    ops.append(
        Op(
            f"zigzag-car-T{CRASH_DEPTH}",
            lambda: elliott.build_zigzag(crash, crash, CRASH_DEPTH),
            zigzag_gate(crash, crash, CRASH_DEPTH),
        )
    )
    for T in SIMPLE_RUNGS:
        tower = full_two_tower(T)
        ops.append(
            Op(
                f"telescope-T{T}",
                lambda d=tower, T=T: bratteli.telescope(d, range(0, T + 1, 2)),
                lambda out, T=T: golden.canonical(f"two-tower-telescope-T{T}", jsonio.diagram_to_obj(out)),
            )
        )
    ops.append(shen_op(rnd))
    warm = ("equiv-T50", "eq-T100", "pos-T100", "simple-T100", "zigzag-T100", "telescope-T100", "shen")
    return Workload(ops, first_of(ops, warm))


def shen_op(rnd: random.Random) -> Op:
    """Factor a random positive hom through the two-tower stage killing (1,-1)."""
    cert = cert_of(full_two_tower(8))
    p, q = rnd.randrange(1, 50), rnd.randrange(1, 50)
    theta = LimitHom(0, ((p, q), (q, p)), positive=True)
    alpha = (1, -1)

    def check(result):
        phi, theta_prime = result
        # Independent oracle: the first stage where [[1,1],[1,1]]^t kills
        # theta @ alpha = (p-q, q-p) is t = 0 when p == q and t = 1 otherwise.
        stage = 0 if p == q else 1
        want = [[p, q], [q, p]] if stage == 0 else [[p + q, p + q], [p + q, p + q]]
        if theta_prime.stage != stage or [list(r) for r in phi.entries] != want:
            return "shen factor differs from the oracle"
        if any(sum(x * a for x, a in zip(row, alpha)) for row in phi.entries):
            return "phi does not kill alpha"
        return None

    return Op("shen", lambda: dimgroup.shen_factor(cert, theta, alpha), check)


def wide_search(seed: int, golden: Golden) -> Workload:
    """Each operation matches one diagram against a set of its relabellings.

    Equivalence searches take an antithetic pair, zigzags a cyclic orbit: the
    set's summed cost barely depends on the seed, a single relabelling's does.
    """
    rnd = random.Random(seed)
    ops = []
    for width, depth, structure in WIDE_EQUIV:
        d = wide_diagram(width, depth, structure)
        pair = antithetic_relabellings(rnd, d)
        ops.append(
            Op(
                f"equiv-w{width}d{depth}s{structure}",
                lambda d=d, pair=pair: [bratteli.equivalence_search(d, e, budget=WIDE_BUDGET) for e in pair],
                every_gate([equivalence_gate(d, e) for e in pair]),
            )
        )
    for width, depth, structure in WIDE_ZIGZAG:
        d = wide_diagram(width, depth, structure)
        ca = cert_of(d)
        orbit = [cert_of(e) for e in cyclic_relabellings(rnd, d)]
        ops.append(
            Op(
                f"zigzag-w{width}d{depth}s{structure}",
                lambda a=ca, orbit=orbit, r=depth: [elliott.build_zigzag(a, cb, r) for cb in orbit],
                every_gate([zigzag_gate(ca, cb, depth) for cb in orbit]),
            )
        )
    return Workload(ops, first_of(ops, ("equiv-w4d5s4",)))


def numeric(seed: int, golden: Golden) -> Workload:
    rnd = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    ops = []

    def defect_gate(value):
        return None if value <= DEFECT_TOL else f"defect {value:.3e} above {DEFECT_TOL}"

    def report_gate(report):
        return None if report["pass"] else "numeric report does not pass"

    for sizes in NUMERIC_DEFECT:
        g = perturb.canonical_matrix_units(FinDimAlgebra(sizes))
        system = perturb.conjugate_system(g, perturb.haar_unitary(g.dim, np_rng))
        ops.append(Op(f"defect-{sizes}", lambda s=system: perturb.defect(s), defect_gate))
    for src, tgt, mult in NUMERIC_EMBED:
        hom = AlgebraHom(FinDimAlgebra(src), FinDimAlgebra(tgt), PosMatrix(mult))
        g = perturb.embedded_matrix_units(hom)
        system = perturb.conjugate_system(g, perturb.haar_unitary(g.dim, np_rng))
        ops.append(Op(f"defect-embed-{src}-{tgt}", lambda s=system: perturb.defect(s), defect_gate))
    for n, d in NUMERIC_EXCHANGE:
        s = rnd.randrange(1 << 30)
        ops.append(Op(f"exchange-n{n}d{d}", lambda n=n, d=d, s=s: perturb.exchange_demo(n, 4, d, s), report_gate))
    for sizes in NUMERIC_GLIMM:
        s = rnd.randrange(1 << 30)
        ops.append(Op(f"glimm-{sizes}", lambda z=sizes, s=s: perturb.glimm_demo(z, 3, s), report_gate))
    for n, k in NUMERIC_MODULI:
        ops.append(
            Op(f"DeltaGlimm-{n}-{k}", lambda n=n, k=k: perturb.DeltaGlimm(n, k), lambda v, n=n, k=k: golden.canonical(f"DeltaGlimm-{n}-{k}", v))
        )
    n, k = NUMERIC_MODULI[-1]
    ops.append(Op(f"Delta4-{n}-{k}", lambda: perturb.Delta4(n, k), lambda v: golden.canonical(f"Delta4-{n}-{k}", v)))
    return Workload(ops, first_of(ops, ("exchange-n2d16", "glimm-(1, 2)", "DeltaGlimm-5-8")))


IN_PROCESS = {"deep-tower": deep_tower, "wide-search": wide_search, "numeric": numeric}
