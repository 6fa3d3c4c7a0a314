"""Labeled Bratteli diagrams as finite-depth data.

A diagram is a Tower: a sequence of levels (nonnegative vertex labels) and one
edge matrix per gap, rows indexed by the deeper level, so telescoping is
matrix multiplication from the left. The unital flag asserts that labels
satisfy label(v) = sum_u E(u,v)*label(u) at every non-root vertex, which
consistency_violation rechecks. Diagrams here are finite prefixes of the
infinite objects they approximate; every verdict an operation returns is
qualified by the depth it inspected and never claims anything about levels
that were not supplied.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .findim import sorted_tower
from .ordgrp import Budget, OutOfBudget, PosMatrix, Tower, apply, chain_product, compose, mat_vec


class ConsistencyError(ValueError):
    """A vertex whose label breaks the unital recursion or has no out-edges."""

    def __init__(self, vertex, message: str):
        super().__init__(f"vertex {vertex}: {message}")
        self.vertex = vertex


LabeledBratteliDiagram = Tower  # the name the benchmark builds diagrams under


def _check_vertex(diagram: Tower, v) -> tuple:
    level, index = v
    if not 0 <= level < len(diagram.levels) or not 0 <= index < len(diagram.levels[level]):
        raise ValueError(f"vertex {v!r} out of range")
    return level, index


def path_count(diagram: Tower, u, v) -> int:
    """Number of downward paths from u to v (0 when v is not strictly deeper)."""
    lu, iu = _check_vertex(diagram, u)
    lv, iv = _check_vertex(diagram, v)
    if lu >= lv:
        return 0
    counts = tuple(int(j == iu) for j in range(len(diagram.levels[lu])))
    for k in range(lu, lv):
        counts = mat_vec(diagram.bonds[k].entries, counts)
    return counts[iv]


def path_matrix(diagram: Tower, k: int, k2: int) -> PosMatrix:
    """Edge-matrix product over the gap [k, k2]; entry (i,j) counts paths (k,j) -> (k2,i)."""
    if not 0 <= k <= k2 <= diagram.depth:
        raise ValueError(f"levels out of range: {k} -> {k2}")
    return chain_product(diagram.bonds, k, k2, diagram.ranks[k])


def telescope(diagram: Tower, spec) -> Tower:
    """Select the spec'd levels, strictly increasing from level 0, replacing edges by path counts."""
    stages = tuple(spec)
    if not stages or stages[0] != 0:
        raise ValueError("telescope spec must start at level 0")
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ValueError("telescope spec must be strictly increasing")
    if stages[-1] > diagram.depth:
        raise ValueError("telescope spec exceeds diagram depth")
    levels = tuple(diagram.levels[n] for n in stages)
    edges = tuple(path_matrix(diagram, a, b) for a, b in zip(stages, stages[1:]))
    return Tower(levels, edges, unital=diagram.unital)


def consistency_violation(diagram: Tower) -> Optional[tuple]:
    """First vertex breaking the label recursion, or None.

    Non-root labels must dominate sum_u E(u,v)*label(u), with equality when
    the diagram is marked unital.
    """
    for k, edge in enumerate(diagram.bonds):
        for i, total in enumerate(apply(edge, diagram.levels[k])):
            have = diagram.levels[k + 1][i]
            if diagram.unital and have != total:
                return ((k + 1, i), f"label {have} != incoming mass {total}")
            if not diagram.unital and have < total:
                return ((k + 1, i), f"label {have} < incoming mass {total}")
    return None


def af_sequence_of_diagram(diagram: Tower) -> Tower:
    """Read an AF sequence back off a unital diagram with positive labels.

    Levels whose labels are not already ascending are canonicalized by a
    stable sort. Raises ConsistencyError naming the offending vertex when the
    labels do not satisfy the exact unital recursion, are not positive, or a
    vertex below the last level has no outgoing edges (the connecting hom
    would not be injective).
    """
    if not diagram.unital:
        raise ValueError("diagram is not marked unital")
    for k, level in enumerate(diagram.levels):
        for j, x in enumerate(level):
            if x < 1:
                raise ConsistencyError((k, j), f"label {x} < 1")
    bad = consistency_violation(diagram)
    if bad is not None:
        raise ConsistencyError(bad[0], bad[1])
    for k, edge in enumerate(diagram.bonds):
        for j in range(edge.cols):
            if all(edge.entries[i][j] == 0 for i in range(edge.rows)):
                raise ConsistencyError((k, j), "no outgoing edges")
    return sorted_tower(diagram.levels, diagram.bonds)


@dataclass(frozen=True)
class SimplicityVerdict:
    """Depth-qualified connectivity report.

    witnessed means every vertex above the last level reaches all vertices of
    some deeper level within the inspected depth; otherwise blocked names the
    first vertex (level-major order) with no such level. Neither outcome
    decides simplicity of the infinite completion.
    """

    witnessed: bool
    depth: int
    blocked: Optional[tuple] = None


def simplicity_window(diagram: Tower) -> SimplicityVerdict:
    """Check full-connectivity windows for every vertex within depth.

    Only whether a path exists matters, so reachability is carried as one
    bitmask of deeper-level vertices per vertex; a level is done as soon as
    each of its vertices has reached a whole level.
    """
    T = diagram.depth
    # succ[k][j]: bitmask of the level-(k+1) vertices with an edge from (k, j)
    succ = [
        [sum(1 << i for i in range(e.rows) if e.entries[i][j]) for j in range(e.cols)]
        for e in diagram.bonds
    ]
    for n in range(T):
        reach = [1 << j for j in range(len(diagram.levels[n]))]
        pending = list(range(len(reach)))  # ascending: no whole level reached yet
        for m in range(n + 1, T + 1):
            step, full = succ[m - 1], (1 << len(diagram.levels[m])) - 1
            for j in pending:
                r = 0
                for k, targets in enumerate(step):
                    if reach[j] >> k & 1:
                        r |= targets
                reach[j] = r
            pending = [j for j in pending if reach[j] != full]
            if not pending:
                break
        if pending:
            return SimplicityVerdict(witnessed=False, depth=T, blocked=(n, pending[0]))
    return SimplicityVerdict(witnessed=True, depth=T)


# supernatural_prefix tries every divisor below this bound; a cofactor left
# below its square is therefore prime.
TRIAL_DIVISION_BOUND = 100_000


def supernatural_prefix(diagram: Tower, depth: Optional[int] = None) -> tuple:
    """(prime-exponent map, cofactor) of the product of edge multiplicities up to depth.

    Only defined for single-vertex levels (telescope first); the result is a
    finite lower approximation of the supernatural number of the limit. Each
    multiplicity is factored by trial division below TRIAL_DIVISION_BOUND, so
    the work is bounded; what stays unfactored is multiplied into the
    cofactor. The product equals prod p^e times the cofactor, and the map is
    complete exactly when the cofactor is 1.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    gaps = diagram.depth if depth is None else min(depth, diagram.depth)
    for k in range(gaps + 1):
        if diagram.ranks[k] != 1:
            raise ValueError(f"level {k} has {diagram.ranks[k]} vertices; telescope first")
    out: dict = {}
    cofactor = 1
    for k in range(gaps):
        n = diagram.bonds[k].entries[0][0]
        if n == 0:
            raise ValueError(f"zero edge multiplicity at gap {k}")
        p = 2
        while p < TRIAL_DIVISION_BOUND and p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            p = 3 if p == 2 else p + 2
        if n >= TRIAL_DIVISION_BOUND**2:
            cofactor *= n
        elif n > 1:
            out[n] = out.get(n, 0) + 1
    return out, cofactor


def gen_car(depth: int) -> Tower:
    """Doubling tower: one vertex per level, labels 2^s, two edges per gap."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    levels = tuple((2**s,) for s in range(depth + 1))
    edges = tuple(PosMatrix(((2,),)) for _ in range(depth))
    return Tower(levels, edges, unital=True)


def gen_trace_diagram(halting, depth: int) -> Tower:
    """Diagram tracing a halting table: strands split on stalls, merge on growth.

    halting maps inputs to their halting step count (>= 1), with None (or
    absence) for inputs that never halt; a sequence is read as the table for
    inputs 0, 1, 2, .... m(s) counts how many initial inputs have halted
    within s steps. Level s+1 has one vertex when m grew at step s+1 and two
    otherwise; edges and labels follow the fixed rules: a single vertex feeds
    every vertex of the next level, while in a two-vertex level vertex 0 feeds
    the next vertex 0 and vertex 1 feeds the highest next vertex. The root is
    labeled 1 and every other label is the sum over its in-neighbors.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(halting, Mapping):
        table = dict(halting)
    else:
        table = {i: v for i, v in enumerate(halting)}
    for x, st in table.items():
        if st is not None and (not isinstance(st, int) or st < 1):
            raise ValueError(f"halting step count for input {x} must be an int >= 1 or None")

    def m_of(s: int) -> int:
        y = 0
        while True:
            st = table.get(y)
            if st is None or st > s:
                return y
            y += 1

    sizes = [1]
    for s in range(depth):
        sizes.append(1 if m_of(s) < m_of(s + 1) else 2)

    edges = []
    for s in range(depth):
        rows = [[0] * sizes[s] for _ in range(sizes[s + 1])]
        if sizes[s] == 1:
            for i in range(sizes[s + 1]):
                rows[i][0] += 1
        else:
            rows[0][0] += 1
            rows[sizes[s + 1] - 1][1] += 1
        edges.append(PosMatrix(tuple(tuple(r) for r in rows)))

    labels = [(1,)]  # every edge is simple, so a label is the sum over in-neighbors
    for edge in edges:
        labels.append(apply(edge, labels[-1]))
    return Tower(tuple(labels), tuple(edges), unital=True)


@dataclass(frozen=True)
class WitnessStep:
    """One replay step: telescope or relabel one side of the pair."""

    side: str  # "left" | "right"
    op: str  # "telescope" | "iso"
    stages: Optional[tuple] = None
    maps: Optional[tuple] = None  # per-level permutations, maps[l][i] = new index of (l, i)

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"bad side {self.side!r}")
        if self.op == "telescope":
            if self.stages is None:
                raise ValueError("telescope step needs stages")
            object.__setattr__(self, "stages", tuple(self.stages))
        elif self.op == "iso":
            if self.maps is None:
                raise ValueError("iso step needs maps")
            object.__setattr__(self, "maps", tuple(tuple(m) for m in self.maps))
        else:
            raise ValueError(f"bad op {self.op!r}")


@dataclass(frozen=True)
class EquivalenceWitness:
    """Chain of telescoping/isomorphism steps equating two diagrams.

    Replaying the steps against the pair (left, right) must make both sides
    byte-identical; an empty chain witnesses equality.
    """

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def apply_iso(diagram: Tower, maps: Sequence[Sequence[int]]) -> Tower:
    """Relabel vertices level by level along the given permutations."""
    if len(maps) != len(diagram.levels):
        raise ValueError("need one permutation per level")
    perms = []
    for l, perm in enumerate(maps):
        perm = tuple(perm)
        if sorted(perm) != list(range(len(diagram.levels[l]))):
            raise ValueError(f"map at level {l} is not a permutation")
        perms.append(perm)
    levels = []
    for l, perm in enumerate(perms):
        row = [0] * len(perm)
        for i, x in enumerate(diagram.levels[l]):
            row[perm[i]] = x
        levels.append(tuple(row))
    edges = []
    for k, edge in enumerate(diagram.bonds):
        rows = [[0] * edge.cols for _ in range(edge.rows)]
        for r in range(edge.rows):
            for c in range(edge.cols):
                rows[perms[k + 1][r]][perms[k][c]] = edge.entries[r][c]
        edges.append(PosMatrix(tuple(tuple(r) for r in rows)))
    return Tower(tuple(levels), tuple(edges), unital=diagram.unital)


def replay_equivalence(
    witness: EquivalenceWitness,
    left: Tower,
    right: Tower,
) -> bool:
    """Apply the witness steps and test the two sides for exact equality."""
    try:
        for step in witness.steps:
            cur = left if step.side == "left" else right
            if step.op == "telescope":
                cur = telescope(cur, step.stages)
            else:
                cur = apply_iso(cur, step.maps)
            if step.side == "left":
                left = cur
            else:
                right = cur
    except (ValueError, IndexError):
        return False
    return left == right


def _bijections(a: Sequence[int], b: Sequence[int], row_ok, charge) -> Iterator[tuple]:
    """Label-preserving bijections pi (b[pi[j]] == a[j]) passing row_ok(j, pi[j]) at every j.

    They come out lexicographically ascending, and every label-preserving
    bijection in that order costs one budget node through charge, including
    those a failing row cuts off: a prefix failing at position j stands for
    the prod over labels of (count left after j)! bijections extending it,
    all charged at once. So the budget runs out at the same bijection as when
    each one is enumerated and tested in turn. The label multisets of a and b
    must agree.
    """
    n = len(a)
    skip = [1] * n  # skip[j]: label-preserving completions of a prefix of length j + 1
    left: dict = {}
    for j in range(n - 1, 0, -1):
        left[a[j]] = left.get(a[j], 0) + 1
        skip[j - 1] = skip[j] * left[a[j]]
    used = [False] * n
    pi = [0] * n
    nxt = [0] * n  # nxt[j]: the first index still to try at position j
    j = 0
    while j >= 0:
        i = nxt[j]
        while i < n and (used[i] or b[i] != a[j]):
            i += 1
        if i == n:
            nxt[j] = 0
            j -= 1
            if j >= 0:
                used[pi[j]] = False
            continue
        nxt[j] = i + 1
        pi[j] = i
        if not row_ok(j, i):
            charge(skip[j])
        elif j == n - 1:
            charge(1)
            yield tuple(pi)
        else:
            used[i] = True
            j += 1


def _path_matrix_from(diagram: Tower, cache: dict, a: int, b: int) -> PosMatrix:
    """P(a, b) of the diagram, each product one gap beyond the last cached P(a, .)."""
    top = b
    while top > a + 1 and (a, top) not in cache:
        top -= 1
    got = cache.get((a, top))
    if got is None:
        got = cache[(a, top)] = diagram.bonds[a]
    for k in range(top + 1, b + 1):
        got = cache[(a, k)] = compose(diagram.bonds[k - 1], got)
    return got


def equivalence_search(
    d1: Tower,
    d2: Tower,
    budget: int = 100_000,
) -> Optional[EquivalenceWitness]:
    """Search for an exact equivalence witness between two unital diagrams.

    The search runs the two-tower intertwining at the K0 level specialized to
    invertible stage maps: it looks for level selections of both diagrams,
    covering level 0 and the full depth of each side, together with
    label-preserving vertex bijections under which the path matrices agree.
    Any such match converts into telescoping plus relabeling steps whose
    replay equates the diagrams exactly. Exhausting the node budget, or the
    stage supply, returns None, which means unknown; it never asserts
    inequivalence.

    Candidates are (n2, m2, pi2) in ascending order, depth first. Every level
    pair whose label multisets match, so one path-matrix comparison, and every
    label-preserving bijection tried costs one node; the other pairs have no
    bijection, build no path matrix and cost nothing.
    """
    nodes = Budget(budget)
    for d in (d1, d2):
        if not d.unital:
            raise ValueError("equivalence search needs diagrams marked unital")
        bad = consistency_violation(d)
        if bad is not None:
            raise ConsistencyError(bad[0], bad[1])
    if d1 == d2:
        return EquivalenceWitness(())

    T1, T2 = d1.depth, d2.depth
    keys1 = [tuple(sorted(level)) for level in d1.levels]
    keys2 = [tuple(sorted(level)) for level in d2.levels]
    if keys1[0] != keys2[0] or keys1[T1] != keys2[T2]:
        return None
    levels_with: dict = {}  # label multiset -> ascending levels of d2 carrying it
    for m2 in range(1, T2 + 1):
        levels_with.setdefault(keys2[m2], []).append(m2)

    pm1: dict = {}
    pm2: dict = {}

    def children(n: int, m: int, pi: tuple) -> Iterator[tuple]:
        for n2 in range(n + 1, T1 + 1):
            matches = levels_with.get(keys1[n2], ())
            for m2 in matches[bisect_right(matches, m) :]:
                nodes.charge()
                p1 = _path_matrix_from(d1, pm1, n, n2).entries
                p2 = _path_matrix_from(d2, pm2, m, m2).entries
                rows2 = [tuple(row[c] for c in pi) for row in p2]
                for pi2 in _bijections(
                    d1.levels[n2], d2.levels[m2], lambda r, i: rows2[i] == p1[r], nodes.charge
                ):
                    yield n2, m2, pi2

    # frames[k] yields the matched children of chain[k]; a (n, m, pi) whose
    # children are all explored without reaching (T1, T2) goes to dead.
    dead: set = set()
    chain: list = []
    try:
        for pi0 in _bijections(d1.levels[0], d2.levels[0], lambda r, i: True, nodes.charge):
            chain = [(0, 0, pi0)]
            frames = [] if T1 == T2 == 0 else [children(0, 0, pi0)]
            while frames:
                step = next(frames[-1], None)
                if step is None:
                    frames.pop()
                    dead.add(chain.pop())
                    continue
                n2, m2, _ = step
                if n2 == T1 and m2 == T2:
                    chain.append(step)
                    break
                if step not in dead:
                    chain.append(step)
                    frames.append(children(*step))
            if chain:
                break
    except OutOfBudget:
        return None
    if not chain:
        return None
    nspec = tuple(n for n, _, _ in chain)
    mspec = tuple(m for _, m, _ in chain)
    perms = tuple(p for _, _, p in chain)
    steps = []
    if nspec != tuple(range(T1 + 1)):
        steps.append(WitnessStep("left", "telescope", stages=nspec))
    if mspec != tuple(range(T2 + 1)):
        steps.append(WitnessStep("right", "telescope", stages=mspec))
    if any(p != tuple(range(len(p))) for p in perms):
        steps.append(WitnessStep("left", "iso", maps=perms))
    return EquivalenceWitness(tuple(steps))
