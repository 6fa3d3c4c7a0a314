"""Slow reference versions of the depth-walking searches and queries.

Each one is the direct, unoptimized form of a library routine: every
label-preserving bijection enumerated and tested in turn, every row of a
zigzag stage map found by a plain recursive odometer, every stage pushed
from the element's own stage, exact path-count products for reachability,
one SVD per matrix-unit residual, square partitions by plain recursion.
Tests compare the library against them output for output, so a faster
library may change how it works but never what it returns.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from afkit.bratteli import (
    EquivalenceWitness,
    SimplicityVerdict,
    WitnessStep,
    path_matrix,
)
from afkit.dimgroup import Verdict3, push
from afkit.ordgrp import PosMatrix, compose
from afkit.perturb import MatrixUnitSystem, operator_norm


def row_solutions(
    product_rows: Optional[Sequence[Sequence[int]]],
    target: Optional[Sequence[int]],
    weights: Sequence[int],
    unit_target: int,
) -> Iterator[tuple]:
    """Nonnegative integer rows x with x @ product_rows == target and x . weights == unit_target.

    weights must be strictly positive, which bounds every coordinate; rows
    come out in ascending lexicographic order.
    """
    q = len(weights)
    p = len(target) if target is not None else 0
    x = [0] * q
    partial = [0] * p

    def rec(j: int, unit_left: int) -> Iterator[tuple]:
        if j == q:
            if unit_left == 0 and (target is None or partial == list(target)):
                yield tuple(x)
            return
        bound = unit_left // weights[j]
        for val in range(bound + 1):
            x[j] = val
            if val and target is not None:
                for t in range(p):
                    partial[t] += val * product_rows[j][t]
            if target is None or all(partial[t] <= target[t] for t in range(p)):
                yield from rec(j + 1, unit_left - val * weights[j])
            if val and target is not None:
                for t in range(p):
                    partial[t] -= val * product_rows[j][t]
        x[j] = 0

    yield from rec(0, unit_target)


def label_bijections(a, b):
    """Label-preserving bijections pi with b[pi[j]] == a[j], lexicographically ascending."""
    n = len(a)
    if n != len(b) or sorted(a) != sorted(b):
        return
    used = [False] * n
    pi = [0] * n

    def rec(j):
        if j == n:
            yield tuple(pi)
            return
        for i in range(n):
            if not used[i] and b[i] == a[j]:
                used[i] = True
                pi[j] = i
                yield from rec(j + 1)
                used[i] = False

    yield from rec(0)


def equivalence_search(d1, d2, budget=100_000):
    """Equivalence search spending one node per label-matched level pair and per bijection tried.

    Returns (witness or None, nodes spent). Assumes consistent unital inputs.
    """
    if d1 == d2:
        return EquivalenceWitness(()), 0
    T1, T2 = d1.depth, d2.depth
    if sorted(d1.levels[0]) != sorted(d2.levels[0]) or sorted(d1.levels[T1]) != sorted(d2.levels[T2]):
        return None, 0
    left = [budget]
    dead = set()

    def dfs(n, m, pi, chain):
        if n == T1 and m == T2:
            return list(chain)
        if (n, m, pi) in dead:
            return None
        for n2 in range(n + 1, T1 + 1):
            for m2 in range(m + 1, T2 + 1):
                if sorted(d1.levels[n2]) != sorted(d2.levels[m2]):
                    continue
                if left[0] <= 0:
                    return None
                left[0] -= 1
                p1 = path_matrix(d1, n, n2)
                p2 = path_matrix(d2, m, m2)
                for pi2 in label_bijections(d1.levels[n2], d2.levels[m2]):
                    if left[0] <= 0:
                        return None
                    left[0] -= 1
                    if all(
                        p2.entries[pi2[r]][pi[c]] == p1.entries[r][c]
                        for r in range(p1.rows)
                        for c in range(p1.cols)
                    ):
                        got = dfs(n2, m2, pi2, chain + [(n2, m2, pi2)])
                        if got is not None:
                            return got
        dead.add((n, m, pi))
        return None

    for pi0 in label_bijections(d1.levels[0], d2.levels[0]):
        if left[0] <= 0:
            return None, budget - left[0]
        left[0] -= 1
        chain = dfs(0, 0, pi0, [(0, 0, pi0)])
        if chain is not None:
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
            return EquivalenceWitness(tuple(steps)), budget - left[0]
    return None, budget - left[0]


def eq_at_depth(cert, a, b):
    """Least stage where both elements, each pushed from its own stage, agree."""
    for t in range(max(a.stage, b.stage), cert.depth + 1):
        if push(cert, a, t) == push(cert, b, t):
            return Verdict3("yes", t)
    return Verdict3("unknown", cert.depth)


def positive_at_depth(cert, a):
    """Least stage where the element, pushed from its own stage, is nonnegative."""
    for t in range(a.stage, cert.depth + 1):
        if all(x >= 0 for x in push(cert, a, t)):
            return Verdict3("yes", t)
    return Verdict3("unknown", cert.depth)


def simplicity_window(diagram):
    """Connectivity windows from exact path-count products over every deeper level."""
    T = diagram.depth
    for n in range(T):
        reach = PosMatrix.identity(len(diagram.levels[n]))
        ok = [False] * len(diagram.levels[n])
        for m in range(n + 1, T + 1):
            reach = compose(diagram.edges[m - 1], reach)
            for j in range(len(ok)):
                if all(reach.entries[i][j] > 0 for i in range(reach.rows)):
                    ok[j] = True
        if not all(ok):
            return SimplicityVerdict(witnessed=False, depth=T, blocked=(n, ok.index(False)))
    return SimplicityVerdict(witnessed=True, depth=T)


def defect(system: MatrixUnitSystem) -> float:
    """Largest residual of the matrix-unit relations, adjoints included.

    Covers products within and across blocks, the self-adjointness pairing
    e_{i,j}^* = e_{j,i}, and, for systems flagged unital, the residual of the
    diagonal sum against the identity.
    """
    flat = [
        (s, i, j, system.units[s][i][j])
        for s, n in enumerate(system.sizes)
        for i in range(n)
        for j in range(n)
    ]
    if not flat:
        return 0.0
    d = system.dim
    worst = 0.0
    for s, i, j, e in flat:
        worst = max(worst, operator_norm(e.conj().T - system.units[s][j][i]))
    for s, i, j, e in flat:
        for s2, i2, j2, f in flat:
            prod = e @ f
            if s == s2 and j == i2:
                prod = prod - system.units[s][i][j2]
            worst = max(worst, operator_norm(prod))
    if system.unital:
        total = sum(system.units[s][i][i] for s, n in enumerate(system.sizes) for i in range(n))
        worst = max(worst, operator_norm(total - np.eye(d)))
    return worst


def square_partitions(n: int) -> tuple:
    """All multisets of positive integers whose squares sum to n, as ascending tuples."""
    out = []

    def rec(remaining: int, minimum: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        j = minimum
        while j * j <= remaining:
            acc.append(j)
            rec(remaining - j * j, j, acc)
            acc.pop()
            j += 1

    rec(n, 1, [])
    return tuple(out)
