"""Shared seeded generators and brute-force oracles for the test suite.

The oracles here recompute expected values by a route independent of the
library code under test: explicit edge-by-edge path walks, direct Fraction
recursions, and hand-rolled matrix products over plain lists.
"""

from __future__ import annotations

import random

from afkit.bratteli import af_sequence_of_diagram, apply_iso
from afkit.dimgroup import certificate_of_af
from afkit.findim import AlgebraHom, FinDimAlgebra
from afkit.ordgrp import PosMatrix, Tower


def random_pos_matrix(rnd: random.Random, rows: int, cols: int, max_entry: int) -> PosMatrix:
    return PosMatrix(
        tuple(tuple(rnd.randint(0, max_entry) for _ in range(cols)) for _ in range(rows))
    )


def random_diagram(
    rnd: random.Random,
    max_levels: int = 5,
    max_vertices: int = 4,
    max_entry: int = 3,
) -> Tower:
    n_levels = rnd.randint(1, max_levels)
    sizes = [rnd.randint(1, max_vertices) for _ in range(n_levels)]
    levels = tuple(tuple(rnd.randint(0, 5) for _ in range(s)) for s in sizes)
    edges = tuple(
        random_pos_matrix(rnd, sizes[k + 1], sizes[k], max_entry) for k in range(n_levels - 1)
    )
    return Tower(levels, edges, unital=False)


def bare_tower(ranks, bonds) -> Tower:
    """A certificate without units: only ranks and bonds."""
    return Tower((None,) * len(ranks), tuple(bonds), ranks=tuple(ranks))


def brute_force_path_count(diagram: Tower, u, v) -> int:
    """Walk every physical edge copy separately and count arrivals at v."""
    (lu, iu), (lv, iv) = u, v
    if lu >= lv:
        return 0

    def walk(level: int, idx: int) -> int:
        if level == lv:
            return 1 if idx == iv else 0
        edge = diagram.bonds[level]
        total = 0
        for i in range(edge.rows):
            for _copy in range(edge.entries[i][idx]):
                total += walk(level + 1, i)
        return total

    return walk(lu, iu)


def list_mat_mul(a, b):
    """Plain-list matrix product, independent of ordgrp.compose."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_hom(
    rnd: random.Random,
    source: FinDimAlgebra,
    unital: bool,
    max_blocks: int = 4,
    max_size: int = 5,
    max_entry: int = 3,
) -> AlgebraHom:
    """Random valid hom out of `source` with small multiplicities and block sizes."""
    k2 = rnd.randint(1, max_blocks)
    rows, caps = [], []
    for _ in range(k2):
        while True:
            row = [0] * len(source)
            budget = max_size
            order = list(range(len(source)))
            rnd.shuffle(order)
            for j in order:
                top = min(max_entry, budget // source.summands[j])
                e = rnd.randint(0, top) if top > 0 else 0
                row[j] = e
                budget -= e * source.summands[j]
            load = sum(e * n for e, n in zip(row, source.summands))
            if load >= 1:
                break
        caps.append(load if unital else rnd.randint(load, max(load, max_size)))
        rows.append(row)
    order = sorted(range(k2), key=lambda i: (caps[i], i))
    target = FinDimAlgebra(tuple(caps[i] for i in order))
    mult = PosMatrix(tuple(tuple(rows[i]) for i in order))
    return AlgebraHom(source, target, mult)


def random_algebra(rnd: random.Random, max_blocks: int = 4, max_size: int = 5) -> FinDimAlgebra:
    return FinDimAlgebra(
        tuple(rnd.randint(1, max_size) for _ in range(rnd.randint(1, max_blocks)))
    )


def random_unital_sequence(
    rnd: random.Random,
    depth: int,
    max_blocks: int = 3,
    max_entry: int = 2,
    max_start: int = 3,
) -> Tower:
    """Random AF sequence with unital injective homs (valid for round trips)."""
    algebras = [
        FinDimAlgebra(tuple(rnd.randint(1, max_start) for _ in range(rnd.randint(1, max_blocks))))
    ]
    homs = []
    for _ in range(depth):
        source = algebras[-1]
        k2 = rnd.randint(1, max_blocks)
        rows = [[rnd.randint(0, max_entry) for _ in range(len(source))] for _ in range(k2)]
        for j in range(len(source)):
            if all(row[j] == 0 for row in rows):
                rows[rnd.randrange(k2)][j] = 1
        for row in rows:
            if all(e == 0 for e in row):
                row[rnd.randrange(len(source))] = 1
        caps = [sum(e * n for e, n in zip(row, source.summands)) for row in rows]
        order = sorted(range(k2), key=lambda i: (caps[i], i))
        target = FinDimAlgebra(tuple(caps[i] for i in order))
        mult = PosMatrix(tuple(tuple(rows[i]) for i in order))
        homs.append(AlgebraHom(source, target, mult))
        algebras.append(target)
    return Tower(tuple(a.summands for a in algebras), tuple(h.mult for h in homs), unital=True)


def uhf_certificate(multiplier: int, depth: int) -> Tower:
    """Rank-1 tower with constant bond [[multiplier]] and units multiplier^s."""
    units = tuple((multiplier**s,) for s in range(depth + 1))
    bonds = tuple(PosMatrix(((multiplier,),)) for _ in range(depth))
    return Tower(units, bonds, unital=True)


def wide_diagram(width: int, depth: int, structure_seed: int) -> Tower:
    """Root, then `depth` levels of `width` equal-label vertices, two edges into each vertex.

    The same structures as the wide-search benchmark's; every level's
    label-preserving bijections are all of its permutations.
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
    return Tower(tuple(levels), tuple(edges), unital=True)


def relabel(rnd: random.Random, d: Tower) -> Tower:
    """A random relabelling of every level; the first of the benchmark's cyclic relabellings."""
    perms = []
    for level in d.levels:
        perm = list(range(len(level)))
        rnd.shuffle(perm)
        perms.append(perm)
    return apply_iso(d, perms)


def certificate_of_diagram(d: Tower) -> Tower:
    return certificate_of_af(af_sequence_of_diagram(d))


def random_planted_shen_instance(rnd: random.Random):
    """Certificate + positive limit hom + alpha whose image dies one gap later."""
    depth = rnd.randint(2, 8)
    t = rnd.randint(0, depth - 1)
    ranks = [rnd.randint(1, 4) for _ in range(depth + 1)]
    ranks[t] = max(ranks[t], 2)
    bonds = []
    for s in range(depth):
        bonds.append(random_pos_matrix(rnd, ranks[s + 1], ranks[s], 2))
    a, b = rnd.sample(range(ranks[t]), 2)
    rows = [list(r) for r in bonds[t].entries]
    for row in rows:
        row[b] = row[a]
    bonds[t] = PosMatrix(tuple(tuple(r) for r in rows))
    cert = bare_tower(ranks, bonds)

    n_src = rnd.randint(2, 4)
    matrix = [[rnd.randint(0, 2) for _ in range(n_src)] for _ in range(ranks[t])]
    for i in range(ranks[t]):
        matrix[i][0] = rnd.randint(0, 2) + (1 if i == a else 0)
        matrix[i][1] = matrix[i][0] - (1 if i == a else 0) + (1 if i == b else 0)
    from afkit.dimgroup import LimitHom

    theta = LimitHom(stage=t, matrix=tuple(tuple(r) for r in matrix), positive=True)
    alpha = tuple([1, -1] + [0] * (n_src - 2))
    return cert, theta, alpha
