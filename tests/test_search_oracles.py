"""The fast searches and queries against their slow reference versions.

Outputs must match exactly: the same witness or None at every budget, the
same verdict and stage, the same blocked vertex.
"""

import hashlib
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from afkit import bratteli, dimgroup, elliott, jsonio
from afkit.bratteli import (
    af_sequence_of_diagram,
    apply_iso,
    equivalence_search,
    gen_car,
    telescope,
)
from afkit.dimgroup import LimitElement, certificate_of_af
from afkit.ordgrp import PosMatrix, Tower

from helpers import (
    bare_tower,
    certificate_of_diagram,
    random_diagram,
    random_pos_matrix,
    relabel,
    uhf_certificate,
    wide_diagram,
)


def random_unital_diagram(rnd: random.Random, depth: int, max_width: int = 4) -> Tower:
    """Unital diagram with small labels, so that levels repeat labels often."""
    levels = [tuple(1 for _ in range(rnd.randint(1, max_width)))]
    edges = []
    for _ in range(depth):
        prev = levels[-1]
        rows = []
        for _ in range(rnd.randint(1, max_width)):
            row = [rnd.randint(0, 2) for _ in prev]
            if not any(row):
                row[rnd.randrange(len(row))] = 1
            rows.append(tuple(row))
        edges.append(PosMatrix(tuple(rows)))
        levels.append(tuple(sum(e * x for e, x in zip(row, prev)) for row in rows))
    return Tower(tuple(levels), tuple(edges), unital=True)


def random_pair(seed: int) -> tuple:
    """A diagram against a relabelled (possibly telescoped) copy, or against a stranger."""
    rnd = random.Random(seed)
    d = random_unital_diagram(rnd, rnd.randint(1, 5))
    kind = rnd.randrange(4)
    if kind == 3:
        return d, random_unital_diagram(rnd, rnd.randint(1, 5))
    inner = sorted(rnd.sample(range(1, d.depth), rnd.randint(0, d.depth - 1)))
    other = relabel(rnd, telescope(d, [0] + inner + [d.depth]) if kind else d)
    return (other, d) if kind == 2 else (d, other)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(1, 5000), min_size=4, max_size=4))
def test_equivalence_search_matches_reference_at_every_budget(seed, extra):
    d1, d2 = random_pair(seed)
    _, spent = reference.equivalence_search(d1, d2, budget=5000)
    # Around the exact number of nodes the reference spent, where a budget
    # accounting error would show, plus spread-out budgets.
    for budget in {1, max(spent - 1, 1), max(spent, 1), spent + 1, 5000, *extra}:
        want, _ = reference.equivalence_search(d1, d2, budget=budget)
        assert equivalence_search(d1, d2, budget=budget) == want, budget


def test_wide_repeated_labels_match_reference_at_the_budget_boundary():
    # Width 5 with equal labels: a failing row cuts up to 4! bijections at once.
    rnd = random.Random(3)
    levels = [(1,), (1,) * 5]
    edges = [PosMatrix(((1,),) * 5)]
    for _ in range(3):
        rows = []
        for _ in range(5):
            row = [0] * 5
            row[rnd.randrange(5)] += 1
            row[rnd.randrange(5)] += 1
            rows.append(tuple(row))
        edges.append(PosMatrix(tuple(rows)))
        levels.append((levels[-1][0] * 2,) * 5)
    d = Tower(tuple(levels), tuple(edges), unital=True)
    e = relabel(rnd, d)
    want, spent = reference.equivalence_search(d, e, budget=10**6)
    assert want is not None and spent > 100
    for budget in (spent - 1, spent, spent + 1, spent // 2):
        assert equivalence_search(d, e, budget=budget) == reference.equivalence_search(d, e, budget)[0]
    assert equivalence_search(d, e, budget=spent - 1) is None


def random_certificate(rnd: random.Random) -> Tower:
    depth = rnd.randint(0, 8)
    ranks = [rnd.randint(1, 3) for _ in range(depth + 1)]
    bonds = tuple(random_pos_matrix(rnd, ranks[s + 1], ranks[s], 2) for s in range(depth))
    return bare_tower(ranks, bonds)


def random_element(rnd: random.Random, cert: Tower) -> LimitElement:
    stage = rnd.randint(0, cert.depth)
    return LimitElement(stage, tuple(rnd.randint(-3, 3) for _ in range(cert.ranks[stage])))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_queries_match_per_stage_pushes(seed):
    rnd = random.Random(seed)
    cert = random_certificate(rnd)
    a, b = random_element(rnd, cert), random_element(rnd, cert)
    assert dimgroup.eq_at_depth(cert, a, b) == reference.eq_at_depth(cert, a, b)
    assert dimgroup.positive_at_depth(cert, a) == reference.positive_at_depth(cert, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_simplicity_window_matches_exact_products(seed):
    rnd = random.Random(seed)
    d = random_diagram(rnd, max_levels=7, max_vertices=3, max_entry=1)
    # the reference reads the edge matrices under their name before Tower
    old = SimpleNamespace(levels=d.levels, edges=d.bonds, depth=d.depth)
    assert bratteli.simplicity_window(d) == reference.simplicity_window(old)


@st.composite
def row_problems(draw):
    """Inputs of _row_solutions around a planted solution, some made infeasible."""
    q, p = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=p, max_size=p), min_size=q, max_size=q))
    zero_row, zero_col = draw(st.none() | st.integers(0, q - 1)), draw(st.none() | st.integers(0, p - 1))
    rows = tuple(
        tuple(0 if i == zero_row or t == zero_col else e for t, e in enumerate(row))
        for i, row in enumerate(rows)
    )
    weights = draw(st.lists(st.integers(1, 3), min_size=q, max_size=q))
    x = draw(st.lists(st.integers(0, 2), min_size=q, max_size=q))
    target = [sum(x[i] * rows[i][t] for i in range(q)) for t in range(p)]
    unit = sum(xi * w for xi, w in zip(x, weights))
    kind = draw(st.sampled_from(("planted", "target-off", "unit-off", "no-target")))
    if kind == "target-off":
        target[draw(st.integers(0, p - 1))] += draw(st.sampled_from((-1, 1)))
    elif kind == "unit-off":
        unit += draw(st.sampled_from((-1, 1)))
    return rows, None if kind == "no-target" else tuple(target), tuple(weights), unit


@settings(max_examples=1000, deadline=None)
@given(row_problems())
def test_row_solutions_match_the_recursive_odometer(problem):
    assert list(elliott._row_solutions(*problem)) == list(reference.row_solutions(*problem))


def _two_vertex_cert(depth: int, edge: tuple, swap: bool = False) -> Tower:
    levels = [(1, 1)]
    for _ in range(depth):
        prev = levels[-1]
        levels.append(tuple(sum(e * x for e, x in zip(row, prev)) for row in edge))
    d = Tower(tuple(levels), tuple(PosMatrix(edge) for _ in range(depth)), unital=True)
    if swap:
        d = apply_iso(d, [(1, 0)] * (depth + 1))
    return certificate_of_af(bratteli.af_sequence_of_diagram(d))


# Partial witnesses of build_zigzag at budgets 1..40: the first ten hex digits
# of the SHA-256 of their canonical JSON, recorded from the recursive search
# that spent one node per candidate matrix. The rank-4 pair was recorded from
# the recursive row enumerator, together with its full witness.
PINNED_PARTIALS = {
    "car8-car4-d4": (
        "1086b033fe 1086b033fe 7c10ae2862 7c10ae2862 7095ebcab5 7095ebcab5 9bf73fde05 9bf73fde05 "
        + "879f13cac6 " * 32
    ),
    "fib6-swap-d6": (
        "1090dfa7a8 1090dfa7a8 1090dfa7a8 6262d90d72 6262d90d72 30ccd3feef 30ccd3feef 99296037cd "
        "99296037cd 8eab1c76f0 8eab1c76f0 87c365dfce 87c365dfce " + "f9e164a7f3 " * 27
    ),
    "wide4-cyclic-d4": "1086b033fe " * 2 + "66155989b9 " * 35 + "557b35f7a4 " * 3,
}
PINNED_FULL = {"wide4-cyclic-d4": "c140d4dd2f"}


def _witness_hash(w) -> str:
    return hashlib.sha256(jsonio.canonical_dumps(jsonio.zigzag_to_obj(w)).encode()).hexdigest()[:10]


def test_partial_zigzag_witnesses_are_pinned_per_budget():
    fib = ((1, 1), (1, 2))
    wide = wide_diagram(4, 4, 5)
    pairs = {
        "car8-car4-d4": (certificate_of_af(af_sequence_of_diagram(gen_car(8))), uhf_certificate(4, 4), 4),
        "fib6-swap-d6": (_two_vertex_cert(6, fib), _two_vertex_cert(6, fib, swap=True), 6),
        "wide4-cyclic-d4": (
            certificate_of_diagram(wide),
            certificate_of_diagram(relabel(random.Random(0), wide)),
            4,
        ),
    }
    for name, (a, b, depth) in pairs.items():
        got = [_witness_hash(elliott.build_zigzag(a, b, depth, budget=budget)) for budget in range(1, 41)]
        assert got == PINNED_PARTIALS[name].split(), name
        if name in PINNED_FULL:
            assert _witness_hash(elliott.build_zigzag(a, b, depth)) == PINNED_FULL[name], name
