"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts its stated tolerance exactly and its runtime
budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from afkit.bratteli import (
    af_sequence_of_diagram,
    equivalence_search,
    gen_car,
    gen_trace_diagram,
    path_count,
    replay_equivalence,
    simplicity_window,
    supernatural_prefix,
    telescope,
)
from afkit.dimgroup import (
    LimitElement,
    af_of_certificate,
    certificate_of_af,
    eq_at_depth,
    shen_factor,
)
from afkit.elliott import build_zigzag, verify_zigzag
from afkit.findim import AlgebraHom, k0
from afkit.ordgrp import PosMatrix, Tower, apply, compose, mat_vec
from afkit.perturb import (
    Delta1,
    Delta2,
    canonical_matrix_units,
    conjugate_system,
    delta0,
    delta1,
    exchange_block_operator,
    exchange_unitary,
    glimm_unitary,
    haar_unitary,
    nearby_unitary,
    operator_norm,
)
from afkit.findim import FinDimAlgebra

from helpers import (
    brute_force_path_count,
    random_algebra,
    random_diagram,
    random_hom,
    random_planted_shen_instance,
    random_unital_sequence,
    uhf_certificate,
)


@contextmanager
def criterion(num: int, desc: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num} exceeded {limit}s budget: {elapsed:.2f}s"
    print(f"[criterion {num:2d}] PASS  {desc}  ({elapsed:.2f}s)")


def test_criterion_1_k0_functoriality():
    with criterion(1, "K0 functoriality on 200 seeded composable pairs", 5.0):
        rnd = random.Random(101)
        unital_pairs = 0
        for _ in range(200):
            f = random_hom(rnd, random_algebra(rnd), unital=bool(rnd.getrandbits(1)))
            g = random_hom(rnd, f.target, unital=bool(rnd.getrandbits(1)))
            gf = compose(g.mult, f.mult)
            assert AlgebraHom(f.source, g.target, gf).mult == gf  # the composite fits g.target
            if f.is_unital() and g.is_unital():
                unital_pairs += 1
                assert apply(f.mult, k0(f.source).levels[0]) == k0(f.target).levels[0]
                assert apply(compose(g.mult, f.mult), k0(f.source).levels[0]) == k0(g.target).levels[0]
        assert unital_pairs >= 20


def test_criterion_2_path_count_oracle():
    with criterion(2, "path_count equals exhaustive enumeration on 100 seeded diagrams", 10.0):
        rnd = random.Random(202)
        for _ in range(100):
            d = random_diagram(rnd, max_levels=5, max_vertices=4, max_entry=3)
            for lu in range(len(d.levels)):
                for lv in range(len(d.levels)):
                    for iu in range(len(d.levels[lu])):
                        for iv in range(len(d.levels[lv])):
                            assert path_count(d, (lu, iu), (lv, iv)) == brute_force_path_count(
                                d, (lu, iu), (lv, iv)
                            )


def test_criterion_3_telescoping_laws():
    with criterion(3, "telescoping laws: identity, composition, labels, supernatural", 5.0):
        rnd = random.Random(303)
        for _ in range(40):
            d = random_diagram(rnd)
            t = d.depth
            assert telescope(d, range(t + 1)) == d
            if t >= 1:
                inner = sorted(rnd.sample(range(1, t + 1), rnd.randint(1, t)))
                spec1 = (0, *inner)
                sub = sorted(rnd.sample(range(1, len(spec1)), rnd.randint(0, len(spec1) - 1)))
                spec2 = (0, *sub)
                assert telescope(telescope(d, spec1), spec2) == telescope(
                    d, tuple(spec1[i] for i in spec2)
                )
                assert telescope(d, spec1).levels == tuple(d.levels[n] for n in spec1)
        for _ in range(20):
            depth = rnd.randint(1, 8)
            labels = [1]
            mults = [rnd.choice((1, 2, 3, 4, 6)) for _ in range(depth)]
            for m in mults:
                labels.append(labels[-1] * m)
            tower = Tower(
                tuple((x,) for x in labels),
                tuple(PosMatrix(((m,),)) for m in mults),
                unital=True,
            )
            inner = sorted(rnd.sample(range(1, depth + 1), rnd.randint(0, depth)))
            spec = (0, *inner)
            full_spec = spec if spec[-1] == depth else (*spec, depth)
            assert supernatural_prefix(telescope(tower, full_spec)) == supernatural_prefix(tower)


def test_criterion_4_round_trips():
    with criterion(4, "diagram<->sequence and certificate<->sequence exact round trips", 5.0):
        rnd = random.Random(404)
        for _ in range(100):
            seq = random_unital_sequence(rnd, rnd.randint(0, 6))
            d = certificate_of_af(seq)
            assert af_sequence_of_diagram(d) == seq
            assert certificate_of_af(af_sequence_of_diagram(d)) == d
            cert = certificate_of_af(seq)
            assert af_of_certificate(cert) == seq
            assert certificate_of_af(af_of_certificate(cert)) == cert


def test_criterion_5_shen_factoring():
    with criterion(5, "shen_factor on 50 seeded planted-kernel instances", 30.0):
        rnd = random.Random(505)
        for _ in range(50):
            cert, theta, alpha = random_planted_shen_instance(rnd)
            phi, theta_prime = shen_factor(cert, theta, alpha)
            assert all(x == 0 for x in mat_vec(phi.entries, alpha))
            assert all(x >= 0 for row in phi.entries for x in row)
            for j in range(theta.source_rank):
                lhs = LimitElement(theta_prime.stage, phi.column(j))
                rhs = LimitElement(theta.stage, tuple(r[j] for r in theta.matrix))
                assert eq_at_depth(cert, lhs, rhs).status == "yes"


def test_criterion_6_zigzag():
    with criterion(6, "zigzag: CAR vs telescoped CAR witnessed, CAR vs 3-power stalls", 10.0):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(10)))
        car4 = uhf_certificate(4, 5)
        w = build_zigzag(car, car4, depth=5)
        assert w.depth == 5
        assert verify_zigzag(w, car, car4)
        for s in range(w.depth):
            assert compose(w.betas[s], w.alphas[s]) == car.bond_product(
                w.n_stages[s], w.n_stages[s + 1]
            )
            assert compose(w.alphas[s + 1], w.betas[s]) == car4.bond_product(
                w.m_stages[s], w.m_stages[s + 1]
            )

        car5 = certificate_of_af(af_sequence_of_diagram(gen_car(5)))
        three = uhf_certificate(3, 5)
        stalled = build_zigzag(car5, three, depth=5, budget=50_000)
        assert stalled.depth < 5

        car_d = gen_car(5)
        three_d = Tower(
            tuple((3**s,) for s in range(6)),
            tuple(PosMatrix(((3,),)) for _ in range(5)),
            unital=True,
        )
        assert supernatural_prefix(car_d, depth=5) == ({2: 5}, 1)
        assert supernatural_prefix(three_d, depth=5) == ({3: 5}, 1)


def test_criterion_7_trace_diagram_family():
    with criterion(7, "trace diagrams: CAR-equivalent when total, blocked vertex when not", 10.0):
        # every input halts; growth is consecutive for five steps, then spaced
        table = {x: x + 1 for x in range(5)}
        table.update({x: 2 * x - 3 for x in range(5, 13)})
        depth = 21
        d = gen_trace_diagram(table, depth)
        growth = [0] + [s for s in range(1, depth + 1) if len(d.levels[s]) == 1]
        tele = telescope(d, tuple(sorted(set(growth))))
        assert all(len(level) == 1 for level in tele.levels)
        assert tele.levels[-1] == (256,)
        car8 = gen_car(8)
        witness = equivalence_search(tele, car8, budget=200_000)
        assert witness is not None
        assert replay_equivalence(witness, tele, car8)

        bad = gen_trace_diagram({0: 2, 1: None}, 8)
        verdict = simplicity_window(bad)
        assert not verdict.witnessed
        s0 = 2
        assert verdict.blocked == (s0 + 1, 0)
        for s in range(9):
            if s > s0 and len(bad.levels[s]) > 1:
                assert path_count(bad, (s0 + 1, 0), (s, 1)) == 0


def test_criterion_8_moduli():
    with criterion(8, "closed-form moduli match independent re-derivation", 1.0):
        assert delta0(Fraction(1, 2), 1) == Fraction(1, 4)
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 9), Fraction(1, 100)):
            assert delta1(eps, 1) == Fraction(1, 2)
        for n in range(1, 21):
            for k in range(0, 21):
                assert Delta2(n, k) == n + k + 2
        for k in range(0, 21):
            # independent: delta0(2^-(k+1), 1) = min(2^-(k+2), 1/2) = 2^-(k+2),
            # and the least N with 2^-N < 2^-(k+2) is k+3
            assert min(Fraction(1, 2 ** (k + 2)), Fraction(1, 2)) == Fraction(1, 2 ** (k + 2))
            assert Delta1(1, k) == k + 3


def _random_projection_family(rng: np.random.Generator, n: int, d: int):
    if n == 1:
        return [np.eye(d, dtype=complex)]
    cuts = sorted(rng.choice(np.arange(1, d), size=n - 1, replace=False).tolist())
    bounds = [0] + cuts + [d]
    w = haar_unitary(d, rng)
    out = []
    for a, b in zip(bounds, bounds[1:]):
        e = np.zeros((d, d), dtype=complex)
        e[a:b, a:b] = np.eye(b - a)
        out.append(w @ e @ w.conj().T)
    return out


def test_criterion_9_numeric_perturbation_suite():
    with criterion(9, "exchange and conjugation unitaries meet their norm bounds", 60.0):
        for n in (1, 2, 3):
            for k in (2, 4, 6):
                rng = np.random.default_rng(9000 + 10 * n + k)
                for _ in range(100):
                    d = int(rng.integers(max(n, 2), 9))
                    ps = _random_projection_family(rng, n, d)
                    threshold = 2.0 ** -Delta2(n, k)
                    u_small = nearby_unitary(d, threshold / 4, rng)
                    qs = [u_small @ p @ u_small.conj().T for p in ps]
                    v = exchange_unitary(ps, qs, k)
                    assert operator_norm(v.conj().T @ v - np.eye(d)) <= 1e-8
                    for p, q in zip(ps, qs):
                        assert operator_norm(v.conj().T @ p @ v - q) <= 1e-8
                    assert operator_norm(v - np.eye(d)) < 2.0**-k

        for sizes in ((2,), (1, 2), (2, 2)):
            algebra = FinDimAlgebra(sizes)
            g = canonical_matrix_units(algebra)
            d = g.dim
            n = sum(m * m for m in sizes)
            blocks = sum(sizes)
            for k in (2, 4):
                k0_exp = (n * 2 ** (k + 1) - 1).bit_length()
                threshold = min(2.0**-k0_exp, 2.0 ** -Delta2(blocks, k0_exp))
                for seed in range(5):
                    rng = np.random.default_rng(7000 + seed)
                    u_small = nearby_unitary(d, threshold / 4, rng)
                    h = conjugate_system(g, u_small)
                    ps = [g.unit(s, i, i) for s, m in enumerate(g.sizes) for i in range(m)]
                    qs = [h.unit(s, i, i) for s, m in enumerate(h.sizes) for i in range(m)]
                    v = exchange_unitary(ps, qs, k0_exp)
                    u = glimm_unitary(g, h, v)
                    worst = max(
                        operator_norm(u.conj().T @ g.unit(s, i, j) @ u - h.unit(s, i, j))
                        for s, m in enumerate(g.sizes)
                        for i in range(m)
                        for j in range(m)
                    )
                    assert worst <= 1e-7
                    assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-7
                    assert operator_norm(u - np.eye(d)) < n * 2.0 ** (-k0_exp + 1)


def test_criterion_10_sign_correction_evidence():
    with criterion(10, "minus-sign exchange operator fails unitarity; plus-sign passes", 5.0):
        d = 4
        p = np.zeros((d, d), dtype=complex)
        p[:2, :2] = np.eye(2)
        u_minus = exchange_block_operator(p, p, sign=-1)
        assert operator_norm(u_minus.conj().T @ u_minus - np.eye(d)) > 0.5
        u_plus = exchange_block_operator(p, p, sign=1)
        assert operator_norm(u_plus - np.eye(d)) <= 1e-12

        # the plus-sign construction passes the criterion-9 bounds on a fresh instance
        rng = np.random.default_rng(1010)
        ps = _random_projection_family(rng, 2, 6)
        threshold = 2.0 ** -Delta2(2, 4)
        u_small = nearby_unitary(6, threshold / 4, rng)
        qs = [u_small @ pp @ u_small.conj().T for pp in ps]
        v = exchange_unitary(ps, qs, 4)
        assert operator_norm(v.conj().T @ v - np.eye(6)) <= 1e-8
        assert max(operator_norm(v.conj().T @ a @ v - b) for a, b in zip(ps, qs)) <= 1e-8
        assert operator_norm(v - np.eye(6)) < 2.0**-4
