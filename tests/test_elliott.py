import random

import pytest

from afkit.dimgroup import LimitHom, certificate_of_af
from afkit.elliott import (
    SeedNotFound,
    ZigzagWitness,
    _row_solutions,
    build_zigzag,
    intertwine_stage,
    verify_zigzag,
    zigzag_violation,
)
from afkit.bratteli import af_sequence_of_diagram, gen_car
from afkit.findim import AlgebraHom, FinDimAlgebra
from afkit.dimgroup import af_of_certificate
from afkit.ordgrp import PosMatrix, Tower, compose

from helpers import bare_tower, certificate_of_diagram, relabel, uhf_certificate, wide_diagram


def collapse_cert():
    return bare_tower((2, 1, 1), (PosMatrix(((1, 1),)), PosMatrix(((1,),))))


class TestIntertwineStage:
    def test_identity_case(self):
        # mu = nu_r itself: nothing to do
        car = uhf_certificate(2, 5)
        t, delta = intertwine_stage(car, LimitHom(2, ((1,),), positive=True), PosMatrix.identity(1), 2)
        assert (t, delta) == (2, PosMatrix.identity(1))

    def test_strict_progression(self):
        # same data, but the caller demands a strictly later stage
        car = uhf_certificate(2, 5)
        t, delta = intertwine_stage(
            car, LimitHom(0, ((1,),), positive=True), PosMatrix(((1,),)), 0, min_stage=1
        )
        assert t == 1
        assert delta.entries == ((2,),)
        assert delta == car.bond_product(0, 1)

    def test_defect_killed_one_gap_later(self):
        cert = collapse_cert()
        mu = LimitHom(0, ((1,), (0,)), positive=True)
        gamma = PosMatrix(((1, 1),))
        t, delta = intertwine_stage(cert, mu, gamma, 0)
        assert t == 1
        assert delta.entries == ((1,),)
        # delta . gamma equals the bond product exactly
        assert compose(delta, gamma) == cert.bond_product(0, t)

    def test_precondition_checked(self):
        car = uhf_certificate(2, 5)
        with pytest.raises(ValueError):
            intertwine_stage(car, LimitHom(0, ((3,),), positive=True), PosMatrix(((1,),)), 0)

    def test_signed_representative_is_lifted(self):
        # mu carried by a signed matrix that becomes nonnegative after one push
        cert = bare_tower((2, 2, 2), (PosMatrix(((1, 0), (1, 1))), PosMatrix.identity(2)))
        mu = LimitHom(0, ((1,), (-1,)), positive=False)
        gamma = PosMatrix(((1,), (0,)))
        # nu_0(e1) = mu(gamma e1) requires e1 = (1,-1) in the limit: false
        with pytest.raises(ValueError):
            intertwine_stage(cert, mu, gamma, 0)


class TestBuildZigzag:
    def test_self_intertwining(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(6)))
        w = build_zigzag(car, car, depth=3)
        assert w.depth == 3
        assert verify_zigzag(w, car, car)

    def test_car_vs_telescoped_car(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(10)))
        car4 = uhf_certificate(4, 5)
        w = build_zigzag(car, car4, depth=5)
        assert w.depth == 5
        assert verify_zigzag(w, car, car4)
        # the two identity families hold exactly
        for s in range(w.depth):
            f = car.bond_product(w.n_stages[s], w.n_stages[s + 1])
            assert compose(w.betas[s], w.alphas[s]) == f
            g = car4.bond_product(w.m_stages[s], w.m_stages[s + 1])
            assert compose(w.alphas[s + 1], w.betas[s]) == g

    def test_car_vs_three_infinity_stalls(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(5)))
        three = uhf_certificate(3, 5)
        w = build_zigzag(car, three, depth=5, budget=50_000)
        # the deepest partial witness comes back and replays
        assert w is not None and w.depth == 0
        assert verify_zigzag(w, car, three)

    def test_require_full_raises_with_partial(self):
        # A caller that needs every round checks the depth of the result: a
        # stall comes back as the partial witness, never as an exception.
        car = certificate_of_af(af_sequence_of_diagram(gen_car(5)))
        three = uhf_certificate(3, 5)
        for budget in (50, 50_000):
            w = build_zigzag(car, three, depth=5, budget=budget)
            assert w is not None and w.depth < 5
            assert w.depth == 0 and tuple(w.n_stages) == (0,)
            assert verify_zigzag(w, car, three)

    def test_seed_not_found(self):
        # no positive unit-preserving map from unit (1,1) into unit (3,)
        left = Tower(((2,), (4,)), (PosMatrix(((2,),)),), unital=True)
        right = uhf_certificate(3, 2)
        for budget in (0, 100_000):
            with pytest.raises(SeedNotFound):
                build_zigzag(left, right, depth=1, budget=budget)

    def test_rank_five_relabelling(self):
        # width 5 with equal labels: every row of a stage map has many candidates
        d = wide_diagram(5, 4, 5)
        a = certificate_of_diagram(d)
        b = certificate_of_diagram(relabel(random.Random(0), d))
        w = build_zigzag(a, b, depth=4)
        assert w.depth == 4
        assert verify_zigzag(w, a, b)

    def test_row_solutions_without_recursion(self):
        # 1500 coordinates, one per unit vector
        assert len(list(_row_solutions(None, None, [1] * 1500, 1))) == 1500
        assert len(list(_row_solutions([[1]] * 1500, [1], [1] * 1500, 1))) == 1500

    def test_zero_budget_is_unknown_not_seed_not_found(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(6)))
        assert build_zigzag(car, car, depth=2, budget=0) is None

    def test_1200_rounds_without_recursion(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(1200)))
        w = build_zigzag(car, car, depth=1200)
        assert w.depth == 1200
        assert verify_zigzag(w, car, car)

    def test_needs_unital(self):
        bare = bare_tower((1, 1), (PosMatrix(((2,),)),))
        with pytest.raises(ValueError, match="needs unital certificates"):
            build_zigzag(bare, bare, depth=1)
        # the unital claim is checked where it is relied on
        broken = Tower(((1,), (3,)), (PosMatrix(((2,),)),), unital=True)
        seed = ZigzagWitness((0,), (0,), (PosMatrix(((1,),)),), ())
        for check in (lambda: build_zigzag(broken, broken, depth=1), lambda: zigzag_violation(seed, broken, broken)):
            with pytest.raises(ValueError, match="bond at gap 0 does not carry the unit forward"):
                check()

    def test_witness_converts_to_algebra_homs(self):
        # the K0-level identities realize as multiplicity identities of homs
        car = certificate_of_af(af_sequence_of_diagram(gen_car(10)))
        car4 = uhf_certificate(4, 5)
        w = build_zigzag(car, car4, depth=4)
        seqA = af_of_certificate(car)
        seqB = af_of_certificate(car4)
        for s in range(w.depth):
            FA = FinDimAlgebra(seqA.levels[w.n_stages[s]])
            FAn = FinDimAlgebra(seqA.levels[w.n_stages[s + 1]])
            FB = FinDimAlgebra(seqB.levels[w.m_stages[s]])
            sigma = AlgebraHom(FA, FB, w.alphas[s])
            tau = AlgebraHom(FB, FAn, w.betas[s])
            assert AlgebraHom(FA, FAn, compose(tau.mult, sigma.mult)).mult == car.bond_product(
                w.n_stages[s], w.n_stages[s + 1]
            )


class TestVerifyZigzag:
    def test_empty_witness(self):
        # a witness starts with its seed map alpha_0; without one it proves nothing
        with pytest.raises(ValueError, match="alpha_0"):
            ZigzagWitness((), (), (), ())

    def test_corrupted_entry_located(self):
        car = certificate_of_af(af_sequence_of_diagram(gen_car(10)))
        car4 = uhf_certificate(4, 5)
        w = build_zigzag(car, car4, depth=3)
        bad_alphas = list(w.alphas)
        bad_alphas[1] = PosMatrix(((bad_alphas[1].entries[0][0] + 2,),))
        bad = ZigzagWitness(w.n_stages, w.m_stages, tuple(bad_alphas), w.betas)
        assert not verify_zigzag(bad, car, car4)
        violation = zigzag_violation(bad, car, car4)
        assert violation is not None and "alpha_1" in violation

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ZigzagWitness((0, 1), (0,), (PosMatrix(((1,),)),), ())
