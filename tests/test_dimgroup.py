import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.dimgroup import (
    LimitElement,
    LimitHom,
    Verdict3,
    af_of_certificate,
    certificate_of_af,
    eq_at_depth,
    positive_at_depth,
    push,
    shen_factor,
    unit_violation,
    unitalize,
)
from afkit.bratteli import af_sequence_of_diagram, gen_car
from afkit.findim import af_sequence_violation
from afkit.jsonio import SchemaError, certificate_from_obj
from afkit.ordgrp import PosMatrix, Tower, mat_vec

from helpers import (
    bare_tower,
    random_planted_shen_instance,
    random_pos_matrix,
    random_unital_sequence,
    uhf_certificate,
)


def collapse_cert():
    # Z^2 --[[1,1]]--> Z --[[1]]--> Z
    return bare_tower((2, 1, 1), (PosMatrix(((1, 1),)), PosMatrix(((1,),))))


def random_certificate(rnd: random.Random, depth=None, max_rank=3) -> Tower:
    d = rnd.randint(1, 5) if depth is None else depth
    ranks = [rnd.randint(1, max_rank) for _ in range(d + 1)]
    bonds = tuple(random_pos_matrix(rnd, ranks[s + 1], ranks[s], 2) for s in range(d))
    return bare_tower(ranks, bonds)


class TestCertificate:
    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            bare_tower((2, 1), (PosMatrix(((1,),)),))

    def test_unital_needs_strict_transported_units(self):
        # the claim is checked by its readers: unit_violation names the first break
        untransported = Tower(((1,), (3,)), (PosMatrix(((2,),)),), unital=True)
        assert unit_violation(untransported) == "bond at gap 0 does not carry the unit forward"
        zero = Tower(((0,), (0,)), (PosMatrix(((1,),)),), unital=True)
        assert unit_violation(zero) == "unital certificate needs a strict unit at stage 0"
        unitless = Tower((None, (2,)), (PosMatrix(((2,),)),), unital=True, ranks=(1, 1))
        assert unit_violation(unitless) == "unital certificate needs a strict unit at stage 0"
        assert unit_violation(uhf_certificate(2, 3)) is None
        with pytest.raises(SchemaError, match="certificate: bond at gap 0 does not carry"):
            certificate_from_obj(
                {"stages": [{"rank": 1, "unit": [1]}, {"rank": 1, "unit": [3]}], "bonds": [[[2]]], "unital": True}
            )
        for cert in (untransported, zero):
            with pytest.raises(ValueError, match="unit"):
                af_of_certificate(cert)

    def test_bond_product(self):
        car = uhf_certificate(2, 4)
        assert car.bond_product(0, 3).entries == ((8,),)
        assert car.bond_product(2, 2) == PosMatrix.identity(1)


class TestPush:
    def test_same_stage(self):
        car = uhf_certificate(2, 5)
        assert push(car, LimitElement(1, (3,)), 1) == (3,)

    def test_car_three_gaps(self):
        car = uhf_certificate(2, 5)
        assert push(car, LimitElement(0, (1,)), 3) == (8,)

    def test_rank_two(self):
        cert = bare_tower((2, 2), (PosMatrix(((1, 1), (0, 1))),))
        assert push(cert, LimitElement(0, (1, 0)), 1) == (1, 0)

    def test_range_checked(self):
        car = uhf_certificate(2, 3)
        with pytest.raises(ValueError):
            push(car, LimitElement(2, (1,)), 1)
        with pytest.raises(ValueError):
            push(car, LimitElement(0, (1,)), 4)


class TestEqAtDepth:
    def test_reflexive_at_own_stage(self):
        car = uhf_certificate(2, 5)
        el = LimitElement(2, (7,))
        assert eq_at_depth(car, el, el) == Verdict3("yes", 2)

    def test_collapse_identifies(self):
        cert = collapse_cert()
        a = LimitElement(0, (1, 0))
        b = LimitElement(0, (0, 1))
        assert eq_at_depth(cert, a, b) == Verdict3("yes", 1)

    def test_injective_tower_unknown(self):
        car = uhf_certificate(2, 5)
        v = eq_at_depth(car, LimitElement(0, (1,)), LimitElement(0, (2,)))
        assert v.status == "unknown" and v.stage == 5

    def test_symmetric_and_monotone(self):
        rnd = random.Random(40)
        for _ in range(60):
            cert = random_certificate(rnd)
            sa = rnd.randint(0, cert.depth)
            sb = rnd.randint(0, cert.depth)
            a = LimitElement(sa, tuple(rnd.randint(-2, 2) for _ in range(cert.ranks[sa])))
            b = LimitElement(sb, tuple(rnd.randint(-2, 2) for _ in range(cert.ranks[sb])))
            v1 = eq_at_depth(cert, a, b)
            v2 = eq_at_depth(cert, b, a)
            assert v1 == v2
            if v1.status == "yes":
                # a Yes witness survives any deeper certificate truncation
                assert push(cert, a, v1.stage) == push(cert, b, v1.stage)

    def test_never_no(self):
        rnd = random.Random(41)
        for _ in range(40):
            cert = random_certificate(rnd)
            a = LimitElement(0, tuple(rnd.randint(-2, 2) for _ in range(cert.ranks[0])))
            b = LimitElement(0, tuple(rnd.randint(-2, 2) for _ in range(cert.ranks[0])))
            assert eq_at_depth(cert, a, b).status in ("yes", "unknown")


class TestPositivity:
    def test_zero_vector(self):
        car = uhf_certificate(2, 4)
        assert positive_at_depth(car, LimitElement(0, (0,))) == Verdict3("yes", 0)

    def test_becomes_positive(self):
        cert = bare_tower((2, 2), (PosMatrix(((1, 0), (1, 1))),))
        assert positive_at_depth(cert, LimitElement(0, (1, -1))) == Verdict3("yes", 1)

    def test_never_positive_is_unknown(self):
        car = uhf_certificate(2, 4)
        v = positive_at_depth(car, LimitElement(0, (-1,)))
        assert v.status == "unknown"

    def test_cone_antisymmetry(self):
        rnd = random.Random(42)
        for _ in range(60):
            cert = random_certificate(rnd)
            a = LimitElement(0, tuple(rnd.randint(-2, 2) for _ in range(cert.ranks[0])))
            neg = LimitElement(0, tuple(-x for x in a.vector))
            va = positive_at_depth(cert, a)
            vb = positive_at_depth(cert, neg)
            if va.status == "yes" and vb.status == "yes":
                t = max(va.stage, vb.stage)
                zero = LimitElement(t, tuple([0] * cert.ranks[t]))
                v = eq_at_depth(cert, a, zero)
                assert v.status == "yes" and v.stage <= t


class TestShen:
    def test_kernel_already_dead(self):
        cert = bare_tower((1,) * 4, [PosMatrix(((1,),))] * 3)
        theta = LimitHom(0, ((1, 1),), positive=True)
        phi, tp = shen_factor(cert, theta, (1, -1))
        assert phi.entries == ((1, 1),)
        assert (tp.stage, tp.matrix) == (0, ((1,),))

    def test_alpha_zero(self):
        cert = collapse_cert()
        theta = LimitHom(0, ((1, 0), (0, 1)), positive=True)
        phi, tp = shen_factor(cert, theta, (0, 0))
        assert phi.entries == theta.matrix
        assert tp.stage == 0

    def test_kernel_absorbed_next_stage(self):
        cert = collapse_cert()
        theta = LimitHom(0, ((1, 0), (0, 1)), positive=True)
        phi, tp = shen_factor(cert, theta, (1, -1))
        assert phi.entries == ((1, 1),)
        assert (tp.stage, tp.matrix) == (1, ((1,),))

    def test_witness_not_found(self):
        car = uhf_certificate(2, 4)
        theta = LimitHom(0, ((1,),), positive=True)
        assert shen_factor(car, theta, (1,)) is None

    def test_requires_positive_hom(self):
        cert = collapse_cert()
        with pytest.raises(ValueError):
            shen_factor(cert, LimitHom(0, ((1, -1), (0, 1))), (0, 0))

    def test_planted_instances(self):
        rnd = random.Random(43)
        for _ in range(60):
            cert, theta, alpha = random_planted_shen_instance(rnd)
            phi, tp = shen_factor(cert, theta, alpha)
            assert all(x == 0 for x in mat_vec(phi.entries, alpha))
            assert all(x >= 0 for row in phi.entries for x in row)
            # theta' o phi = theta at depth on every basis vector
            for j in range(theta.source_rank):
                lhs = LimitElement(tp.stage, phi.column(j))
                rhs = LimitElement(theta.stage, tuple(r[j] for r in theta.matrix))
                assert eq_at_depth(cert, lhs, rhs).status == "yes"


class TestUnitalize:
    def test_already_strict_is_identity(self):
        cert = certificate_of_af(random_unital_sequence(random.Random(44), 3))
        got = unitalize(Tower(cert.levels, cert.bonds, unital=False))
        assert got.levels == cert.levels
        assert got.bonds == cert.bonds
        assert got.unital

    def test_cuts_dead_coordinate(self):
        cert = Tower(((1, 0), (2, 0)), (PosMatrix(((2, 0), (0, 3))),))
        got = unitalize(cert)
        assert (got.ranks, got.levels) == ((1, 1), ((1,), (2,)))
        assert got.bonds[0].entries == ((2,),)
        assert got.unital

    def test_zero_unit_rejected(self):
        cert = Tower(((0, 0), (0, 0)), (PosMatrix(((1, 0), (0, 1))),))
        with pytest.raises(ValueError, match="stage 0 is zero"):
            unitalize(cert)

    def test_unit_transport_precondition(self):
        cert = Tower(((1,), (3,)), (PosMatrix(((2,),)),))
        with pytest.raises(ValueError, match="carry the unit forward"):
            unitalize(cert)
        with pytest.raises(ValueError, match="stage 0 has no unit"):
            unitalize(Tower((None, (2,)), (PosMatrix(((2,),)),), ranks=(1, 1)))


class TestAFBridge:
    def test_car_round_trip(self):
        cert = certificate_of_af(af_sequence_of_diagram(gen_car(4)))
        assert cert.levels == ((1,), (2,), (4,), (8,), (16,))
        assert all(b.entries == ((2,),) for b in cert.bonds)
        seq = af_of_certificate(cert)
        assert seq == af_sequence_of_diagram(gen_car(4))

    def test_trivial_tower(self):
        cert = Tower(((1,), (1,)), (PosMatrix(((1,),)),), unital=True)
        seq = af_of_certificate(cert)
        assert seq.levels == ((1,), (1,))

    def test_unitless_synthesis(self):
        cert = bare_tower((1,) * 4, [PosMatrix(((2,),))] * 3)
        seq = af_of_certificate(cert)
        assert seq.levels == ((1,), (2,), (4,), (8,))
        assert af_sequence_violation(seq) is None

    def test_unitless_synthesis_pads_dead_rows(self):
        cert = bare_tower((1, 2), (PosMatrix(((1,), (0,))),))
        seq = af_of_certificate(cert)
        # the dead row gets the minimal unit 1
        assert seq.levels[1] == (1, 1)

    def test_round_trips_random(self):
        rnd = random.Random(45)
        for _ in range(60):
            seq = random_unital_sequence(rnd, rnd.randint(0, 6))
            cert = certificate_of_af(seq)
            assert af_of_certificate(cert) == seq
            assert certificate_of_af(af_of_certificate(cert)) == cert


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(1, 4),
)
def test_eq_at_depth_monotone_in_depth(a_vec, b_vec, cut):
    # rank collapse at the first gap makes distinct elements merge
    ranks = (2, 1, 1, 1, 1, 1)
    bonds = (PosMatrix(((1, 1),)),) + tuple(PosMatrix(((2,),)) for _ in range(4))
    deep = bare_tower(ranks, bonds)
    shallow = bare_tower(ranks[: cut + 1], bonds[:cut])
    a = LimitElement(0, a_vec)
    b = LimitElement(0, b_vec)
    v_shallow = eq_at_depth(shallow, a, b)
    v_deep = eq_at_depth(deep, a, b)
    if v_shallow.status == "yes":
        assert v_deep == v_shallow
    if v_deep.status == "yes" and v_deep.stage <= shallow.depth:
        assert v_shallow == v_deep
