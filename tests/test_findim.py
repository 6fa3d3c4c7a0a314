import random

import pytest

from afkit.findim import (
    AlgebraHom,
    FinDimAlgebra,
    SizeViolation,
    af_sequence_violation,
    k0,
)
from afkit.bratteli import af_sequence_of_diagram, gen_car
from afkit.jsonio import SchemaError, sequence_from_obj
from afkit.ordgrp import PosMatrix, Tower, apply, compose

from helpers import random_algebra, random_hom


class TestAlgebra:
    def test_sorted_and_validated(self):
        assert FinDimAlgebra((3, 1, 2)).summands == (1, 2, 3)
        with pytest.raises(ValueError):
            FinDimAlgebra(())
        with pytest.raises(ValueError):
            FinDimAlgebra((0,))

    def test_k0(self):
        assert k0(FinDimAlgebra((1,))) == Tower(((1,),), (), unital=True)
        g = k0(FinDimAlgebra((2, 3)))
        assert (g.ranks, g.levels) == ((2,), ((2, 3),))
        g = k0(FinDimAlgebra((2, 2)))
        assert (g.ranks, g.levels) == ((2,), ((2, 2),))


class TestHoms:
    def test_k0_hom_is_the_multiplicity_matrix(self):
        # K0 of a hom is its multiplicity matrix, acting on the block-size units
        h = AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((4,)), PosMatrix(((2,),)))
        assert h.mult.entries == ((2,),)
        ident = AlgebraHom(FinDimAlgebra((2, 3)), FinDimAlgebra((2, 3)), PosMatrix.identity(2))
        assert ident.is_unital()
        h = AlgebraHom(FinDimAlgebra((1,)), FinDimAlgebra((2, 3)), PosMatrix(((2,), (3,))))
        assert h.is_unital()
        assert h.mult.entries == ((2,), (3,))
        assert apply(h.mult, k0(h.source).levels[0]) == k0(h.target).levels[0]

    def test_hom_from_matrix(self):
        # the constructor realizes a positive K0 matrix when the sizes admit it
        h = AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((4,)), PosMatrix(((2,),)))
        assert h.is_unital()
        with pytest.raises(SizeViolation):
            AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((3,)), PosMatrix(((2,),)))
        h = AlgebraHom(FinDimAlgebra((2, 3)), FinDimAlgebra((5,)), PosMatrix(((1, 1),)))
        assert h.is_unital()

    def test_compose(self):
        f = AlgebraHom(FinDimAlgebra((1,)), FinDimAlgebra((2,)), PosMatrix(((2,),)))
        g = AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((4,)), PosMatrix(((2,),)))
        assert AlgebraHom(f.source, g.target, compose(g.mult, f.mult)).mult.entries == ((4,),)
        ident = AlgebraHom(f.target, f.target, PosMatrix.identity(1))
        assert AlgebraHom(f.source, f.target, compose(ident.mult, f.mult)).mult == f.mult

        split = AlgebraHom(FinDimAlgebra((1,)), FinDimAlgebra((1, 1)), PosMatrix(((1,), (1,))))
        merge = AlgebraHom(FinDimAlgebra((1, 1)), FinDimAlgebra((2,)), PosMatrix(((1, 1),)))
        merged = AlgebraHom(split.source, merge.target, compose(merge.mult, split.mult))
        assert merged.mult.entries == ((2,),)

    def test_compose_requires_chain(self):
        # f . f does not chain (f.target != f.source): its multiplicities overflow
        f = AlgebraHom(FinDimAlgebra((1,)), FinDimAlgebra((2,)), PosMatrix(((2,),)))
        with pytest.raises(SizeViolation):
            AlgebraHom(f.source, f.target, compose(f.mult, f.mult))

    def test_unital_injective_flags(self):
        def violation(h):
            return af_sequence_violation(Tower((h.source.summands, h.target.summands), (h.mult,)))

        h = AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((4,)), PosMatrix(((2,),)))
        assert h.is_unital() and violation(h) is None
        h = AlgebraHom(FinDimAlgebra((2,)), FinDimAlgebra((5,)), PosMatrix(((2,),)))
        assert not h.is_unital() and violation(h) == (0, "non-unital")
        h = AlgebraHom(FinDimAlgebra((1, 1)), FinDimAlgebra((2,)), PosMatrix(((2, 0),)))
        assert h.is_unital() and violation(h) == (0, "non-injective")

    def test_round_trip_hom_matrix(self):
        rnd = random.Random(5)
        for _ in range(100):
            h = random_hom(rnd, random_algebra(rnd), unital=bool(rnd.getrandbits(1)))
            again = AlgebraHom(h.source, h.target, h.mult)
            assert again == h

    def test_functoriality_random(self):
        rnd = random.Random(6)
        for _ in range(100):
            f = random_hom(rnd, random_algebra(rnd), unital=bool(rnd.getrandbits(1)))
            g = random_hom(rnd, f.target, unital=bool(rnd.getrandbits(1)))
            gf = compose(g.mult, f.mult)
            assert AlgebraHom(f.source, g.target, gf).mult == gf  # the composite fits g.target

    def test_unit_tracking(self):
        rnd = random.Random(7)
        for _ in range(100):
            h = random_hom(rnd, random_algebra(rnd), unital=True)
            assert apply(h.mult, k0(h.source).levels[0]) == k0(h.target).levels[0]


class TestAFSequence:
    def test_car_prefix_valid(self):
        seq = af_sequence_of_diagram(gen_car(2))
        assert seq.levels == ((1,), (2,), (4,))
        assert af_sequence_violation(seq) is None

    def test_single_algebra(self):
        seq = Tower(((3,),), ())
        assert af_sequence_violation(seq) is None

    def test_non_unital_reported_with_stage(self):
        seq = Tower(((1,), (2,), (5,)), (PosMatrix(((2,),)), PosMatrix(((2,),))))
        assert af_sequence_violation(seq) == (1, "non-unital")

    def test_chaining_enforced(self):
        # the AF encoding names each hom's source and target; they must be the adjacent algebras
        a, b = {"summands": [1]}, {"summands": [2]}
        hom = {"source": a, "target": b, "mult": [[2]]}
        with pytest.raises(SchemaError, match="hom at stage 0 does not chain"):
            sequence_from_obj({"algebras": [a, a], "homs": [hom]})
        with pytest.raises(SchemaError, match="hom at stage 1 does not chain"):
            sequence_from_obj({"algebras": [a, b], "homs": [hom, hom]})
        got = sequence_from_obj({"algebras": [a, b], "homs": [hom]})
        assert got == Tower(((1,), (2,)), (PosMatrix(((2,),)),), unital=True)
