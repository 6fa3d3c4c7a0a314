import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.dimgroup import unit_violation
from afkit.ordgrp import (
    PosMatrix,
    Tower,
    apply,
    compose,
    convex_basis,
    restrict_to_convex,
    vector,
)


def is_strict_unit(u) -> bool:
    """u is an order unit of Z^len(u): the one-level unital claim holds."""
    return unit_violation(Tower((u,), (), unital=True)) is None


def small_matrix(max_dim=3, max_entry=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: PosMatrix(tuple(tuple(row) for row in rows)))
        )
    )


class TestPosMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PosMatrix(((1, -1),))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            PosMatrix(((1, 2), (3,)))

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            PosMatrix(((1.5,),))


class TestCompose:
    def test_identity_neutral(self):
        m = PosMatrix(((1, 2), (3, 0)))
        assert compose(PosMatrix.identity(2), m) == m
        assert compose(m, PosMatrix.identity(2)) == m

    def test_one_by_one(self):
        assert compose(PosMatrix(((2,),)), PosMatrix(((3,),))).entries == ((6,),)

    def test_two_by_two(self):
        a = PosMatrix(((1, 1), (0, 2)))
        b = PosMatrix(((2, 0), (1, 1)))
        assert compose(a, b).entries == ((3, 1), (2, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(PosMatrix(((1, 2),)), PosMatrix(((1, 2),)))

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(), small_matrix(), small_matrix())
    def test_associative_on_compatible_triples(self, a, b, c):
        if a.cols != b.rows or b.cols != c.rows:
            return
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestApply:
    def test_identity(self):
        assert apply(PosMatrix.identity(2), (3, 5)) == (3, 5)

    def test_scalar(self):
        assert apply(PosMatrix(((2,),)), (1,)) == (2,)

    def test_rectangular(self):
        assert apply(PosMatrix(((1, 2), (3, 0))), (2, 1)) == (4, 6)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            apply(PosMatrix(((1, 2),)), (1,))


class TestOrderUnit:
    def test_all_ones(self):
        assert is_strict_unit((1, 1))

    def test_zero_component_fails(self):
        # g = (1, 0) admits no n with n*u >= g when u = (0, 1)
        assert not is_strict_unit((0, 1))

    def test_componentwise_bound(self):
        assert is_strict_unit((3, 2, 7))


class TestConvex:
    def test_basis_examples(self):
        assert convex_basis((2, 0, 1)) == (1, 3)
        assert convex_basis((0, 0)) == ()
        assert convex_basis((1, 1, 1)) == (1, 2, 3)

    def test_full_basis_is_order_unit(self):
        u = (2, 1, 4)
        assert convex_basis(u) == (1, 2, 3)
        assert is_strict_unit(u)


class TestRestrictToConvex:
    def test_deletes_outside_basis(self):
        phi = PosMatrix(((2, 0), (0, 5)))
        assert restrict_to_convex(phi, (1, 0), (2, 0)).entries == ((2,),)

    def test_identity_full_units(self):
        phi = PosMatrix.identity(2)
        assert restrict_to_convex(phi, (1, 1), (1, 1)) == PosMatrix.identity(2)

    def test_image_escapes(self):
        phi = PosMatrix(((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            restrict_to_convex(phi, (1, 0), (1, 0))

    def test_identity_on_sub_basis(self):
        u = (1, 0, 2)
        got = restrict_to_convex(PosMatrix.identity(3), u, u)
        assert got == PosMatrix.identity(2)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_convex(PosMatrix.identity(2), (0, 0), (1, 1))


class TestSimplicialGroup:
    # one level of a Tower: Z^rank with an optional unit vector
    def test_unit_length_checked(self):
        with pytest.raises(ValueError, match="equal its vector's length"):
            Tower(((1,),), (), ranks=(2,))

    def test_nonstrict_unit_tolerated(self):
        assert Tower(((1, 0),), ()).ranks == (2,)
        assert not is_strict_unit((1, 0))
        assert is_strict_unit((1, 2))

    def test_negative_unit_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Tower(((1, -1),), ())

    def test_unitless_levels_need_ranks(self):
        with pytest.raises(ValueError, match="needs ranks"):
            Tower((None,), ())
        t = Tower((None, (2,)), (PosMatrix(((2,),)),), ranks=(1, 1))
        assert (t.ranks, t.depth) == ((1, 1), 1)
        assert t == Tower((None, (2,)), (PosMatrix(((2,),)),), ranks=[1, 1])

    def test_bonds_chain_the_ranks(self):
        with pytest.raises(ValueError, match="one bond per gap"):
            Tower(((1,), (2,)), ())
        with pytest.raises(ValueError, match="gap 0 does not match"):
            Tower(((1,), (1, 1)), (PosMatrix(((1,),)),))


def test_vector_rejects_empty_and_floats():
    with pytest.raises(ValueError):
        vector(())
    with pytest.raises(TypeError):
        vector((1.5,))
