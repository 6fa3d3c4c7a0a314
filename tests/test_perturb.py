import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from afkit import perturb
from afkit.findim import AlgebraHom, FinDimAlgebra
from afkit.ordgrp import PosMatrix
from afkit.perturb import (
    Delta1,
    Delta2,
    Delta3,
    Delta4,
    DeltaGlimm,
    MatrixUnitSystem,
    PerturbationPreconditionError,
    _least_power_below,
    canonical_matrix_units,
    conjugate_system,
    defect,
    delta0,
    delta1,
    delta2,
    embedded_matrix_units,
    exchange_block_operator,
    exchange_demo,
    exchange_unitary,
    glimm_demo,
    glimm_unitary,
    haar_unitary,
    nearby_unitary,
    operator_norm,
    square_partitions,
)

# -- independent re-derivations of the displayed recursions ------------------


def oracle_delta0(eps: Fraction, n: int) -> Fraction:
    if n == 1:
        return min(eps / 2, Fraction(1, 2))
    return min(
        Fraction(1, 4) * eps * Fraction(1, n),
        oracle_delta0(Fraction(1, 12) * eps * Fraction(1, n * n), n - 1),
        Fraction(1),
    )


def oracle_delta1(eps: Fraction, n: int) -> Fraction:
    if n == 1:
        return Fraction(1, 2)
    m = n - 1
    return min(Fraction(1, 3), eps * Fraction(1, 48 * m), oracle_delta1(eps * Fraction(1, 48 * m), m))


def oracle_delta2(eps: Fraction, n: int) -> Fraction:
    return min(Fraction(1, 5), eps * (8 - 5 * eps), oracle_delta1(eps, n))


class TestModuli:
    def test_delta0_base(self):
        assert delta0(Fraction(1, 2), 1) == Fraction(1, 4)

    def test_delta0_step(self):
        assert delta0(Fraction(1, 2), 2) == Fraction(1, 192)

    def test_delta1_base_ignores_eps(self):
        for eps in (Fraction(1, 2), Fraction(1, 7), Fraction(9, 10)):
            assert delta1(eps, 1) == Fraction(1, 2)

    def test_against_oracles(self):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 5)):
            for n in range(1, 8):
                assert delta0(eps, n) == oracle_delta0(eps, n)
                assert delta1(eps, n) == oracle_delta1(eps, n)
                assert delta2(eps, n) == oracle_delta2(eps, n)

    def test_ranges_and_monotonicity(self):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            for fn in (delta0, delta1, delta2):
                values = [fn(eps, n) for n in range(1, 11)]
                assert all(0 < v <= 1 for v in values)
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            delta0(Fraction(3, 2), 1)
        with pytest.raises(ValueError):
            delta0(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            delta2(Fraction(0), 2)

    def test_Delta2_closed_form(self):
        assert Delta2(3, 4) == 9

    def test_Delta1_closed_form_rank_one(self):
        # delta0(2^-(k+1), 1) = 2^-(k+2), so the least winning exponent is k+3
        for k in range(0, 21):
            assert Delta1(1, k) == k + 3

    def test_Delta_terminate_because_deltas_are_positive(self):
        for n in range(1, 6):
            for k in range(0, 6):
                assert delta0(Fraction(1, 2 ** (k + 1)), n) > 0
                assert delta2(Fraction(1, 2 ** (k + 1)), n) > 0
                assert 2 ** -Delta1(n, k) < delta0(Fraction(1, 2 ** (k + 1)), n)
                assert 2 ** -Delta3(n, k) < delta2(Fraction(1, 2 ** (k + 1)), n)
                assert Delta1(n, k) >= 1 and Delta3(n, k) >= 1

    def test_Delta4_dominates_its_pieces(self):
        for n in range(1, 5):
            for k in range(0, 5):
                inner = max(Delta3(m, k) for m in range(n + 1))
                assert Delta4(n, k) >= 1 + inner
                assert Delta4(n, k) >= max(Delta1(m, inner + 2) for m in range(k + 1))

    def test_square_partitions_match_the_recursion(self):
        for n in range(1, 61):
            assert square_partitions(n) == reference.square_partitions(n)

    def test_square_partitions(self):
        assert square_partitions(2) == ((1, 1),)
        assert square_partitions(4) == ((1, 1, 1, 1), (2,))
        assert set(square_partitions(9)) == {(1,) * 9, (1, 1, 1, 1, 1, 2), (1, 2, 2), (3,)}
        for parts in square_partitions(13):
            assert sum(p * p for p in parts) == 13

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**80), st.integers(1, 2**80))
    def test_least_power_below_matches_the_loop(self, p, q):
        def by_loop(value):
            n = 0
            while Fraction(1, 2**n) >= value:
                n += 1
            return n

        value = Fraction(p, q)
        assert _least_power_below(value) == by_loop(value)

    def test_least_power_below_at_exact_powers_of_two(self):
        for N in range(70):
            assert _least_power_below(Fraction(1, 2**N)) == N + 1
            assert _least_power_below(Fraction(2 ** (N + 1))) == 0

    def test_DeltaGlimm_25_8(self):
        assert DeltaGlimm(25, 8) == 733

    def test_DeltaGlimm_uses_worst_partition(self):
        n, k = 4, 3
        k0 = (n * 2 ** (k + 1) - 1).bit_length()
        expected = max(Delta4(n, Delta2(sum(p), k0)) for p in square_partitions(n))
        assert DeltaGlimm(n, k) == expected


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(5, rng)
        assert abs(operator_norm(u) - 1.0) <= 1e-10

    def test_diagonal(self):
        assert abs(operator_norm(np.diag([3, -4j])) - 4.0) <= 1e-10


class TestMatrixUnits:
    def test_single_block(self):
        sys1 = canonical_matrix_units(FinDimAlgebra((1,)))
        assert sys1.dim == 1 and defect(sys1) == 0.0

    def test_embedded_multi_block_realization(self):
        hom = AlgebraHom(
            FinDimAlgebra((1, 2)), FinDimAlgebra((2, 3)), PosMatrix(((2, 0), (1, 1)))
        )
        r = embedded_matrix_units(hom)
        assert r.unital and defect(r) <= 1e-12
        # the corner e^s_{0,0} has rank equal to block s's total multiplicity
        assert [round(np.trace(r.unit(s, 0, 0)).real) for s in range(2)] == [3, 1]

    def test_two_by_two_block(self):
        sys2 = canonical_matrix_units(FinDimAlgebra((2,)))
        assert sys2.dim == 2
        assert defect(sys2) <= 1e-12
        e01 = sys2.unit(0, 0, 1)
        assert e01[0, 1] == 1 and np.count_nonzero(e01) == 1

    def test_cross_block_products_vanish(self):
        sys12 = canonical_matrix_units(FinDimAlgebra((1, 2)))
        assert sys12.dim == 3
        z = sys12.unit(0, 0, 0) @ sys12.unit(1, 0, 1)
        assert operator_norm(z) == 0.0
        assert defect(sys12) <= 1e-12

    def test_defect_small_for_all_small_algebras(self):
        families = [
            FinDimAlgebra(sizes)
            for count in (1, 2, 3)
            for sizes in itertools.combinations_with_replacement(range(1, 5), count)
        ] + [FinDimAlgebra((8,)), FinDimAlgebra((4, 4)), FinDimAlgebra((1, 2, 3, 4))]
        for f in families:
            if sum(n * n for n in f.summands) <= 64:
                assert defect(canonical_matrix_units(f)) <= 1e-12

    def test_perturbed_entry_measured(self):
        eta = 1e-4
        sys2 = canonical_matrix_units(FinDimAlgebra((2,)))
        units = [[[np.array(sys2.unit(0, i, j)) for j in range(2)] for i in range(2)]]
        units[0][0][1] = units[0][0][1] + eta * np.eye(2)
        bumped = MatrixUnitSystem((2,), (tuple(tuple(r) for r in units[0]),), unital=True)
        d = defect(bumped)
        assert eta / 2 <= d <= 3 * eta

    def test_empty_type(self):
        assert defect(MatrixUnitSystem((), (), unital=False)) == 0.0

    def test_residuals_below_frobenius_underflow_are_measured(self):
        # |x|^2 = 4e-400 rounds to zero, so ||e* - e||_F reads 0 for e = 1e-200 i
        tiny = MatrixUnitSystem((1,), ((((1e-200j * np.ones((1, 1))),),),), unital=False)
        assert defect(tiny) == reference.defect(tiny) == 2e-200

    def test_working_set_is_one_row_of_products(self):
        # the benchmark's shape, N = 116 units of M_18; every N^2 residual at once
        # would trace past 70 MiB, one row of N products about 2.4 MiB
        g = canonical_matrix_units(FinDimAlgebra((4, 6, 8)))
        system = conjugate_system(g, haar_unitary(g.dim, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            defect(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@st.composite
def unit_systems(draw):
    """A canonical or embedded system in M_d, d <= 8, maybe bumped, Haar-conjugated."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda z: sum(z) <= 8))
        g = canonical_matrix_units(FinDimAlgebra(tuple(sizes)))
    else:
        source = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        mult = st.lists(st.integers(0, 2), min_size=len(source), max_size=len(source))
        rows = draw(st.lists(mult, min_size=1, max_size=2))
        # each target block holds its row's load plus at most one slack dimension
        loads = [sum(m * n for m, n in zip(row, source)) for row in rows]
        blocks = sorted((load + draw(st.integers(0, 1)), row) for load, row in zip(loads, rows))
        assume(blocks[0][0] > 0 and sum(size for size, _ in blocks) <= 8)
        hom = AlgebraHom(
            FinDimAlgebra(tuple(source)),
            FinDimAlgebra(tuple(size for size, _ in blocks)),
            PosMatrix(tuple(tuple(row) for _, row in blocks)),
        )
        g = embedded_matrix_units(hom)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = [[list(row) for row in block] for block in g.units]
    if draw(st.booleans()):
        s = draw(st.integers(0, len(g.sizes) - 1))
        i, j = draw(st.integers(0, g.sizes[s] - 1)), draw(st.integers(0, g.sizes[s] - 1))
        z = rng.standard_normal((g.dim, g.dim)) + 1j * rng.standard_normal((g.dim, g.dim))
        units[s][i][j] = units[s][i][j] + draw(st.floats(0, 1e-3)) * z / operator_norm(z)
    frozen = tuple(tuple(tuple(row) for row in block) for block in units)
    bumped = MatrixUnitSystem(g.sizes, frozen, unital=draw(st.booleans()))
    return conjugate_system(bumped, haar_unitary(g.dim, rng))


@settings(max_examples=150, deadline=None)
@given(unit_systems())
def test_defect_matches_the_pairwise_loop(system):
    assert math.isclose(defect(system), reference.defect(system), rel_tol=1e-12, abs_tol=1e-300)


class TestExchange:
    def test_equal_projections_give_identity(self):
        d = 4
        p1 = np.zeros((d, d), dtype=complex)
        p1[:2, :2] = np.eye(2)
        p2 = np.eye(d) - p1
        v = exchange_unitary([p1, p2], [p1, p2], k=4)
        assert operator_norm(v - np.eye(d)) <= 1e-12

    def test_seeded_instances(self):
        for seed in range(5):
            report = exchange_demo(2, 4, 6, seed=seed)
            assert report["pass"], report

    def test_threshold_violation_reported(self):
        d = 4
        p1 = np.zeros((d, d), dtype=complex)
        p1[:2, :2] = np.eye(2)
        p2 = np.eye(d) - p1
        rng = np.random.default_rng(9)
        u = nearby_unitary(d, 0.4, rng)
        qs = [u @ p @ u.conj().T for p in (p1, p2)]
        if max(operator_norm(p - q) for p, q in zip((p1, p2), qs)) >= 2.0 ** -Delta2(2, 4):
            with pytest.raises(PerturbationPreconditionError) as err:
                exchange_unitary([p1, p2], qs, k=4)
            assert "Delta2" in str(err.value)

    def test_non_projection_rejected(self):
        d = 2
        bad = 0.5 * np.eye(d)
        with pytest.raises(PerturbationPreconditionError):
            exchange_unitary([bad], [bad], k=2)

    def test_partition_sum_required(self):
        d = 4
        p1 = np.zeros((d, d), dtype=complex)
        p1[0, 0] = 1
        with pytest.raises(PerturbationPreconditionError):
            exchange_unitary([p1], [p1], k=2)


class TestSignRegression:
    def test_minus_variant_fails_unitarity_at_equal_projections(self):
        # p = q, p not 0 or 1: the minus formula degenerates to 1 - 4p
        d = 4
        p = np.zeros((d, d), dtype=complex)
        p[:2, :2] = np.eye(2)
        u_minus = exchange_block_operator(p, p, sign=-1)
        assert operator_norm(u_minus.conj().T @ u_minus - np.eye(d)) > 0.5

    def test_plus_variant_is_identity_there(self):
        d = 4
        p = np.zeros((d, d), dtype=complex)
        p[:2, :2] = np.eye(2)
        u_plus = exchange_block_operator(p, p, sign=1)
        assert operator_norm(u_plus - np.eye(d)) <= 1e-12

    def test_plus_variant_intertwines(self):
        rng = np.random.default_rng(12)
        d = 6
        p = np.zeros((d, d), dtype=complex)
        p[:3, :3] = np.eye(3)
        u = nearby_unitary(d, 0.05, rng)
        q = u @ p @ u.conj().T
        z = exchange_block_operator(p, q, sign=1)
        assert operator_norm(z @ p - q @ z) <= 1e-12


class TestGlimm:
    def test_identity_case(self):
        g = canonical_matrix_units(FinDimAlgebra((2,)))
        u = glimm_unitary(g, g, np.eye(2))
        assert operator_norm(u - np.eye(2)) <= 1e-12

    def test_type_mismatch(self):
        g = canonical_matrix_units(FinDimAlgebra((2,)))
        h = canonical_matrix_units(FinDimAlgebra((1, 1)))
        with pytest.raises(ValueError):
            glimm_unitary(g, h, np.eye(2))

    def test_bad_v_rejected(self):
        g = canonical_matrix_units(FinDimAlgebra((2,)))
        rng = np.random.default_rng(3)
        h = conjugate_system(g, haar_unitary(2, rng))
        with pytest.raises(PerturbationPreconditionError):
            glimm_unitary(g, h, np.eye(2))

    def test_seeded_conjugation(self):
        for seed in range(4):
            report = glimm_demo((2,), 4, seed=seed)
            assert report["pass"], report
            report = glimm_demo((1, 2), 4, seed=seed)
            assert report["pass"], report

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            glimm_demo((2,), -1, seed=0)



class TestRaiseOnlyGates:
    """Each gate raises with its message on a violation 2 * tol past its bound."""

    P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    PAIR = [P, np.eye(4) - P]

    def raises(self, message, call, *args):
        with pytest.raises(PerturbationPreconditionError) as err:
            call(*args)
        assert str(err.value) == message

    def rotated_pair(self, t):
        rot = np.eye(4, dtype=complex)
        rot[[0, 0, 2, 2], [0, 2, 0, 2]] = [np.cos(t), -np.sin(t), np.sin(t), np.cos(t)]
        return [rot @ p @ rot.T for p in self.PAIR]

    def test_not_self_adjoint(self):
        p = self.P.copy()
        p[0, 2] = 2e-9  # p - p* has norm 2e-9; p itself stays idempotent
        ps = [p, self.PAIR[1]]
        self.raises("p[0] is not self-adjoint within 1e-09", exchange_unitary, ps, self.PAIR, 4)

    def test_not_idempotent(self):
        qs = [self.P, (1 + 2e-9) * self.PAIR[1]]
        self.raises("q[1] is not idempotent within 1e-09", exchange_unitary, self.PAIR, qs, 4)

    def test_not_orthogonal(self):
        v = np.array([2e-9, 0.0, 1.0, 0.0]) / np.sqrt(1 + 4e-18)
        ps = [self.P, np.outer(v, v).astype(complex) + np.diag([0.0, 0.0, 0.0, 1.0])]
        self.raises("p[0] and p[1] are not orthogonal within 1e-09", exchange_unitary, ps, ps, 4)

    def test_sum_not_identity(self):
        # unit vectors with pairwise inner products delta: each pair passes the
        # orthogonality gate, but sum(p) - 1 = delta (J - 1) has norm 3 delta = 2e-9
        delta = 2e-9 / 3
        w, vecs = np.linalg.eigh(np.eye(4) + delta * (np.ones((4, 4)) - np.eye(4)))
        root = (vecs * np.sqrt(w)) @ vecs.T
        ps = [np.outer(root[:, j], root[:, j]).astype(complex) for j in range(4)]
        self.raises("sum of p_j is not the identity within 1e-9", exchange_unitary, ps, ps, 4)

    def gap_message(self, qs, k):
        gap = max(operator_norm(p - q) for p, q in zip(self.PAIR, qs))
        threshold = 2.0 ** -Delta2(2, k)
        assert gap >= threshold
        return f"max ||p_j - q_j|| = {gap:.3e} is not below 2^-Delta2 = {threshold:.3e}"

    def test_gap_not_below_threshold(self):
        qs = self.rotated_pair(np.arcsin(2 * 2.0 ** -Delta2(2, 4)))
        self.raises(self.gap_message(qs, 4), exchange_unitary, self.PAIR, qs, 4)

    def test_gap_below_frobenius_underflow(self):
        # threshold 2^-606: a gap of 1e-170 squares to zero in the Frobenius sum
        qs = self.rotated_pair(1e-170)
        self.raises(self.gap_message(qs, 602), exchange_unitary, self.PAIR, qs, 602)

    def test_glimm_diagonal_residual(self):
        g = canonical_matrix_units(FinDimAlgebra((2,)))
        t = np.arcsin(2e-8)
        h = conjugate_system(g, np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex))
        err = operator_norm(g.unit(0, 0, 0) - h.unit(0, 0, 0))
        assert err > 1e-8
        message = f"v does not carry diagonal unit (0,0) within 1e-8 (residual {err:.3e})"
        self.raises(message, glimm_unitary, g, h, np.eye(2))

    def test_svd_decides_where_frobenius_cannot(self, monkeypatch):
        # 0.9 tol * I_128: the Frobenius norm 1.02e-8 exceeds tol, the operator norm does not
        p = (1 + 0.9e-9) * np.eye(128, dtype=complex)
        seen = []
        monkeypatch.setattr(perturb, "operator_norm", lambda m: seen.append(1) or operator_norm(m))
        v = exchange_unitary([p], [p], 4)
        assert len(seen) == 3  # p's and q's idempotence, then the sum
        assert operator_norm(v - np.eye(128)) <= 1e-8
