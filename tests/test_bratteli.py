import random

import pytest

from afkit.bratteli import (
    TRIAL_DIVISION_BOUND,
    ConsistencyError,
    EquivalenceWitness,
    WitnessStep,
    af_sequence_of_diagram,
    apply_iso,
    consistency_violation,
    equivalence_search,
    gen_car,
    gen_trace_diagram,
    path_count,
    path_matrix,
    replay_equivalence,
    simplicity_window,
    supernatural_prefix,
    telescope,
)
from afkit.dimgroup import af_of_certificate, certificate_of_af
from afkit.ordgrp import PosMatrix, Tower

from helpers import brute_force_path_count, random_diagram, random_unital_sequence


def three_level_example():
    # levels of sizes 1, 2, 1 with E0 = [[1],[2]] and E1 = [[3,1]]
    return Tower(
        ((0,), (0, 0), (0,)),
        (PosMatrix(((1,), (2,))), PosMatrix(((3, 1),))),
    )


class TestPathCounting:
    def test_same_level_is_zero(self):
        d = three_level_example()
        assert path_count(d, (1, 0), (1, 1)) == 0
        assert path_count(d, (2, 0), (0, 0)) == 0

    def test_adjacent_is_edge_entry(self):
        d = three_level_example()
        assert path_count(d, (0, 0), (1, 1)) == 2
        assert path_count(d, (1, 0), (2, 0)) == 3

    def test_two_gap_sum(self):
        d = three_level_example()
        assert path_count(d, (0, 0), (2, 0)) == 3 * 1 + 1 * 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            path_count(three_level_example(), (0, 0), (5, 0))

    def test_against_brute_force(self):
        rnd = random.Random(20)
        for _ in range(60):
            d = random_diagram(rnd)
            for lu in range(len(d.levels)):
                for lv in range(len(d.levels)):
                    for iu in range(len(d.levels[lu])):
                        for iv in range(len(d.levels[lv])):
                            assert path_count(d, (lu, iu), (lv, iv)) == brute_force_path_count(
                                d, (lu, iu), (lv, iv)
                            )

    def test_path_matrix_entries(self):
        d = three_level_example()
        assert path_matrix(d, 0, 1) == d.bonds[0]
        assert path_matrix(d, 0, 2).entries == ((5,),)
        assert path_matrix(gen_car(3), 0, 3).entries == ((8,),)

    def test_path_matrix_composition(self):
        rnd = random.Random(21)
        for _ in range(40):
            d = random_diagram(rnd)
            t = d.depth
            for a in range(t + 1):
                for b in range(a, t + 1):
                    for c in range(b, t + 1):
                        lhs = path_matrix(d, a, c)
                        rhs_inner = path_matrix(d, a, b)
                        rhs_outer = path_matrix(d, b, c)
                        assert lhs.entries == tuple(
                            tuple(
                                sum(
                                    rhs_outer.entries[i][k] * rhs_inner.entries[k][j]
                                    for k in range(rhs_outer.cols)
                                )
                                for j in range(rhs_inner.cols)
                            )
                            for i in range(rhs_outer.rows)
                        )


class TestTelescope:
    def test_identity_spec(self):
        d = gen_car(4)
        assert telescope(d, range(5)) == d

    def test_car_even_levels(self):
        got = telescope(gen_car(6), (0, 2, 4, 6))
        assert got.levels == ((1,), (4,), (16,), (64,))
        assert all(e.entries == ((4,),) for e in got.bonds)

    def test_composition_law(self):
        rnd = random.Random(22)
        for _ in range(40):
            d = random_diagram(rnd)
            t = d.depth
            if t < 2:
                continue
            inner = sorted(rnd.sample(range(1, t + 1), rnd.randint(1, t)))
            spec1 = (0, *inner)
            k = len(spec1) - 1
            sub = sorted(rnd.sample(range(1, k + 1), rnd.randint(0, k)))
            spec2 = (0, *sub)
            once = telescope(telescope(d, spec1), spec2)
            combined = tuple(spec1[i] for i in spec2)
            assert once == telescope(d, combined)

    def test_labels_preserved(self):
        d = random_diagram(random.Random(23))
        spec = (0, d.depth) if d.depth else (0,)
        got = telescope(d, spec)
        assert got.levels == tuple(d.levels[n] for n in spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="start at level 0"):
            telescope(gen_car(2), (1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            telescope(gen_car(2), (0, 2, 2))
        with pytest.raises(ValueError):
            telescope(gen_car(2), (0, 5))


class TestDiagramSequenceBridge:
    # af-to-diagram and af-to-cert read the same tower: certificate_of_af.
    def test_car_prefix(self):
        d = certificate_of_af(af_sequence_of_diagram(gen_car(3)))
        assert d.levels == ((1,), (2,), (4,), (8,))
        assert all(e.entries == ((2,),) for e in d.bonds)
        assert d.unital
        assert d == gen_car(3)

    def test_one_stage(self):
        d = certificate_of_af(Tower(((2, 3),), ()))
        assert d.levels == ((2, 3),)
        assert d.bonds == ()

    def test_split_example(self):
        d = certificate_of_af(Tower(((1,), (1, 1)), (PosMatrix(((1,), (1,))),)))
        assert d.levels == ((1,), (1, 1))
        assert d.bonds[0].entries == ((1,), (1,))

    def test_round_trips(self):
        rnd = random.Random(24)
        for _ in range(60):
            seq = random_unital_sequence(rnd, rnd.randint(0, 6))
            d = certificate_of_af(seq)
            assert d == seq  # one datum: the sequence's levels are ascending already
            assert af_sequence_of_diagram(d) == seq
            assert certificate_of_af(af_sequence_of_diagram(d)) == d

    # Multiplicity matrices read off relabelled diagrams whose levels carry
    # repeated labels out of order, so the stable sort decides the block order.
    SORTED_MULTS = {
        0: (
            ((0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 1), (1, 0, 1, 1)),
            ((0, 0, 1, 0), (1, 1, 1, 1)),
        ),
        1: (((1, 1),), ((1,), (1,), (1,), (1,)), ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1))),
        3: (((1, 0), (0, 1), (1, 1), (1, 1)), ((1, 0, 0, 0), (0, 1, 1, 1)), ((1, 0), (1, 0), (0, 1), (1, 1))),
    }

    @staticmethod
    def relabelled(seed):
        rnd = random.Random(seed)
        seq = random_unital_sequence(rnd, 3, max_blocks=4, max_entry=1, max_start=1)
        return apply_iso(seq, [rnd.sample(range(len(level)), len(level)) for level in seq.levels])

    @pytest.mark.parametrize("seed", sorted(SORTED_MULTS))
    def test_unsorted_levels_are_stably_sorted(self, seed):
        d = self.relabelled(seed)
        assert any(list(level) != sorted(level) for level in d.levels)
        seq = af_sequence_of_diagram(d)
        assert list(seq.levels) == [tuple(sorted(level)) for level in d.levels]
        assert tuple(m.entries for m in seq.bonds) == self.SORTED_MULTS[seed]

    @pytest.mark.parametrize("seed", range(12))
    def test_diagram_and_certificate_read_the_same_sequence(self, seed):
        # a unital diagram is also a unital certificate: its labels are the units
        d = self.relabelled(seed)
        assert af_sequence_of_diagram(d) == af_of_certificate(d)

    def test_inconsistent_labels_rejected(self):
        d = Tower(((1,), (3,)), (PosMatrix(((2,),)),), unital=True)
        with pytest.raises(ConsistencyError) as err:
            af_sequence_of_diagram(d)
        assert err.value.vertex == (1, 0)

    def test_inherits_injectivity_requirement(self):
        # second source vertex has no outgoing edges
        d = Tower(
            ((1, 1), (1,)), (PosMatrix(((1, 0),)),), unital=True
        )
        with pytest.raises(ConsistencyError) as err:
            af_sequence_of_diagram(d)
        assert err.value.vertex == (0, 1)

    def test_unlabeled_flag_rejected(self):
        d = Tower(((1,), (2,)), (PosMatrix(((2,),)),), unital=False)
        with pytest.raises(ValueError):
            af_sequence_of_diagram(d)


class TestSimplicialTowerDiagram:
    def test_car_shape(self):
        cert = Tower(((1,), (2,)), (PosMatrix(((2,),)),), unital=True)
        d = certificate_of_af(af_of_certificate(cert))
        assert d.levels == ((1,), (2,))
        assert d.bonds[0].entries == ((2,),)
        assert d.unital

    def test_single_stage(self):
        cert = Tower(((1, 1),), ())
        d = certificate_of_af(af_of_certificate(cert))
        assert d.levels == ((1, 1),)

    def test_rank_two_tower(self):
        cert = Tower(((1, 1), (2, 1)), (PosMatrix(((1, 1), (0, 1))),))
        d = certificate_of_af(af_of_certificate(cert))
        # the stable sort puts level 1's blocks in ascending order and swaps the rows to match
        assert d.levels == ((1, 1), (1, 2))
        assert d.bonds[0].entries == ((0, 1), (1, 1))
        assert d.unital


class TestSimplicity:
    def test_car_witnessed(self):
        v = simplicity_window(gen_car(5))
        assert v.witnessed and v.blocked is None

    def test_single_level_vacuous(self):
        v = simplicity_window(Tower(((1, 2),), ()))
        assert v.witnessed

    def test_stalled_trace_blocked(self):
        d = gen_trace_diagram({0: 2, 1: None}, 8)
        v = simplicity_window(d)
        assert not v.witnessed
        s0 = 2  # growth of the halting counter stops at step 2
        assert v.blocked == (s0 + 1, 0)
        for s in range(s0 + 2, 9):
            assert path_count(d, v.blocked, (s, 1)) == 0


class TestSupernatural:
    def test_car_depth_five(self):
        assert supernatural_prefix(gen_car(5)) == ({2: 5}, 1)

    def test_mixed_factors(self):
        d = Tower(
            ((1,), (6,), (60,)),
            (PosMatrix(((6,),)), PosMatrix(((10,),))),
            unital=True,
        )
        assert supernatural_prefix(d) == ({2: 2, 3: 1, 5: 1}, 1)

    def test_depth_zero(self):
        assert supernatural_prefix(Tower(((1,),), ())) == ({}, 1)

    def test_unfactored_cofactor(self):
        # both prime factors of the 61-digit semiprime lie beyond the trial bound
        p, q = 10**30 + 57, 3 * 10**30 + 91
        d = Tower(((1,), (6 * p * q,), (42 * p * q,)), (PosMatrix(((6 * p * q,),)), PosMatrix(((7,),))))
        assert supernatural_prefix(d) == ({2: 1, 3: 1, 7: 1}, p * q)
        # a remainder below the square of the bound is prime
        prime = 9_999_999_967
        assert prime < TRIAL_DIVISION_BOUND**2
        d = Tower(((1,), (2 * prime,)), (PosMatrix(((2 * prime,),)),))
        assert supernatural_prefix(d) == ({2: 1, prime: 1}, 1)

    def test_multi_vertex_rejected(self):
        d = Tower(((1, 1),), ())
        with pytest.raises(ValueError):
            supernatural_prefix(d)

    def test_invariant_under_telescoping(self):
        d = gen_car(6)
        assert supernatural_prefix(telescope(d, (0, 2, 3, 6))) == supernatural_prefix(d)
        mixed = Tower(
            ((1,), (2,), (12,), (12,)),
            (PosMatrix(((2,),)), PosMatrix(((6,),)), PosMatrix(((1,),))),
            unital=True,
        )
        assert supernatural_prefix(telescope(mixed, (0, 3))) == supernatural_prefix(mixed)


class TestGenerators:
    def test_car_depths(self):
        assert gen_car(0).levels == ((1,),)
        assert gen_car(2).levels == ((1,), (2,), (4,))
        assert telescope(gen_car(2), (0, 2)).bonds[0].entries == ((4,),)

    def test_trace_all_halt_instantly(self):
        # steps[x] = x + 1 makes the halting counter grow at every step
        table = {x: x + 1 for x in range(12)}
        d = gen_trace_diagram(table, 10)
        hand_m = [min(s, 12) for s in range(11)]
        assert all(hand_m[s] < hand_m[s + 1] for s in range(10))
        assert all(len(level) == 1 for level in d.levels)
        assert all(e.entries == ((1,),) for e in d.bonds)

    def test_trace_none_halt(self):
        d = gen_trace_diagram({}, 6)
        assert [len(level) for level in d.levels] == [1] + [2] * 6

    def test_trace_depth_zero(self):
        d = gen_trace_diagram({}, 0)
        assert d.levels == ((1,),)

    def test_trace_hand_simulation(self):
        # steps = (2, 4): halts at s = 2 and s = 4, stalls elsewhere
        d = gen_trace_diagram({0: 2, 1: 4}, 6)
        # m: 0,0,1,1,2,2,2 -> growth at s = 2 and 4
        assert [len(level) for level in d.levels] == [1, 2, 1, 2, 1, 2, 2]
        assert d.levels[2] == (2,)
        assert d.levels[4] == (4,)
        assert consistency_violation(d) is None

    def test_trace_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            gen_trace_diagram({0: 0}, 3)


class TestEquivalence:
    def test_identical_diagrams(self):
        d = gen_car(4)
        w = equivalence_search(d, d)
        assert w == EquivalenceWitness(())
        assert replay_equivalence(w, d, d)

    def test_telescoped_pair(self):
        d = gen_car(6)
        t = telescope(d, (0, 2, 4, 6))
        w = equivalence_search(d, t)
        assert w is not None
        assert replay_equivalence(w, d, t)
        assert [s.op for s in w.steps] == ["telescope"]
        assert w.steps[0].stages == (0, 2, 4, 6)

    def test_car_vs_three_infinity(self):
        three = Tower(
            tuple((3**s,) for s in range(6)),
            tuple(PosMatrix(((3,),)) for _ in range(5)),
            unital=True,
        )
        assert equivalence_search(gen_car(5), three, budget=50_000) is None

    def test_permuted_levels(self):
        d = random_unital_sequence(random.Random(30), 4, max_blocks=3)
        maps = []
        rnd = random.Random(31)
        for level in d.levels:
            perm = list(range(len(level)))
            rnd.shuffle(perm)
            maps.append(tuple(perm))
        shuffled = apply_iso(d, maps)
        w = equivalence_search(d, shuffled, budget=200_000)
        assert w is not None
        assert replay_equivalence(w, d, shuffled)

    def test_budget_exhaustion_returns_none(self):
        d = gen_car(6)
        t = telescope(d, (0, 2, 4, 6))
        assert equivalence_search(d, t, budget=1) is None

    def test_deep_pair_without_recursion(self):
        # 1200 matched levels deep
        d = gen_car(2400)
        t = telescope(d, range(0, 2401, 2))
        w = equivalence_search(d, t, budget=1_000_000)
        assert w is not None
        assert replay_equivalence(w, d, t)

    def test_deep_pair_within_the_default_budget(self):
        # one node per label-matched level pair and one per bijection: 2401 in all
        d = gen_car(2400)
        t = telescope(d, range(0, 2401, 2))
        w = equivalence_search(d, t)
        assert w is not None
        assert replay_equivalence(w, d, t)
        assert equivalence_search(d, t, budget=2400) is None

    def test_requires_unital(self):
        d = random_diagram(random.Random(32))
        with pytest.raises(ValueError):
            equivalence_search(d, d)

    def test_witness_steps_validate(self):
        with pytest.raises(ValueError):
            WitnessStep("middle", "telescope", stages=(0, 1))
        with pytest.raises(ValueError):
            WitnessStep("left", "telescope")
        with pytest.raises(ValueError):
            WitnessStep("left", "iso")

    def test_replay_rejects_corrupted_witness(self):
        d = gen_car(6)
        t = telescope(d, (0, 2, 4, 6))
        bad = EquivalenceWitness((WitnessStep("left", "telescope", stages=(0, 3, 6)),))
        assert not replay_equivalence(bad, d, t)


class TestConsistency:
    def test_unital_diagrams_balance_exactly(self):
        rnd = random.Random(33)
        for _ in range(30):
            d = random_unital_sequence(rnd, rnd.randint(0, 5))
            assert consistency_violation(d) is None
            for k, edge in enumerate(d.bonds):
                for i in range(edge.rows):
                    total = sum(
                        edge.entries[i][j] * d.levels[k][j] for j in range(edge.cols)
                    )
                    assert d.levels[k + 1][i] == total

    def test_violation_located(self):
        d = Tower(((1,), (3,)), (PosMatrix(((2,),)),), unital=True)
        assert consistency_violation(d) == ((1, 0), "label 3 != incoming mass 2")
