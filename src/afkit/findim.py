"""Finite-dimensional C*-algebras as multisets of matrix sizes.

An algebra is the direct sum of full matrix blocks M_n over a finite multiset
of sizes; a *-homomorphism between two such algebras is determined up to
unitary conjugation by its multiplicity matrix, which is also the induced map
on scaled K0 groups. Only that exact integer data is kept here. An AF
sequence is a Tower whose levels are block sizes in ascending order and whose
bonds are the multiplicity matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ordgrp import PosMatrix, Tower, apply


class SizeViolation(ValueError):
    """Multiplicities overflow a target block: sum_j mult[i][j]*n_j > l_i."""


@dataclass(frozen=True)
class FinDimAlgebra:
    """Multiset of matrix-block sizes, canonicalized in ascending order."""

    summands: tuple  # tuple[int, ...], sorted ascending

    def __post_init__(self):
        sizes = tuple(sorted(self.summands))
        if not sizes:
            raise ValueError("algebra needs at least one summand")
        for n in sizes:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"summand sizes must be positive ints, got {n!r}")
        object.__setattr__(self, "summands", sizes)

    def __len__(self) -> int:
        return len(self.summands)


def k0(algebra: FinDimAlgebra) -> Tower:
    """Scaled K0 group: the one-level tower Z^k with the block-size vector as order unit."""
    return Tower((algebra.summands,), (), unital=True)


@dataclass(frozen=True)
class AlgebraHom:
    """A *-homomorphism recorded by its multiplicity matrix.

    mult has one row per target block and one column per source block; the
    i-th row must fit inside target block i, i.e. sum_j mult[i][j]*n_j <= l_i.
    """

    source: FinDimAlgebra
    target: FinDimAlgebra
    mult: PosMatrix

    def __post_init__(self):
        if self.mult.rows != len(self.target) or self.mult.cols != len(self.source):
            raise ValueError(
                f"multiplicity matrix must be {len(self.target)}x{len(self.source)}, "
                f"got {self.mult.rows}x{self.mult.cols}"
            )
        for i, cap in enumerate(self.target.summands):
            load = sum(m * n for m, n in zip(self.mult.entries[i], self.source.summands))
            if load > cap:
                raise SizeViolation(f"target block {i} of size {cap} overflows: load {load}")

    def is_unital(self) -> bool:
        return apply(self.mult, self.source.summands) == self.target.summands


def af_sequence_violation(seq: Tower) -> Optional[tuple]:
    """First gap whose multiplicity matrix is not unital or not injective, or None if valid."""
    for s, bond in enumerate(seq.bonds):
        if apply(bond, seq.levels[s]) != seq.levels[s + 1]:
            return (s, "non-unital")
        if not all(map(any, zip(*bond.entries))):
            return (s, "non-injective")
    return None


def sorted_tower(levels: Sequence[Sequence[int]], bonds: Sequence[PosMatrix]) -> Tower:
    """The AF sequence with block sizes levels[s] and multiplicity matrices bonds[s].

    Each level's blocks are put in ascending order by a stable sort, and the
    rows and columns of the matrices are permuted to match.
    """
    perms = [sorted(range(len(u)), key=u.__getitem__) for u in levels]  # stable: ties keep order
    return Tower(
        tuple(tuple(u[i] for i in p) for u, p in zip(levels, perms)),
        tuple(
            PosMatrix(tuple(tuple(m.entries[i][j] for j in perms[s]) for i in perms[s + 1]))
            for s, m in enumerate(bonds)
        ),
        unital=True,
    )
