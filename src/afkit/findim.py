"""Finite-dimensional C*-algebras as multisets of matrix sizes.

An algebra is the direct sum of full matrix blocks M_n over a finite multiset
of sizes; a *-homomorphism between two such algebras is determined up to
unitary conjugation by its multiplicity matrix, which is also the induced map
on scaled K0 groups. Only that exact integer data is kept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ordgrp import PosMatrix, SimplicialGroup, apply, vector


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


def k0(algebra: FinDimAlgebra) -> SimplicialGroup:
    """Scaled K0 group: Z^k with the block-size vector as order unit."""
    return SimplicialGroup(rank=len(algebra), unit=vector(algebra.summands))


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

    def is_injective(self) -> bool:
        return all(any(row[j] != 0 for row in self.mult.entries) for j in range(self.mult.cols))


@dataclass(frozen=True)
class AFSequence:
    """Finite tower of finite-dimensional algebras with connecting homs.

    Only the chaining of sources and targets is enforced at construction;
    unitality and injectivity of every hom (the conditions for a genuine
    finite-depth AF presentation) are checked by af_sequence_violation.
    """

    algebras: tuple  # tuple[FinDimAlgebra, ...]
    homs: tuple  # tuple[AlgebraHom, ...]

    def __post_init__(self):
        algebras = tuple(self.algebras)
        homs = tuple(self.homs)
        if not algebras:
            raise ValueError("sequence needs at least one algebra")
        if len(homs) != len(algebras) - 1:
            raise ValueError("need exactly one hom per gap")
        for s, h in enumerate(homs):
            if h.source != algebras[s] or h.target != algebras[s + 1]:
                raise ValueError(f"hom at stage {s} does not chain the adjacent algebras")
        object.__setattr__(self, "algebras", algebras)
        object.__setattr__(self, "homs", homs)

    @property
    def depth(self) -> int:
        return len(self.homs)


def af_sequence_violation(seq: AFSequence) -> Optional[tuple]:
    """First stage with a non-unital or non-injective hom, or None if valid."""
    for s, h in enumerate(seq.homs):
        if not h.is_unital():
            return (s, "non-unital")
        if not h.is_injective():
            return (s, "non-injective")
    return None


def sorted_af_sequence(units: Sequence[Sequence[int]], mats: Sequence[PosMatrix]) -> AFSequence:
    """AF sequence with block sizes units[s] and multiplicity matrices mats[s].

    Each level's blocks are put in ascending order by a stable sort, and the
    rows and columns of the matrices are permuted to match.
    """
    algebras = [FinDimAlgebra(u) for u in units]
    perms = [sorted(range(len(u)), key=u.__getitem__) for u in units]  # stable: ties keep order
    homs = [
        AlgebraHom(
            algebras[s],
            algebras[s + 1],
            PosMatrix(tuple(tuple(m.entries[i][j] for j in perms[s]) for i in perms[s + 1])),
        )
        for s, m in enumerate(mats)
    ]
    return AFSequence(tuple(algebras), tuple(homs))
