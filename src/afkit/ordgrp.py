"""Simplicial ordered groups: Z^n with the coordinatewise positive cone.

Group elements are tuples of Python ints (arbitrary precision), and positive
homomorphisms between simplicial groups are nonnegative integer matrices
acting on column vectors, so a map Z^n -> Z^p is stored as a p x n matrix. A
Tower is a finite chain of such maps with one vector per level. Everything
here is immutable and exact, except Budget, the node counter that
equivalence_search and build_zigzag spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

IntVector = tuple  # tuple[int, ...]; rank >= 1


def vector(entries: Iterable[int]) -> IntVector:
    """Coerce a sequence of ints to a validated vector."""
    v = tuple(entries)
    if not v:
        raise ValueError("vector must have length >= 1")
    for x in v:
        if not isinstance(x, int):
            raise TypeError(f"vector entries must be ints, got {x!r}")
    return v


@dataclass(frozen=True)
class PosMatrix:
    """Nonnegative integer matrix; a positive homomorphism Z^cols -> Z^rows.

    Doubles as the multiplicity matrix of a *-homomorphism between
    finite-dimensional algebras and as the edge matrix of one gap of a
    Bratteli diagram (rows indexed by the deeper level).
    """

    entries: tuple  # tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be ints, got {x!r}")
                if x < 0:
                    raise ValueError(f"negative entry {x} in positive matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def identity(n: int) -> "PosMatrix":
        if n < 1:
            raise ValueError("identity needs n >= 1")
        return PosMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> IntVector:
        return tuple(row[j] for row in self.entries)


@dataclass(frozen=True)
class Tower:
    """One vector per level and one positive matrix per gap.

    This is the data of a Bratteli diagram, of an AF inductive sequence and of
    a K0 certificate alike. levels[s] is the vector of level s (vertex labels,
    block sizes or a stage unit), or None for a certificate stage without a
    unit; bonds[s] maps level s to level s+1, one row per vertex of level s+1.
    ranks is derived from the vectors and must be given when a level is None.
    unital claims that every bond carries its level's vector onto the next;
    the reader that relies on the claim checks it (consistency_violation,
    af_sequence_violation, unit_violation). Construction checks only shapes and
    that the vectors are nonnegative.
    """

    levels: tuple  # tuple[Optional[tuple[int, ...]], ...]
    bonds: tuple  # tuple[PosMatrix, ...]
    unital: bool = False
    ranks: Optional[tuple] = None  # tuple[int, ...]

    def __post_init__(self):
        levels = tuple(None if v is None else tuple(v) for v in self.levels)
        bonds = tuple(self.bonds)
        if not levels:
            raise ValueError("tower needs at least one level")
        for s, v in enumerate(levels):
            if v is not None and not (v and all(isinstance(x, int) and x >= 0 for x in v)):
                raise ValueError(f"level {s} must be a nonempty vector of nonnegative ints")
        if self.ranks is None:
            if None in levels:
                raise ValueError("a tower with unitless levels needs ranks")
            ranks = tuple(map(len, levels))
        else:
            ranks = tuple(self.ranks)
            if len(ranks) != len(levels):
                raise ValueError("need exactly one rank per level")
            for s, (r, v) in enumerate(zip(ranks, levels)):
                if not isinstance(r, int) or r < 1 or (v is not None and len(v) != r):
                    raise ValueError(f"rank at level {s} must be >= 1 and equal its vector's length")
        if len(bonds) != len(levels) - 1:
            raise ValueError("need exactly one bond per gap")
        for s, b in enumerate(bonds):
            if b.cols != ranks[s] or b.rows != ranks[s + 1]:
                raise ValueError(f"bond at gap {s} does not match the level sizes")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(self, "ranks", ranks)

    @property
    def depth(self) -> int:
        return len(self.bonds)

    def bond_product(self, s: int, t: int) -> PosMatrix:
        """Composite bond from level s to level t >= s (identity when t == s)."""
        if not 0 <= s <= t <= self.depth:
            raise ValueError(f"stages out of range: {s} -> {t}")
        return chain_product(self.bonds, s, t, self.ranks[s])


def compose(a: PosMatrix, b: PosMatrix) -> PosMatrix:
    """Exact matrix product a . b (apply b first, then a)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    return PosMatrix(mat_mul(a.entries, b.entries))


def apply(m: PosMatrix, v: Sequence[int]) -> IntVector:
    """Exact matrix-vector product m . v."""
    if m.cols != len(v):
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} applied to length {len(v)}")
    return mat_vec(m.entries, v)


def chain_product(mats: Sequence[PosMatrix], s: int, t: int, n: int) -> PosMatrix:
    """Product mats[t-1] ... mats[s], one compose per gap; the n x n identity when t == s."""
    out = PosMatrix.identity(n)
    for k in range(s, t):
        out = compose(mats[k], out)
    return out


def mat_vec(rows: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    """Matrix-vector product for raw (possibly signed) integer matrices."""
    if not rows or len(rows[0]) != len(v):
        raise ValueError("dimension mismatch")
    return tuple([sum(map(mul, row, v)) for row in rows])


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """Matrix product for raw (possibly signed) integer matrices."""
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


class OutOfBudget(Exception):
    """A bounded search spent its whole node budget."""


class Budget:
    """Nodes left to a bounded search; charge spends them or raises OutOfBudget."""

    def __init__(self, nodes: int):
        if nodes < 0:
            raise ValueError("budget must be >= 0")
        self.left = nodes

    def charge(self, nodes: int = 1) -> None:
        if self.left < nodes:
            raise OutOfBudget
        self.left -= nodes


def convex_basis(u: Sequence[int]) -> tuple:
    """1-based indices j with u_j >= 1; the standard basis of the convex subgroup of u."""
    uv = vector(u)
    if any(c < 0 for c in uv):
        raise ValueError("u must be nonnegative")
    return tuple(j + 1 for j, x in enumerate(uv) if x >= 1)


def restrict_to_convex(phi: PosMatrix, u_src: Sequence[int], u_tgt: Sequence[int]) -> PosMatrix:
    """Matrix of phi restricted to the convex subgroups generated by the units.

    Keeps the rows/columns indexed by convex_basis of the units and demands
    that deleted rows carry no mass from kept columns (otherwise the image
    leaves the target subgroup and the restriction does not exist).
    """
    us, ut = vector(u_src), vector(u_tgt)
    if phi.cols != len(us) or phi.rows != len(ut):
        raise ValueError("unit lengths must match matrix shape")
    keep_cols = [j - 1 for j in convex_basis(us)]
    keep_rows = [i - 1 for i in convex_basis(ut)]
    if not keep_cols or not keep_rows:
        raise ValueError("empty convex basis: unit generates the trivial subgroup")
    for i in range(phi.rows):
        if i in keep_rows:
            continue
        for j in keep_cols:
            if phi.entries[i][j] != 0:
                raise ValueError(
                    f"image leaves the target convex subgroup: entry ({i + 1},{j + 1}) nonzero"
                )
    return PosMatrix(tuple(tuple(phi.entries[i][j] for j in keep_cols) for i in keep_rows))
