"""Dimension groups presented as finite towers of simplicial groups.

A certificate is a Tower: the finite-depth data (ranks, bonds, optional stage
units) of an inductive system Z^{n_0} -> Z^{n_1} -> ... along positive integer
matrices. A certificate marked unital claims a strictly positive unit at
every stage, transported exactly by the bonds; unit_violation checks it.
Elements of and maps into the (unbuilt) limit are carried as (stage, vector)
and (stage, matrix) pairs; equality and positivity in the limit are only
semidecidable, so the query operations report Yes-with-witness or
unknown-at-this-depth, never an unconditional No.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .findim import af_sequence_violation, sorted_tower
from .ordgrp import PosMatrix, Tower, apply, compose, mat_mul, mat_vec, restrict_to_convex, vector

DimCertificate = Tower  # the name the benchmark builds and traces certificates under


def unit_violation(cert: Tower) -> Optional[str]:
    """The first break of the unital claim, or None.

    Every stage needs a strict unit (all components >= 1), and every bond must
    carry its stage's unit onto the next stage's.
    """
    for s, unit in enumerate(cert.levels):
        if unit is None or not all(unit):
            return f"unital certificate needs a strict unit at stage {s}"
    for s, bond in enumerate(cert.bonds):
        if apply(bond, cert.levels[s]) != cert.levels[s + 1]:
            return f"bond at gap {s} does not carry the unit forward"
    return None


@dataclass(frozen=True)
class LimitElement:
    """An element of the limit, represented at a finite stage."""

    stage: int
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", vector(self.vector))
        if self.stage < 0:
            raise ValueError("stage must be >= 0")


@dataclass(frozen=True)
class LimitHom:
    """A homomorphism Z^m -> limit, represented by a matrix at a finite stage.

    The matrix has one row per coordinate of the carrying stage and one column
    per source basis vector; positive means all entries are >= 0, so the map
    is a positive homomorphism into the limit cone.
    """

    stage: int
    matrix: tuple  # tuple[tuple[int, ...], ...], possibly signed
    positive: bool = False

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if self.positive and any(x < 0 for r in rows for x in r):
            raise ValueError("positive limit hom needs nonnegative entries")
        object.__setattr__(self, "matrix", rows)

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0])


@dataclass(frozen=True)
class Verdict3:
    """Depth-bounded answer: yes with a witness stage, or unknown at depth."""

    status: str
    stage: Optional[int] = None

    def __post_init__(self):
        if self.status not in ("yes", "unknown"):
            raise ValueError(f"bad verdict status {self.status!r}")


def _check_element(cert: Tower, el: LimitElement) -> None:
    if el.stage > cert.depth:
        raise ValueError(f"element stage {el.stage} exceeds certificate depth {cert.depth}")
    if len(el.vector) != cert.ranks[el.stage]:
        raise ValueError("element vector does not match its stage rank")


def push(cert: Tower, el: LimitElement, t: int) -> tuple:
    """Representative of el at the later stage t."""
    _check_element(cert, el)
    if not el.stage <= t <= cert.depth:
        raise ValueError(f"target stage {t} out of range [{el.stage}, {cert.depth}]")
    v = el.vector
    for k in range(el.stage, t):
        v = mat_vec(cert.bonds[k].entries, v)
    return v


def is_zero(rows) -> bool:
    return not any(map(any, rows))


def is_nonneg(rows) -> bool:
    return min(map(min, rows)) >= 0


def first_stage(cert: Tower, start: int, rows, done: Callable) -> Optional[tuple]:
    """(t, rows pushed to t) for the least t in start..depth with done(pushed), else None.

    rows is a raw integer matrix at stage start, pushed one bond per stage.
    """
    for t in range(start, cert.depth + 1):
        if done(rows):
            return t, rows
        if t < cert.depth:
            rows = mat_mul(cert.bonds[t].entries, rows)
    return None


def eq_at_depth(cert: Tower, a: LimitElement, b: LimitElement) -> Verdict3:
    """Yes with the least common stage where the pushes agree; else unknown.

    Never answers no: disagreement at every stage up to depth does not rule
    out a merging stage beyond it. The bonds are linear, so the pushes agree
    exactly where the push of a - b from the common start stage dies.
    """
    _check_element(cert, a)
    _check_element(cert, b)
    start = max(a.stage, b.stage)
    diff = tuple((x - y,) for x, y in zip(push(cert, a, start), push(cert, b, start)))
    found = first_stage(cert, start, diff, is_zero)
    return Verdict3("unknown", cert.depth) if found is None else Verdict3("yes", found[0])


def positive_at_depth(cert: Tower, a: LimitElement) -> Verdict3:
    """Yes with the least stage where the push lands in the coordinate cone."""
    _check_element(cert, a)
    found = first_stage(cert, a.stage, tuple((x,) for x in a.vector), is_nonneg)
    return Verdict3("unknown", cert.depth) if found is None else Verdict3("yes", found[0])


def shen_factor(cert: Tower, theta: LimitHom, alpha: Sequence[int]) -> Optional[tuple]:
    """Factor a positive limit hom through a stage that kills alpha.

    Pushes theta forward until theta.matrix @ alpha dies, then returns the
    pushed matrix phi (so phi @ alpha = 0) together with theta' represented by
    the identity at the witness stage, giving theta = theta' o phi exactly.
    None means unknown: the product survives every stage up to depth.
    """
    if not theta.positive:
        raise ValueError("shen_factor needs a positive limit hom")
    if not 0 <= theta.stage <= cert.depth:
        raise ValueError("theta stage out of range")
    if len(theta.matrix) != cert.ranks[theta.stage]:
        raise ValueError("theta matrix does not match its stage rank")
    al = vector(alpha)
    if len(al) != theta.source_rank:
        raise ValueError("alpha length does not match theta source rank")
    w = tuple((x,) for x in mat_vec(theta.matrix, al))
    found = first_stage(cert, theta.stage, w, is_zero)
    if found is None:
        return None
    stage = found[0]
    phi = compose(cert.bond_product(theta.stage, stage), PosMatrix(theta.matrix))
    theta_prime = LimitHom(
        stage=stage,
        matrix=PosMatrix.identity(cert.ranks[stage]).entries,
        positive=True,
    )
    return phi, theta_prime


def unitalize(cert: Tower) -> Tower:
    """Cut a unit-carrying tower down to the convex subgroups of its units.

    Stage units may have zero components; the result keeps only the
    coordinates where the unit is positive, so its units are strict and it is
    a unital certificate.
    """
    units = cert.levels
    for s, u in enumerate(units):
        if u is None:
            raise ValueError(f"stage {s} has no unit")
    for s, b in enumerate(cert.bonds):
        if apply(b, units[s]) != units[s + 1]:
            raise ValueError(f"bond at gap {s} does not carry the unit forward")
    kept = [tuple(x for x in u if x >= 1) for u in units]
    if () in kept:
        raise ValueError(f"unit at stage {kept.index(())} is zero: empty convex basis")
    bonds = tuple(restrict_to_convex(cert.bonds[s], units[s], units[s + 1]) for s in range(cert.depth))
    return Tower(tuple(kept), bonds, unital=True)


def certificate_of_af(seq: Tower) -> Tower:
    """K0 tower of an AF sequence: the same ranks, bonds and levels, the block sizes as units."""
    bad = af_sequence_violation(seq)
    if bad is not None:
        raise ValueError(f"invalid AF sequence at stage {bad[0]}: {bad[1]}")
    return Tower(seq.levels, seq.bonds, unital=True)


def af_of_certificate(cert: Tower) -> Tower:
    """AF sequence whose K0 tower is the given certificate.

    Unital certificates round-trip exactly when their stage units are sorted
    ascending (the canonical form certificate_of_af produces); unsorted stages
    are canonicalized by a stable sort. Certificates without the unital flag
    get synthesized units: all ones at stage 0, then componentwise
    max(bond @ unit, 1), the minimal deterministic choice dominating the push.
    """
    if cert.unital:
        bad = unit_violation(cert)
        if bad is not None:
            raise ValueError(bad)
        units = cert.levels
    else:
        units = [(1,) * cert.ranks[0]]
        for bond in cert.bonds:
            units.append(tuple(max(x, 1) for x in apply(bond, units[-1])))
    return sorted_tower(units, cert.bonds)
