"""Depth-bounded intertwining between two simplicial-group towers.

Given two unital towers with matching limit K-theory, an intertwining witness
is a pair of stage selections together with positive unit-preserving matrices
alpha_s (tower A into tower B) and beta_s (back) whose composites recover the
bonding matrices exactly. Everything is exact integer arithmetic; searches
are bounded and deterministic, returning the least witness under the
documented candidate order (stages ascending, then matrix entries in row-major
lexicographic order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .dimgroup import LimitElement, LimitHom, eq_at_depth, first_stage, is_nonneg, is_zero, unit_violation
from .ordgrp import Budget, OutOfBudget, PosMatrix, Tower, apply, compose, mat_mul, mat_vec


class SeedNotFound(ValueError):
    """No positive unit-preserving starting map exists at any stage pair."""


class LiftNotFound(ValueError):
    """No stage within depth carries the hom to a nonnegative representative."""


class DefectNotKilled(ValueError):
    """The lift disagrees with the bond composite at every stage within depth."""


@dataclass(frozen=True)
class ZigzagWitness:
    """Stage selections and matrices of a two-sided intertwining.

    With K = len(betas) completed rounds: alpha_s maps stage n_stages[s] of
    tower A to stage m_stages[s] of tower B for s <= K, and beta_s maps stage
    m_stages[s] back to stage n_stages[s+1] for s < K. The defining identities
    are beta_s . alpha_s = (A-bond product over [n_s, n_{s+1}]) and
    alpha_{s+1} . beta_s = (B-bond product over [m_s, m_{s+1}]). They are
    checked by verify_zigzag rather than at construction, so corrupted
    witnesses can be represented and rejected.
    """

    n_stages: tuple  # length K+1, strictly increasing
    m_stages: tuple  # length K+1, strictly increasing
    alphas: tuple  # K+1 PosMatrix
    betas: tuple  # K PosMatrix

    def __post_init__(self):
        n = tuple(self.n_stages)
        m = tuple(self.m_stages)
        a = tuple(self.alphas)
        b = tuple(self.betas)
        if not a:
            raise ValueError("witness needs the seed map alpha_0")
        if len(n) != len(a) or len(m) != len(a) or len(b) != len(a) - 1:
            raise ValueError("witness arrays have inconsistent lengths")
        object.__setattr__(self, "n_stages", n)
        object.__setattr__(self, "m_stages", m)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)

    @property
    def depth(self) -> int:
        return len(self.betas)


def _row_solutions(
    product_rows: Optional[Sequence[Sequence[int]]],
    target: Optional[Sequence[int]],
    weights: Sequence[int],
    unit_target: int,
) -> Iterator[tuple]:
    """Nonnegative integer rows x with x @ product_rows == target and x . weights == unit_target.

    weights must be nonempty and strictly positive, which bounds every
    coordinate. An odometer on an explicit stack yields the rows in ascending
    lexicographic order, with rem the target still unpaid. Three prunings cut
    only values that have no completion, so the rows and order stay the same:
    (a) x_j <= min(unit_left // w_j, rem_t // row_jt over row_jt > 0);
    (b) reach[j] masks the target coordinates rows j.. can raise; none may stay
        positive outside it, so a t raised by row j and no later row forces
        x_j = rem_t / row_jt;
    (c) the last coordinate is solved directly, with no loop for one weight.
    """
    q = len(weights)
    if q == 1:
        v, r = divmod(unit_target, weights[0])
        if v >= 0 and not r and (target is None or all(c == v * e for c, e in zip(target, product_rows[0]))):
            yield (v,)
        return
    rows = product_rows if target is not None else ((),) * q
    rem, last = list(target or ()), q - 1
    reach = [0] * (q + 1)
    for j in range(last, -1, -1):
        reach[j] = reach[j + 1]
        for t, r in enumerate(rows[j]):
            if r:
                reach[j] |= 1 << t
    for t, c in enumerate(rem):
        if c and not reach[0] >> t & 1:
            return
    x, top, left = [0] * q, [0] * q, [0] * q
    j, unit = 0, unit_target
    while True:
        # Descend: coordinates j..last-1 take their least usable value.
        while j < last:
            lo, hi, later = 0, unit // weights[j], reach[j + 1]
            for t, r in enumerate(rows[j]):
                if r:
                    c = rem[t]
                    if c // r < hi:
                        hi = c // r
                    if not later >> t & 1 and -(-c // r) > lo:
                        lo = -(-c // r)
            if lo > hi:
                break
            x[j], top[j], left[j] = lo, hi, unit
            if lo:
                for t, r in enumerate(rows[j]):
                    rem[t] -= lo * r
                unit -= lo * weights[j]
            j += 1
        else:
            v, r = divmod(unit, weights[last])
            if not r and all(c == v * e for c, e in zip(rem, rows[last])):
                x[last] = v
                yield tuple(x)
        # Advance: the deepest coordinate below j with room takes its next value.
        j -= 1
        while j >= 0 and x[j] == top[j]:
            for t, r in enumerate(rows[j]):
                rem[t] += x[j] * r
            j -= 1
        if j < 0:
            return
        x[j] += 1
        for t, r in enumerate(rows[j]):
            rem[t] -= r
        unit = left[j] - x[j] * weights[j]
        j += 1


def _matrix_solutions(
    product: Optional[PosMatrix],
    target: Optional[PosMatrix],
    weights: Sequence[int],
    unit_targets: Sequence[int],
) -> Iterator[PosMatrix]:
    """Matrices whose row i solves row @ product == target row i, row . weights == unit_targets[i]."""
    per_row = []
    for i, c in enumerate(unit_targets):
        rows = list(
            _row_solutions(
                product.entries if product is not None else None,
                target.entries[i] if target is not None else None,
                weights,
                c,
            )
        )
        if not rows:
            return
        per_row.append(rows)
    for combo in itertools.product(*per_row):
        yield PosMatrix(tuple(combo))


def intertwine_stage(
    cert: Tower,
    mu: LimitHom,
    gamma: PosMatrix,
    r: int,
    min_stage: Optional[int] = None,
):
    """One intertwining step: find (t, delta) with delta.gamma = bond(r,t) and nu_t.delta = mu.

    Requires the triangle nu_r = mu . gamma to hold at depth on every basis
    vector. The search lifts mu to the first stage >= min_stage carrying a
    nonnegative representative, then pushes forward until the defect against
    the bond composite dies, so delta . gamma equals the bond product exactly
    and nu_t . delta = mu holds with equal representatives at stage t.
    min_stage defaults to mu's own stage; callers needing strict stage
    progression pass a larger value.
    """
    if not 0 <= r <= cert.depth or not 0 <= mu.stage <= cert.depth:
        raise ValueError("stage out of range")
    if gamma.cols != cert.ranks[r]:
        raise ValueError("gamma does not start at stage r")
    if gamma.rows != mu.source_rank:
        raise ValueError("gamma target rank does not match mu source rank")
    if len(mu.matrix) != cert.ranks[mu.stage]:
        raise ValueError("mu matrix does not match its stage rank")

    for j in range(cert.ranks[r]):
        basis = tuple(1 if i == j else 0 for i in range(cert.ranks[r]))
        through_mu = mat_vec(mu.matrix, gamma.column(j))
        verdict = eq_at_depth(cert, LimitElement(r, basis), LimitElement(mu.stage, through_mu))
        if verdict.status != "yes":
            raise ValueError(f"nu_r = mu . gamma not witnessed at depth on basis vector {j + 1}")

    start = max(mu.stage, min_stage if min_stage is not None else mu.stage)
    lifted = None
    if start <= cert.depth:
        pushed = mat_mul(cert.bond_product(mu.stage, start).entries, mu.matrix)
        lifted = first_stage(cert, start, pushed, is_nonneg)
    if lifted is None:
        raise LiftNotFound(f"no nonnegative representative of mu at stages {start}..{cert.depth}")

    t_prime, delta0 = lifted
    defect = tuple(
        tuple(f - d for f, d in zip(frow, drow))
        for frow, drow in zip(cert.bond_product(r, t_prime).entries, mat_mul(delta0, gamma.entries))
    )
    killed = first_stage(cert, t_prime, defect, is_zero)
    if killed is None:
        raise DefectNotKilled(f"defect of the lift survives every stage up to depth {cert.depth}")
    t = killed[0]
    return t, PosMatrix(mat_mul(cert.bond_product(t_prime, t).entries, delta0))


def _check_unital(message: str, *certs: Tower) -> None:
    """Reject a certificate not marked unital (with message) or whose unital claim fails."""
    for cert in certs:
        bad = unit_violation(cert) if cert.unital else message
        if bad is not None:
            raise ValueError(bad)


def build_zigzag(
    certA: Tower,
    certB: Tower,
    depth: int,
    budget: int = 100_000,
) -> Optional[ZigzagWitness]:
    """Search for an intertwining witness with the requested number of rounds.

    Both certificates must be unital. The witness starts at stage 0 of tower A
    with a unit-preserving seed alpha_0. Candidates are explored in ascending
    lexicographic order (stage, then row-major entries), so the result is the
    least witness under that order. Every seed, beta and alpha tried costs one
    budget node. Returns the full witness; or, when the stage supply or the
    budget runs out first, the deepest partial witness found, or None when the
    budget ran out before any seed was tried. Short of depth means unknown.
    Raises SeedNotFound when not even alpha_0 exists.
    """
    _check_unital("build_zigzag needs unital certificates", certA, certB)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = Budget(budget)

    def candidates(n_cur: int, m_cur: int, alpha_cur: PosMatrix) -> Iterator[tuple]:
        """Next rounds (n, m, alpha, beta) in search order, each alpha and beta paid for.

        Stops early once the budget is spent.
        """
        f = PosMatrix.identity(certA.ranks[n_cur])
        for n_next in range(n_cur + 1, certA.depth + 1):
            f = compose(certA.bonds[n_next - 1], f)
            for beta in _matrix_solutions(alpha_cur, f, certB.levels[m_cur], certA.levels[n_next]):
                nodes.charge()
                g = PosMatrix.identity(certB.ranks[m_cur])
                for m_next in range(m_cur + 1, certB.depth + 1):
                    g = compose(certB.bonds[m_next - 1], g)
                    for alpha in _matrix_solutions(beta, g, certA.levels[n_next], certB.levels[m_next]):
                        nodes.charge()
                        yield n_next, m_next, alpha, beta
                    if not nodes.left:
                        return

    u0 = certA.levels[0]
    seeds = (
        (m0, alpha0)
        for m0 in range(certB.depth + 1)
        for alpha0 in _matrix_solutions(None, None, u0, certB.levels[m0])
    )
    best: Optional[ZigzagWitness] = None
    try:
        for m0, alpha0 in seeds:
            nodes.charge()
            # One path of the search tree (n_stages, m_stages, alphas, betas),
            # extended and cut back in place; frames[k] yields round k + 1.
            path = ([0], [m0], [alpha0], [])
            frames = [candidates(0, m0, alpha0)]
            while True:
                if best is None or len(path[3]) > best.depth:
                    best = ZigzagWitness(*path)
                if len(path[3]) == depth:
                    return ZigzagWitness(*path)
                step = next(frames[-1], None)
                # A spent search backtracks no further.
                while step is None and nodes.left > 0 and len(frames) > 1:
                    frames.pop()
                    for part in path:
                        part.pop()
                    step = next(frames[-1], None)
                if step is None:
                    break
                for part, x in zip(path, step):
                    part.append(x)
                frames.append(candidates(*step[:3]))
            if not nodes.left:
                break
    except OutOfBudget:
        return best
    if best is None:
        raise SeedNotFound("no positive unit-preserving seed map exists within the stage supply")
    return best


def zigzag_violation(
    w: ZigzagWitness, certA: Tower, certB: Tower
) -> Optional[str]:
    """First broken invariant of the witness, re-derived by exact arithmetic."""
    _check_unital("zigzag witnesses need unital certificates", certA, certB)
    K = w.depth
    for s in range(K):
        if w.n_stages[s + 1] <= w.n_stages[s]:
            return f"A-stages not strictly increasing at round {s}"
        if w.m_stages[s + 1] <= w.m_stages[s]:
            return f"B-stages not strictly increasing at round {s}"
    if not 0 <= w.n_stages[0] or w.n_stages[-1] > certA.depth:
        return "A-stage selection out of range"
    if not 0 <= w.m_stages[0] or w.m_stages[-1] > certB.depth:
        return "B-stage selection out of range"
    for s, alpha in enumerate(w.alphas):
        n_s, m_s = w.n_stages[s], w.m_stages[s]
        if alpha.rows != certB.ranks[m_s] or alpha.cols != certA.ranks[n_s]:
            return f"alpha_{s} has the wrong shape"
        if apply(alpha, certA.levels[n_s]) != certB.levels[m_s]:
            return f"alpha_{s} is not unit-preserving"
    for s, beta in enumerate(w.betas):
        m_s, n_next = w.m_stages[s], w.n_stages[s + 1]
        if beta.rows != certA.ranks[n_next] or beta.cols != certB.ranks[m_s]:
            return f"beta_{s} has the wrong shape"
        if apply(beta, certB.levels[m_s]) != certA.levels[n_next]:
            return f"beta_{s} is not unit-preserving"
    for s in range(K):
        f = certA.bond_product(w.n_stages[s], w.n_stages[s + 1])
        if compose(w.betas[s], w.alphas[s]) != f:
            return f"beta_{s} . alpha_{s} differs from the A-bond product"
        g = certB.bond_product(w.m_stages[s], w.m_stages[s + 1])
        if compose(w.alphas[s + 1], w.betas[s]) != g:
            return f"alpha_{s + 1} . beta_{s} differs from the B-bond product"
    return None


def verify_zigzag(w: ZigzagWitness, certA: Tower, certB: Tower) -> bool:
    """Recheck every witness identity from scratch by exact matrix arithmetic."""
    return zigzag_violation(w, certA, certB) is None
