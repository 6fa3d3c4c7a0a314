"""Perturbation moduli as exact rationals, and a numeric matrix-unit layer.

The delta/Delta functions are recursive rational formulas evaluated exactly
with fractions.Fraction; they say how close an almost-structure must sit to a
subalgebra for a genuine structure to exist nearby, together with the precise
power-of-two distances. The numeric layer realizes matrix-unit systems in
M_d(C) with double precision and builds the exchange and conjugation
unitaries, so the claimed norm bounds can be measured on concrete instances.

Exchange construction note: the raw block operator 1 - p - q + 2qp
intertwines p and q exactly but is only approximately unitary (its defect is
quadratic in ||p - q||), so exchange_unitary applies the polar correction to
each block before assembling; the uncorrected operator, with either sign, is
exposed as exchange_block_operator for direct inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .findim import FinDimAlgebra


class PerturbationPreconditionError(ValueError):
    """An input violates a stated closeness or structure bound."""


# ---------------------------------------------------------------------------
# exact moduli


def _as_eps(eps) -> Fraction:
    e = Fraction(eps)
    if not 0 < e < 1:
        raise ValueError(f"eps must lie in (0, 1), got {e}")
    return e


def delta0(eps, n: int) -> Fraction:
    """Closeness needed for n mutually orthogonal projections to snap into a subalgebra."""
    e = _as_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return min(e / 2, Fraction(1, 2))
    return min(e / (4 * n), delta0(e / (12 * n * n), n - 1), Fraction(1))


def delta1(eps, n: int) -> Fraction:
    """Almost-orthogonality threshold under which projections can be disentangled."""
    e = _as_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Fraction(1, 2)
    m = n - 1
    return min(Fraction(1, 3), e / (48 * m), delta1(e / (48 * m), m))


def delta2(eps, n: int) -> Fraction:
    """Closeness needed for an n x n system of matrix units to snap into a subalgebra."""
    e = _as_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(Fraction(1, 5), e * (8 - 5 * e), delta1(e, n))


def _least_power_below(value: Fraction) -> int:
    """Least N >= 0 with 2^-N < value."""
    if value <= 0:
        raise ValueError("value must be positive")
    # With p/q = value, the least n >= 0 with p * 2^n > q is q.bit_length() -
    # p.bit_length() or one more, and 0 when p > q.
    p, q = value.numerator, value.denominator
    n = max(q.bit_length() - p.bit_length(), 0)
    return n if p << n > q else n + 1


def Delta1(n: int, k: int) -> int:
    """Least N with 2^-N < delta0(2^-(k+1), n); 0 for the unused n = 0 case."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n == 0:
        return 0
    return _least_power_below(delta0(Fraction(1, 2 ** (k + 1)), n))


def Delta2(n: int, k: int) -> int:
    return n + k + 2


def Delta3(n: int, k: int) -> int:
    """Least N with 2^-N < delta2(2^-(k+1), n); 0 for the unused n = 0 case."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n == 0:
        return 0
    return _least_power_below(delta2(Fraction(1, 2 ** (k + 1)), n))


def Delta4(n: int, k: int) -> int:
    inner = max(Delta3(np_, k) for np_ in range(n + 1)) if n >= 0 else 0
    first = max(Delta1(m, inner + 2) for m in range(k + 1))
    return max(first, 1 + inner)


def square_partitions(n: int) -> tuple:
    """All multisets of positive integers whose squares sum to n, as ascending tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # Depth-first over nondecreasing parts: j is the next part to try after parts.
    out, parts, left, j = [], [], n, 1
    while True:
        if j * j <= left:
            parts.append(j)
            left -= j * j
            if left == 0:
                out.append(tuple(parts))
        elif parts:
            j = parts.pop()
            left += j * j
            j += 1
        else:
            return tuple(out)


def DeltaGlimm(n: int, k: int) -> int:
    """Closeness exponent under which a near-inclusion can be conjugated inside.

    Maximizes the chained moduli over every square partition of n, with the
    distance exponent k0 = ceil(log2(n * 2^(k+1))).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    k0 = (n * 2 ** (k + 1) - 1).bit_length()
    # Partitions with the same sum give the same Delta4; evaluate each sum once.
    sums = {sum(parts) for parts in square_partitions(n)}
    return max(Delta4(n, Delta2(s, k0)) for s in sums)


# ---------------------------------------------------------------------------
# numeric layer


def operator_norm(m) -> float:
    """Largest singular value; the C*-norm of a complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


# ||x||_2 <= ||x||_F lets a Frobenius norm stand in for the SVD only above this
# floor: the unscaled sum of squares underflows near 1e-162.
_FRO_FLOOR = 1e-100


def _gate_norm(x: np.ndarray, tol: float) -> float:
    """operator_norm(x), or 0.0 when ||x||_F <= tol / 2 already puts it below tol.

    For gates that compare with tol only to raise: the half-tolerance margin is
    far wider than rounding, so the gate raises exactly when it would on the SVD
    value, which it returns whenever it can raise. Tolerances at or below
    _FRO_FLOOR always take the SVD.
    """
    if tol > _FRO_FLOOR and np.linalg.norm(x) <= tol / 2:
        return 0.0
    return operator_norm(x)


@dataclass(frozen=True, eq=False)
class MatrixUnitSystem:
    """Arrays e^s_{i,j} in a common M_d, one block of size n_s per s.

    units[s][i][j] is a d x d complex matrix; an exact system satisfies the
    matrix-unit relations within each block, kills cross-block products, and,
    when flagged unital, sums its diagonal elements to the identity. defect()
    measures how far a concrete array is from exactness.
    """

    sizes: tuple
    units: tuple
    unital: bool

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if any(not isinstance(n, int) or n < 1 for n in sizes):
            raise ValueError("block sizes must be positive ints")
        units = tuple(
            tuple(tuple(np.asarray(e, dtype=complex) for e in row) for row in block)
            for block in self.units
        )
        if len(units) != len(sizes):
            raise ValueError("one unit block per size")
        dim = None
        for n, block in zip(sizes, units):
            if len(block) != n or any(len(row) != n for row in block):
                raise ValueError("unit block shape must match its size")
            for row in block:
                for e in row:
                    if e.ndim != 2 or e.shape[0] != e.shape[1]:
                        raise ValueError("units must be square matrices")
                    if dim is None:
                        dim = e.shape[0]
                    elif e.shape[0] != dim:
                        raise ValueError("all units must share the ambient dimension")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "units", units)

    @property
    def dim(self) -> int:
        if not self.units:
            return 0
        return self.units[0][0][0].shape[0]

    def unit(self, s: int, i: int, j: int) -> np.ndarray:
        return self.units[s][i][j]


def canonical_matrix_units(algebra: FinDimAlgebra) -> MatrixUnitSystem:
    """Standard block-diagonal matrix units of the algebra inside M_(sum of sizes)."""
    d = sum(algebra.summands)
    units = []
    offset = 0
    for n in algebra.summands:
        block = []
        for i in range(n):
            row = []
            for j in range(n):
                e = np.zeros((d, d), dtype=complex)
                e[offset + i, offset + j] = 1.0
                row.append(e)
            block.append(tuple(row))
        units.append(tuple(block))
        offset += n
    return MatrixUnitSystem(sizes=algebra.summands, units=tuple(units), unital=True)


def embedded_matrix_units(hom) -> MatrixUnitSystem:
    """Images of the source's canonical units under the block-diagonal form of a hom.

    Inside each target block the source blocks are repeated along the diagonal
    according to the multiplicity matrix, with any slack space left zero; the
    system is unital exactly when the hom is.
    """
    d = sum(hom.target.summands)
    sizes = hom.source.summands
    units = [
        [[np.zeros((d, d), dtype=complex) for _ in range(n)] for _ in range(n)] for n in sizes
    ]
    block_offset = 0
    for t, cap in enumerate(hom.target.summands):
        inner = 0
        for s, n in enumerate(sizes):
            for _ in range(hom.mult.entries[t][s]):
                for i in range(n):
                    for j in range(n):
                        units[s][i][j][block_offset + inner + i, block_offset + inner + j] = 1.0
                inner += n
        block_offset += cap
    frozen = tuple(tuple(tuple(e for e in row) for row in block) for block in units)
    return MatrixUnitSystem(sizes=sizes, units=frozen, unital=hom.is_unital())


def defect(system: MatrixUnitSystem) -> float:
    """Largest residual of the matrix-unit relations, adjoints included.

    Covers products within and across blocks, the self-adjointness pairing
    e_{i,j}^* = e_{j,i}, and, for systems flagged unital, the residual of the
    diagonal sum against the identity.
    """
    if not system.sizes:
        return 0.0
    stack = np.stack([e for block in system.units for row in block for e in row])
    d = system.dim

    def scan(residuals, worst):
        # Once the Frobenius norms stop exceeding the worst operator norm seen,
        # no later residual of the batch can raise it; at or below _FRO_FLOOR
        # only exact zeros are skipped.
        fro = np.linalg.norm(residuals, axis=(1, 2))
        for a in np.argsort(fro)[::-1]:
            if fro[a] <= worst:
                if worst > _FRO_FLOOR:
                    break
                if not residuals[a].any():
                    continue
            worst = max(worst, operator_norm(residuals[a]))
        return worst

    worst = 0.0
    start = 0  # block s fills stack[start:start + n_s^2], row by row
    for n in system.sizes:
        block = stack[start:start + n * n].reshape(n, n, d, d)
        worst = scan((block.conj().swapaxes(2, 3) - block.swapaxes(0, 1)).reshape(n * n, d, d), worst)
        for i in range(n):
            for j in range(n):
                # e^s_{i,j} e^s_{j,j2} = e^s_{i,j2}; every other product vanishes.
                prods = block[i, j] @ stack
                prods[start + j * n:start + j * n + n] -= block[i]
                worst = scan(prods, worst)
        start += n * n
    if system.unital:
        total = sum(system.units[s][i][i] for s, n in enumerate(system.sizes) for i in range(n))
        worst = max(worst, operator_norm(total - np.eye(d)))
    return worst


def exchange_block_operator(p: np.ndarray, q: np.ndarray, sign: int = 1) -> np.ndarray:
    """Raw exchange operator 1 - p - q + sign*2*q@p, without unitarization.

    With sign=+1 this intertwines p into q (z p = q z) and equals the
    identity at p = q; sign=-1 reproduces the variant that fails unitarity
    (at p = q it degenerates to 1 - 4p).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = p.shape[0]
    return np.eye(d) + (-p - q + sign * 2 * (q @ p))


def _polar_unitary(z: np.ndarray) -> np.ndarray:
    """Unitary polar factor z (z*z)^(-1/2); z must be invertible."""
    w, v = np.linalg.eigh(z.conj().T @ z)
    if w[0] <= 0:
        raise ValueError("operator is singular; no polar unitary")
    return z @ (v * (w ** -0.5)) @ v.conj().T


def _check_projections(mats: Sequence[np.ndarray], tag: str, tol: float = 1e-9) -> None:
    for idx, p in enumerate(mats):
        if _gate_norm(p - p.conj().T, tol) > tol:
            raise PerturbationPreconditionError(f"{tag}[{idx}] is not self-adjoint within {tol}")
        if _gate_norm(p @ p - p, tol) > tol:
            raise PerturbationPreconditionError(f"{tag}[{idx}] is not idempotent within {tol}")
    for a in range(len(mats)):
        for b in range(len(mats)):
            if a != b and _gate_norm(mats[a] @ mats[b], tol) > tol:
                raise PerturbationPreconditionError(
                    f"{tag}[{a}] and {tag}[{b}] are not orthogonal within {tol}"
                )


def exchange_unitary(ps: Sequence[np.ndarray], qs: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Unitary v close to 1 with v* p_j v = q_j for paired projection families.

    Requires two families of mutually orthogonal projections with sum(p) = 1
    and max ||p_j - q_j|| below 2^-(n+k+2); then ||v - 1|| < 2^-k. Built
    blockwise from polar-corrected exchange operators, so the conjugation
    identities hold to machine precision rather than to the raw quadratic
    defect.
    """
    if len(ps) != len(qs) or not ps:
        raise ValueError("need equally many p's and q's")
    n = len(ps)
    ps = [np.asarray(p, dtype=complex) for p in ps]
    qs = [np.asarray(q, dtype=complex) for q in qs]
    d = ps[0].shape[0]
    _check_projections(ps, "p")
    _check_projections(qs, "q")
    if _gate_norm(sum(ps) - np.eye(d), 1e-9) > 1e-9:
        raise PerturbationPreconditionError("sum of p_j is not the identity within 1e-9")
    threshold = 2.0 ** -Delta2(n, k)
    # A pair cut to 0.0 is below threshold / 2, so it is not the max when this raises.
    gap = max(_gate_norm(p - q, threshold) for p, q in zip(ps, qs))
    if gap >= threshold:
        raise PerturbationPreconditionError(
            f"max ||p_j - q_j|| = {gap:.3e} is not below 2^-Delta2 = {threshold:.3e}"
        )
    v = np.zeros((d, d), dtype=complex)
    for p, q in zip(ps, qs):
        u = _polar_unitary(exchange_block_operator(p, q, sign=1)).conj().T
        v = v + p @ u @ q
    return v


def glimm_unitary(
    g: MatrixUnitSystem, h: MatrixUnitSystem, v: np.ndarray
) -> np.ndarray:
    """Assemble u = sum g^s_{i,1} v h^s_{1,i}, conjugating system g onto system h.

    v must already conjugate the diagonal units of g onto those of h (within
    1e-8); both systems must be unital and of the same type.
    """
    if g.sizes != h.sizes:
        raise ValueError(f"type mismatch: {g.sizes} vs {h.sizes}")
    if g.dim != h.dim:
        raise ValueError("ambient dimensions differ")
    if not (g.unital and h.unital):
        raise PerturbationPreconditionError("both systems must be unital")
    v = np.asarray(v, dtype=complex)
    for s, n in enumerate(g.sizes):
        for i in range(n):
            err = _gate_norm(v.conj().T @ g.unit(s, i, i) @ v - h.unit(s, i, i), 1e-8)
            if err > 1e-8:
                raise PerturbationPreconditionError(
                    f"v does not carry diagonal unit ({s},{i}) within 1e-8 (residual {err:.3e})"
                )
    d = g.dim
    u = np.zeros((d, d), dtype=complex)
    for s, n in enumerate(g.sizes):
        for i in range(n):
            u = u + g.unit(s, i, 0) @ v @ h.unit(s, 0, i)
    return u


def conjugate_system(system: MatrixUnitSystem, u: np.ndarray) -> MatrixUnitSystem:
    """The system with every unit replaced by u e u*."""
    units = tuple(
        tuple(tuple(u @ e @ u.conj().T for e in row) for row in block) for block in system.units
    )
    return MatrixUnitSystem(sizes=system.sizes, units=units, unital=system.unital)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via the phase-fixed QR of a complex Gaussian."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def nearby_unitary(d: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary within operator distance `scale` of the identity."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    herm = (z + z.conj().T) / 2
    norm = operator_norm(herm)
    if norm == 0:
        return np.eye(d, dtype=complex)
    herm = herm / norm
    w, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * scale * w)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# seeded demo instances (shared by the CLI and the test suite)


def exchange_demo(n: int, k: int, d: int, seed: int) -> dict:
    """One seeded exchange instance; reports each bound next to its measurement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if d < n:
        raise ValueError("need d >= n to fit n orthogonal projections")
    rng = np.random.default_rng(seed)
    cuts = sorted(rng.choice(np.arange(1, d), size=n - 1, replace=False).tolist()) if n > 1 else []
    bounds = [0] + cuts + [d]
    w = haar_unitary(d, rng)
    ps = []
    for a, b in zip(bounds, bounds[1:]):
        e = np.zeros((d, d), dtype=complex)
        e[a:b, a:b] = np.eye(b - a)
        ps.append(w @ e @ w.conj().T)
    threshold = 2.0 ** -Delta2(n, k)
    u_small = nearby_unitary(d, threshold / 4, rng)
    qs = [u_small @ p @ u_small.conj().T for p in ps]
    v = exchange_unitary(ps, qs, k)
    measured_identity = operator_norm(v.conj().T @ v - np.eye(d))
    measured_conj = max(
        operator_norm(v.conj().T @ p @ v - q) for p, q in zip(ps, qs)
    )
    measured_dist = operator_norm(v - np.eye(d))
    report = {
        "n": n,
        "k": k,
        "d": d,
        "seed": seed,
        "checks": [
            {"name": "v*v = 1", "bound": 1e-8, "strict": False, "measured": measured_identity},
            {"name": "v*pv = q", "bound": 1e-8, "strict": False, "measured": measured_conj},
            {"name": "||v - 1||", "bound": 2.0**-k, "strict": True, "measured": measured_dist},
        ],
    }
    for c in report["checks"]:
        c["pass"] = c["measured"] < c["bound"] if c["strict"] else c["measured"] <= c["bound"]
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report


def glimm_demo(sizes: Sequence[int], k: int, seed: int) -> dict:
    """One seeded near-inclusion conjugation instance with its norm-chain bound."""
    if k < 0:
        raise ValueError("k must be >= 0")
    algebra = FinDimAlgebra(tuple(sizes))
    g = canonical_matrix_units(algebra)
    d = g.dim
    n = sum(m * m for m in algebra.summands)
    total_blocks = sum(algebra.summands)
    k0 = (n * 2 ** (k + 1) - 1).bit_length()
    threshold = min(2.0**-k0, 2.0 ** -Delta2(total_blocks, k0))
    rng = np.random.default_rng(seed)
    u_small = nearby_unitary(d, threshold / 4, rng)
    h = conjugate_system(g, u_small)
    ps = [g.unit(s, i, i) for s, m in enumerate(g.sizes) for i in range(m)]
    qs = [h.unit(s, i, i) for s, m in enumerate(h.sizes) for i in range(m)]
    v = exchange_unitary(ps, qs, k0)
    u = glimm_unitary(g, h, v)
    measured_identity = operator_norm(u.conj().T @ u - np.eye(d))
    measured_conj = max(
        operator_norm(u.conj().T @ g.unit(s, i, j) @ u - h.unit(s, i, j))
        for s, m in enumerate(g.sizes)
        for i in range(m)
        for j in range(m)
    )
    measured_dist = operator_norm(u - np.eye(d))
    report = {
        "sizes": list(algebra.summands),
        "k": k,
        "k0": k0,
        "seed": seed,
        "checks": [
            {"name": "u*u = 1", "bound": 1e-7, "strict": False, "measured": measured_identity},
            {"name": "u*gu = h", "bound": 1e-7, "strict": False, "measured": measured_conj},
            {
                "name": "||u - 1||",
                "bound": n * 2.0 ** (-k0 + 1),
                "strict": True,
                "measured": measured_dist,
            },
        ],
    }
    for c in report["checks"]:
        c["pass"] = c["measured"] < c["bound"] if c["strict"] else c["measured"] <= c["bound"]
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report
