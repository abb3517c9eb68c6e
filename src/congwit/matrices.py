"""Exact matrix arithmetic over residue rings with determinant-1 certification.

SLMat values are immutable, canonically reduced and of determinant 1.
SLMat(...) and from_rows certify their rows, so nothing outside SL_n enters
through the public surface; mat_mul, mat_inv and the diagram symmetry are
closed on certified operands, and scalar_mul checks c^n = det(c * x) = 1.
The principal sampler's kernel (see quotients) certifies its own entries.
Also here: elementary and torus elements, and orders of SL_n(Z/p^e).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import InputError
from .kernels import Kernels, emit_adj, emit_det, emit_mul, emit_reduce, emit_scale
from .rings import ResidueRing, is_prime


def _det_int(rows) -> int:
    """Exact integer determinant: Laplace up to GENERATED_MAX_N, else Bareiss."""
    return _DET[len(rows)](rows)


def _bareiss(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(rows, i, j):
    return [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]


def _mul_rows(xe, ye, mod):
    """Entries of the product of two row tuples, reduced mod `mod`."""
    cols = tuple(zip(*ye))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % mod for col in cols) for row in xe
    )


def _scale_rows(c, e, mod):
    """Entries of c times a row tuple, reduced mod `mod`."""
    return tuple([tuple([c * v % mod for v in r]) for r in e])


def _adj_rows(e, mod):
    """Adjugate of integer rows, reduced mod `mod`, by Bareiss cofactors."""
    rows = [list(r) for r in e]
    return tuple(
        tuple((-1) ** (i + j) * _bareiss(_minor(rows, j, i)) % mod for j in range(len(e)))
        for i in range(len(e))
    )


@dataclass(frozen=True)
class SLMat:
    """A square matrix over a residue ring with determinant 1.

    SLMat(...) runs the square-shape, canonical-reduction and determinant
    checks on every matrix built from rows, untrusted input included; the
    determinant is the generated kernel for n up to GENERATED_MAX_N (see
    the kernels module).  from_rows reduces its rows itself and runs the
    shape and determinant checks in one generated kernel, and so does the
    principal sampler's kernel (see quotients), before each builds through
    _closed; only mat_mul, mat_inv, scalar_mul and the diagram symmetry
    use _closed unchecked.
    """

    ring: ResidueRing
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = self.entries
        mod = self.ring.modulus
        n = len(entries)
        if n < 1 or any(len(r) != n for r in entries):
            raise InputError("entries must form a square matrix")
        flat = sum(entries, ())  # rows are tuples, so this flattens in C
        if min(flat) < 0 or max(flat) >= mod:
            raise InputError("entries must be canonically reduced")
        if _DET[n](entries) % mod != 1:
            raise InputError("determinant is not 1 in the ring")

    @classmethod
    def _closed(cls, ring: ResidueRing, entries) -> "SLMat":
        """Reduced entries already known to have determinant 1; not checked."""
        m = object.__new__(cls)
        m.__dict__.update(ring=ring, entries=entries)  # the frozen fields, set once
        return m

    @property
    def n(self) -> int:
        return len(self.entries)


def _reduce_rows(rows, ring: ResidueRing) -> SLMat:
    """from_rows for any n without a kernel: SLMat checks the reduced rows."""
    mod = ring.modulus
    return SLMat(ring, tuple([tuple([x % mod for x in r]) for r in rows]))


# the matrix kernels by n, generated up to GENERATED_MAX_N (see kernels)
_DET = Kernels(emit_det, _bareiss)
_MUL = Kernels(emit_mul, _mul_rows)
_ADJ = Kernels(emit_adj, _adj_rows)
_REDUCE = Kernels(emit_reduce, _reduce_rows, closed=SLMat._closed)
_SCALE = Kernels(emit_scale, _scale_rows)


def from_rows(rows, ring: ResidueRing) -> SLMat:
    """Build an SLMat from integer rows, reducing entries into the ring.

    The reduction puts every entry in [0, modulus), so of SLMat's checks
    only the shape and the determinant are left to run; the kernel for the
    number of rows (see _REDUCE) runs them, with SLMat's messages.
    """
    return _REDUCE[len(rows)](rows, ring)


_IDENTITIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def identity(n: int, ring: ResidueRing) -> SLMat:
    """The identity of SL_n over the ring, one object per (n, ring) while
    anything holds it, so that live quotients over one interned ring share
    it; two threads that build it at once may each keep an equal copy."""
    m = _IDENTITIES.get((n, ring))
    if m is None:
        m = SLMat(ring, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
        _IDENTITIES[n, ring] = m
    return m


def mat_mul(x: SLMat, y: SLMat) -> SLMat:
    xe = x.entries
    if (x.ring is not y.ring and x.ring != y.ring) or len(xe) != len(y.entries):
        raise InputError("matrix product needs matching ring and dimension")
    return SLMat._closed(x.ring, _MUL[len(xe)](xe, y.entries, x.ring.modulus))


def mat_inv(x: SLMat) -> SLMat:
    """Inverse matrix: the adjugate, which determinant 1 makes the inverse."""
    e = x.entries
    return SLMat._closed(x.ring, _ADJ[len(e)](e, x.ring.modulus))


def scalar_mul(c: int, x: SLMat) -> SLMat:
    """c * x for a scalar with c^n = 1, the determinant of c * x."""
    mod, e = x.ring.modulus, x.entries
    if pow(c, len(e), mod) != 1:
        raise InputError("determinant is not 1 in the ring")
    return SLMat._closed(x.ring, _SCALE[len(e)](c, e, mod))


def elementary(n: int, i: int, j: int, t: int, ring: ResidueRing) -> SLMat:
    """Identity plus t in off-diagonal position (i, j); indices 0-based."""
    if i == j:
        raise InputError("elementary matrices live off the diagonal")
    if not (0 <= i < n and 0 <= j < n):
        raise InputError("index out of range")
    mod = ring.modulus
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i][j] = t % mod
    return SLMat(ring, tuple(tuple(r) for r in rows))


def torus(n: int, ring: ResidueRing, u: int) -> list[SLMat]:
    """For i = 0..n-2, the diagonal matrix with u at i and u^(-1) at i + 1:
    the determinant-1 diagonal matrices with entries in <u> are their products."""
    u_inv = pow(u, -1, ring.modulus)
    diagonals = [[1] * i + [u, u_inv] + [1] * (n - 2 - i) for i in range(n - 1)]
    return [from_rows([[d[r] * (r == c) for c in range(n)] for r in range(n)], ring) for d in diagonals]


# ---------------------------------------------------------------------------
# group orders


def sl_order(n: int, p: int, e: int) -> int:
    """|SL_n(Z/p^e)| = p^((n^2-1)(e-1)) * p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1)."""
    if not is_prime(p) or e < 1 or n < 1:
        raise InputError("need prime p, e >= 1, n >= 1")
    order = p ** ((n * n - 1) * (e - 1)) * p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= p**i - 1
    return order
