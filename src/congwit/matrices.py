"""Exact matrix arithmetic over residue rings with determinant-1 certification.

SLMat values are immutable, canonically reduced and of determinant 1.
SLMat(...) and from_rows certify their rows, so nothing outside SL_n enters
through the public surface; mat_mul, mat_inv and the diagram symmetry are
closed on certified operands, and scalar_mul checks c^n = det(c * x) = 1.
Also here: the scalar central elements and group orders of SL_n(Z/p^e).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .rings import ResidueRing, factorize, is_prime, unit_of_order


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det_int(rows) -> int:
    """Exact integer determinant; cofactor expansion for n <= 4, Bareiss above."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return _det2(rows)
    if n == 3:
        return _det3(rows)
    if n == 4:
        # Laplace expansion along the first two rows: each 2x2 minor s_k of
        # rows 0-1 pairs with its complementary minor c_(5-k) of rows 2-3.
        (a00, a01, a02, a03), (a10, a11, a12, a13) = rows[0], rows[1]
        (a20, a21, a22, a23), (a30, a31, a32, a33) = rows[2], rows[3]
        return (
            (a00 * a11 - a10 * a01) * (a22 * a33 - a32 * a23)
            - (a00 * a12 - a10 * a02) * (a21 * a33 - a31 * a23)
            + (a00 * a13 - a10 * a03) * (a21 * a32 - a31 * a22)
            + (a01 * a12 - a11 * a02) * (a20 * a33 - a30 * a23)
            - (a01 * a13 - a11 * a03) * (a20 * a32 - a30 * a22)
            + (a02 * a13 - a12 * a03) * (a20 * a31 - a30 * a21)
        )
    return _bareiss(rows)


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
    """Entries of the product of two row tuples, reduced mod `mod`.

    n = 2 and n = 4 are written out in full: up to Python 3.11 every
    comprehension runs in a function frame of its own.
    """
    n = len(xe)
    if n == 4:
        (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = xe
        (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = ye
        return (
            (
                (a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30) % mod,
                (a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31) % mod,
                (a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32) % mod,
                (a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33) % mod,
            ),
            (
                (a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30) % mod,
                (a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31) % mod,
                (a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32) % mod,
                (a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33) % mod,
            ),
            (
                (a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30) % mod,
                (a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31) % mod,
                (a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32) % mod,
                (a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33) % mod,
            ),
            (
                (a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30) % mod,
                (a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31) % mod,
                (a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32) % mod,
                (a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33) % mod,
            ),
        )
    if n == 2:
        (a00, a01), (a10, a11) = xe
        (b00, b01), (b10, b11) = ye
        return (
            ((a00 * b00 + a01 * b10) % mod, (a00 * b01 + a01 * b11) % mod),
            ((a10 * b00 + a11 * b10) % mod, (a10 * b01 + a11 * b11) % mod),
        )
    cols = tuple(zip(*ye))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % mod for col in cols) for row in xe
    )


def _adj_rows(e, mod):
    """Adjugate of integer rows, reduced mod `mod`; the inverse when det = 1.

    For n = 4 every cofactor is assembled from the six 2x2 minors s_k of
    rows 0-1 and the six c_k of rows 2-3 instead of sixteen 3x3 minors.
    """
    n = len(e)
    if n == 4:
        (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = e
        s0 = a00 * a11 - a10 * a01
        s1 = a00 * a12 - a10 * a02
        s2 = a00 * a13 - a10 * a03
        s3 = a01 * a12 - a11 * a02
        s4 = a01 * a13 - a11 * a03
        s5 = a02 * a13 - a12 * a03
        c0 = a20 * a31 - a30 * a21
        c1 = a20 * a32 - a30 * a22
        c2 = a20 * a33 - a30 * a23
        c3 = a21 * a32 - a31 * a22
        c4 = a21 * a33 - a31 * a23
        c5 = a22 * a33 - a32 * a23
        return (
            (
                (a11 * c5 - a12 * c4 + a13 * c3) % mod,
                (-a01 * c5 + a02 * c4 - a03 * c3) % mod,
                (a31 * s5 - a32 * s4 + a33 * s3) % mod,
                (-a21 * s5 + a22 * s4 - a23 * s3) % mod,
            ),
            (
                (-a10 * c5 + a12 * c2 - a13 * c1) % mod,
                (a00 * c5 - a02 * c2 + a03 * c1) % mod,
                (-a30 * s5 + a32 * s2 - a33 * s1) % mod,
                (a20 * s5 - a22 * s2 + a23 * s1) % mod,
            ),
            (
                (a10 * c4 - a11 * c2 + a13 * c0) % mod,
                (-a00 * c4 + a01 * c2 - a03 * c0) % mod,
                (a30 * s4 - a31 * s2 + a33 * s0) % mod,
                (-a20 * s4 + a21 * s2 - a23 * s0) % mod,
            ),
            (
                (-a10 * c3 + a11 * c1 - a12 * c0) % mod,
                (a00 * c3 - a01 * c1 + a02 * c0) % mod,
                (-a30 * s3 + a31 * s1 - a32 * s0) % mod,
                (a20 * s3 - a21 * s1 + a22 * s0) % mod,
            ),
        )
    if n == 2:
        (a, b), (c, d) = e
        return ((d % mod, -b % mod), (-c % mod, a % mod))
    rows = [list(r) for r in e]
    return tuple(
        tuple((-1) ** (i + j) * _det_int(_minor(rows, j, i)) % mod for j in range(n))
        for i in range(n)
    )


def _check_square(entries) -> None:
    n = len(entries)
    if n < 1 or any(len(r) != n for r in entries):
        raise InputError("entries must form a square matrix")


def _check_det_one(entries, mod: int) -> None:
    if _det_int(entries) % mod != 1:
        raise InputError("determinant is not 1 in the ring")


@dataclass(frozen=True)
class SLMat:
    """A square matrix over a residue ring with determinant 1.

    SLMat(...) runs the square-shape, canonical-reduction and determinant
    checks on every matrix built from rows, untrusted input included.
    from_rows reduces its rows itself and runs the shape and determinant
    checks; only mat_mul, mat_inv, scalar_mul and the diagram symmetry use
    _closed unchecked.
    """

    ring: ResidueRing
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = self.entries
        mod = self.ring.modulus
        _check_square(entries)
        flat = sum(entries, ())  # rows are tuples, so this flattens in C
        if min(flat) < 0 or max(flat) >= mod:
            raise InputError("entries must be canonically reduced")
        _check_det_one(entries, mod)

    @classmethod
    def _closed(cls, ring: ResidueRing, entries) -> "SLMat":
        """Reduced entries already known to have determinant 1; not checked."""
        m = object.__new__(cls)
        m.__dict__.update(ring=ring, entries=entries)  # the frozen fields, set once
        return m

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"[{body}] mod {self.ring.modulus}"


def from_rows(rows, ring: ResidueRing) -> SLMat:
    """Build an SLMat from integer rows, reducing entries into the ring.

    The reduction puts every entry in [0, modulus), so of SLMat's checks
    only the shape and the determinant are left to run.  Square n = 2 and
    n = 4 rows are reduced by written-out code, as in _mul_rows; any other
    shape, ragged rows included, takes the generic path and its checks.
    """
    mod = ring.modulus
    n = len(rows)
    if n == 4 and len(rows[0]) == len(rows[1]) == len(rows[2]) == len(rows[3]) == 4:
        r0, r1, r2, r3 = rows
        entries = (
            (r0[0] % mod, r0[1] % mod, r0[2] % mod, r0[3] % mod),
            (r1[0] % mod, r1[1] % mod, r1[2] % mod, r1[3] % mod),
            (r2[0] % mod, r2[1] % mod, r2[2] % mod, r2[3] % mod),
            (r3[0] % mod, r3[1] % mod, r3[2] % mod, r3[3] % mod),
        )
        _check_det_one(entries, mod)
        return SLMat._closed(ring, entries)
    if n == 2 and len(rows[0]) == len(rows[1]) == 2:
        (a, b), (c, d) = rows
        a, b, c, d = a % mod, b % mod, c % mod, d % mod
        if (a * d - b * c) % mod != 1:
            raise InputError("determinant is not 1 in the ring")
        return SLMat._closed(ring, ((a, b), (c, d)))
    entries = tuple([tuple([x % mod for x in r]) for r in rows])
    _check_square(entries)
    _check_det_one(entries, mod)
    return SLMat._closed(ring, entries)


def identity(n: int, ring: ResidueRing) -> SLMat:
    return SLMat(ring, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mat_mul(x: SLMat, y: SLMat) -> SLMat:
    if (x.ring is not y.ring and x.ring != y.ring) or x.n != y.n:
        raise InputError("matrix product needs matching ring and dimension")
    return SLMat._closed(x.ring, _mul_rows(x.entries, y.entries, x.ring.modulus))


def mat_inv(x: SLMat) -> SLMat:
    """Inverse matrix: the adjugate, which determinant 1 makes the inverse."""
    return SLMat._closed(x.ring, _adj_rows(x.entries, x.ring.modulus))


def scalar_mul(c: int, x: SLMat) -> SLMat:
    """c * x for a scalar with c^n = 1, the determinant of c * x."""
    mod = x.ring.modulus
    if pow(c, len(x.entries), mod) != 1:
        raise InputError("determinant is not 1 in the ring")
    return SLMat._closed(x.ring, tuple([tuple([c * v % mod for v in r]) for r in x.entries]))


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


def central_scalar(n: int, ring: ResidueRing, m: int) -> SLMat:
    """The canonical central element of order m: zeta * identity.

    zeta is the canonical unit of order m in (Z/p^e)^x, so m must divide
    gcd(n, p - 1); that divisibility is exactly the condition for SL_n over
    the residue ring to contain full m-torsion of its centre.
    """
    p, e = ring.p, ring.e
    if m < 1 or n % m != 0 or (p - 1) % m != 0:
        raise InputError(f"order {m} does not divide gcd({n}, {p - 1})")
    z = unit_of_order(m, p, e)
    return scalar_mul(z, identity(n, ring))


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


def sl_order_mod(n: int, m: int) -> int:
    """|SL_n(Z/m)| for composite m, via the prime-power decomposition."""
    order = 1
    for p, e in factorize(m).items():
        order *= sl_order(n, p, e)
    return order


def enumerate_sl2_order(m: int) -> int:
    """Brute-force count of 2x2 matrices mod m with determinant 1.

    Independent oracle for sl_order_mod(2, m); only usable for small m.
    """
    count = 0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    if (a * d - b * c) % m == 1:
                        count += 1
    return count
