"""Test-only oracles: small constructions the tests check congwit against.

None of these is used by the package itself.  They build elements and
counts by independent routes (quadratic integers and their residue maps,
the Weyl conjugator, integral SL_2 words, tuple inverses) that the tests
compare with the package's own results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from congwit.errors import InputError
from congwit.matrices import SLMat, from_rows, identity, mat_inv, mat_mul, scalar_mul, transpose
from congwit.parabolics import ParabolicSpec, longest_weyl, root_subset
from congwit.quotients import closure
from congwit.rings import (
    PrimePlace,
    ResidueRing,
    factorize,
    hensel_lift_sqrt,
    is_prime,
    is_squarefree,
    residue_ring,
)


# ---------------------------------------------------------------------------
# quadratic integers


@dataclass(frozen=True)
class QuadInt:
    """An element a + b*sqrt(d) of Z[sqrt(d)], d squarefree and >= 2.

    The ring parameter d is carried on every element; mixing elements with
    different d in one expression is rejected.
    """

    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.d < 2 or not is_squarefree(self.d):
            raise InputError(f"ring parameter d={self.d} must be squarefree and >= 2")

    def _check(self, other: "QuadInt"):
        if self.d != other.d:
            raise InputError(f"mixed rings: sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*sqrt({self.d})"


def galois_conj(x: QuadInt) -> QuadInt:
    """The nontrivial ring automorphism: a + b*sqrt(d) -> a - b*sqrt(d)."""
    return QuadInt(x.a, -x.b, x.d)


def residue_map(x, place: PrimePlace, e: int) -> int:
    """Reduce an element of the base ring into Z/p^e at a place.

    Split places send a + b*sqrt(d) to a + b*r, with r the lift of the
    place's root to a square root of d mod p^e; rational places accept plain
    integers (or quadratic elements with b = 0).
    """
    mod = residue_ring(place.p, e).modulus
    if not isinstance(x, QuadInt):
        return x % mod
    if place.root is not None:
        return (x.a + x.b * hensel_lift_sqrt(x.d, place.p, place.root, e)) % mod
    if x.b != 0:
        raise InputError("rational places reduce integers only")
    return x.a % mod


def roots_of_unity_order(n: int, p: int, e: int) -> int:
    """Order of the n-torsion of (Z/p^e)^x, i.e. gcd(n, p - 1).

    Independent of e because the unit group is cyclic of order
    p^(e-1) * (p - 1) and p does not divide n.
    """
    if p == 2 or not is_prime(p):
        raise InputError("p must be an odd prime")
    if n < 1 or n % p == 0:
        raise InputError("n must be positive and prime to p")
    if e < 1:
        raise InputError("e must be >= 1")
    return math.gcd(n, p - 1)


# ---------------------------------------------------------------------------
# matrices and quotients


def minus_identity(n: int, ring: ResidueRing) -> SLMat:
    """The scalar matrix -1; rejected for odd n where its determinant is -1.

    Central elements of other orders come from central_scalar.
    """
    if n % 2 != 0:
        raise InputError(f"-identity has determinant -1 for n={n}; use central_scalar for odd n")
    mod = ring.modulus
    return scalar_mul(mod - 1, identity(n, ring))


def weyl_conjugator(n: int, ring: ResidueRing) -> SLMat:
    """c = w0 * (w0^T)^(-1); the square of the symmetry is conjugation by c."""
    w0 = longest_weyl(n, ring)
    return mat_mul(w0, mat_inv(transpose(w0)))


def parabolic_full(n: int, p: int) -> ParabolicSpec:
    """theta = all simple roots: the whole group as a degenerate parabolic."""
    return ParabolicSpec(n, p, root_subset(n, range(1, n)))


def tuple_inv(x):
    return tuple(mat_inv(a) for a in x)


def sl2_word_image_order(m: int, limit: int = 10**5) -> int:
    """Order of the subgroup of SL_2(Z/m) generated by the images of the two
    standard integral generators [[0,-1],[1,0]] and [[1,1],[0,1]].

    Equality with |SL_2(Z/m)| witnesses that reduction from the integral
    group onto the finite quotient is surjective, which is the evidence for
    defining quotients by local conditions alone.
    """
    rings = [residue_ring(p, e) for p, e in sorted(factorize(m).items())]
    s = [from_rows([[0, -1], [1, 0]], r) for r in rings]
    t = [from_rows([[1, 1], [0, 1]], r) for r in rings]
    ident = tuple(identity(2, r) for r in rings)
    out = closure([tuple(s), tuple(t)], ident, limit)
    if out is None:
        raise InputError(f"SL_2(Z/{m}) closure exceeded {limit}")
    return len(out)
