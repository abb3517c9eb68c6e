"""Test-only oracles: small constructions the tests check congwit against.

None of these is used by the package itself.  They build elements and
counts by independent routes (quadratic integers and their residue maps,
CRT and Hensel lifting, the longest Weyl element and its conjugator,
transposes and reductions, SL_2(Z/m) counted entry by entry and reached by
integral words, tuple inverses, the principal predicates as
comprehensions) that the tests compare with the
package's own results, and the pair loop of the verifier recomputed in
full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from congwit.errors import InputError
from congwit.matrices import SLMat, from_rows, identity, mat_inv, mat_mul, scalar_mul
from congwit.parabolics import RootSubset, root_subset
from congwit.quotients import closure, tuple_mul
from congwit.rings import PrimePlace, ResidueRing, factorize, is_prime, is_squarefree, residue_ring


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


def _coprime(moduli) -> int:
    """The product of pairwise coprime positive moduli; anything else raises."""
    mod = math.prod(moduli)
    if not moduli or min(moduli) < 1 or math.lcm(*moduli) != mod:
        raise InputError(f"CRT moduli must be positive and pairwise coprime, not {list(moduli)}")
    return mod


def crt_split(x: int, moduli) -> tuple[int, ...]:
    """The residues of x modulo pairwise coprime moduli."""
    _coprime(moduli)
    return tuple([x % m for m in moduli])


def crt_join(parts, moduli) -> int:
    """Inverse of crt_split: the x modulo the product with those residues."""
    mod = _coprime(moduli)
    if len(parts) != len(moduli):
        raise InputError("component count does not match the moduli")
    return sum([c * (mod // m) * pow(mod // m, -1, m) for c, m in zip(parts, moduli)]) % mod


def hensel_lift_sqrt(d: int, p: int, r: int, e: int) -> int:
    """The unique lift of the square root r of d mod p to a root mod p^e.

    One linear Newton step per exponent increment: with f(x) = x^2 - d the
    update is x -> x - f(x) / (2x), and 2x is a unit because p is odd and
    r is nonzero mod p.
    """
    if p == 2 or not is_prime(p):
        raise InputError("p must be an odd prime")
    if e < 1:
        raise InputError("e must be >= 1")
    r %= p
    if (r * r - d) % p != 0:
        raise InputError(f"{r} is not a square root of {d} mod {p}")
    if r == 0:
        raise InputError("root 0 mod p cannot be lifted (p divides d)")
    residue_ring(p, e)  # the modulus guard, before the e steps
    x = r
    for k in range(2, e + 1):
        mod = p**k
        x = (x - (x * x - d) * pow(2 * x, -1, mod)) % mod
    return x


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

    Central elements of other orders come from quotients.central_element.
    """
    if n % 2 != 0:
        raise InputError(f"-identity has determinant -1 for n={n}; use central_element for odd n")
    mod = ring.modulus
    return scalar_mul(mod - 1, identity(n, ring))


def transpose(x: SLMat) -> SLMat:
    return SLMat(x.ring, tuple(zip(*x.entries)))


def reduce_mat(x: SLMat, ring: ResidueRing) -> SLMat:
    """Entrywise reduction into a ring whose modulus divides the source's.

    Reducing into the matrix's own ring is the identity and returns x itself.
    """
    if ring is x.ring or ring == x.ring:
        return x
    mod = ring.modulus
    if x.ring.modulus % mod != 0:
        raise InputError("target modulus must divide the source modulus")
    return SLMat(ring, tuple(tuple(v % mod for v in r) for r in x.entries))


def longest_weyl(n: int, ring: ResidueRing) -> SLMat:
    """The reversal permutation matrix, sign-fixed to determinant 1.

    The reversal has sign (-1)^(n(n-1)/2); when that is -1 the (0, n-1)
    entry is negated.  This is the w0 = S * J whose conjugation
    graph_automorphism computes as a signed adjugate.
    """
    rows = [[int(j == n - 1 - i) for j in range(n)] for i in range(n)]
    if (n * (n - 1) // 2) % 2 == 1:
        rows[0][n - 1] = -1
    return from_rows(rows, ring)


def weyl_conjugator(n: int, ring: ResidueRing) -> SLMat:
    """c = w0 * (w0^T)^(-1); the square of the symmetry is conjugation by c."""
    w0 = longest_weyl(n, ring)
    return mat_mul(w0, mat_inv(transpose(w0)))


def borel(n: int) -> RootSubset:
    """theta = the empty set: the upper triangular Borel."""
    return root_subset(n, ())


def parabolic_full(n: int) -> RootSubset:
    """theta = all simple roots: the whole group as a degenerate parabolic."""
    return root_subset(n, range(1, n))


def principal_member(g: SLMat, mod: int) -> bool:
    """Principal.member as a comprehension: g = 1 mod `mod`."""
    n = len(g.entries)
    return [x % mod for row in g.entries for x in row] == [int(i == j) for i in range(n) for j in range(n)]


def central_principal_member(g: SLMat, mod: int, order: int) -> bool:
    """CentralPrincipal.member as a comprehension: g = z * 1 mod `mod` with
    z^order = 1."""
    n = len(g.entries)
    flat = [x % mod for row in g.entries for x in row]
    z = flat[0]
    if pow(z, order, mod) != 1:
        return False
    return flat == [z * int(i == j) for i in range(n) for j in range(n)]


def tuple_inv(x):
    return tuple(mat_inv(a) for a in x)


def enumerate_sl2_order(m: int) -> int:
    """Brute-force count of 2x2 matrices mod m with determinant 1, the
    order of SL_2(Z/m); only usable for small m."""
    count = 0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    if (a * d - b * c) % m == 1:
                        count += 1
    return count


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


# ---------------------------------------------------------------------------
# the verifier's pair loop, recomputed in full


def reference_member(q, g) -> bool:
    """q.member(g) with no identity pass: after the shape and ring checks,
    the predicate of every component runs, the identity's included."""
    if len(g) != len(q.places):
        return False
    for comp, c in zip(g, q.components):
        if not isinstance(comp, SLMat) or comp.n != q.n or comp.ring != c.ring:
            return False
    return all([cond.member(c, comp) for comp, cond, c in zip(g, q.conditions, q.components)])


def reference_check_pairs(iso, inverse, pair, start, stop):
    """The (membership, homomorphism, inverse) failure counts of
    twists._check_pairs, with f(x)*f(y) multiplied out in full by
    tuple_mul and every membership test run by reference_member."""
    src, tgt = iso.source, iso.target
    membership = homomorphism = inverse_failures = 0
    for index in range(start, stop):
        x, y = pair(index)
        if not (reference_member(src, x) and reference_member(src, y)):
            raise AssertionError(f"pair {index} is not in the source")
        fx, fy = iso._image(x), iso._image(y)
        if iso._image(tuple_mul(x, y)) != tuple_mul(fx, fy):
            homomorphism += 1
        if not reference_member(tgt, fx):
            membership += 1
        elif inverse._image(fx) != x:
            inverse_failures += 1
    return membership, homomorphism, inverse_failures
