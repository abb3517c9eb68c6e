"""Exact arithmetic in Z and in real quadratic rings Z[sqrt(d)].

The building blocks here are deliberately small: labeled finite places,
square roots modulo a prime, and the residue rings Z/p^e.  A
place is a rational prime p and, over Z[sqrt(d)], the root of x^2 = d mod p
that names one of the two places over a split prime; its kind (rational,
split_first, split_second) follows from the root.  Every place has the
residue ring Z/p^e.  Inert and ramified primes would need quadratic-extension
residue fields that nothing downstream requires, so they have no places here.

All values are immutable and all functions are pure, so everything in this
module is safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import InputError

# Residue moduli p^e are capped so entries and cofactor products stay far
# from any practical size limits; presets use p^e <= 17^2.
MAX_MODULUS = 2**31

# Hard cap on the primes find_split_primes scans, 2 included; hitting it
# means the search constraints are inconsistent (the searches used here
# always terminate long before).
PRIME_SCAN_CAP = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (intended for n < 10^12)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise InputError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for e in factorize(n).values())


def euler_phi_prime_power(p: int, e: int) -> int:
    return (p - 1) * p ** (e - 1)


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True)
class PrimePlace:
    """A labeled finite place over the odd prime p.

    A place of Z carries no root.  A place of Z[sqrt(d)] over a split prime
    carries the square root r of d mod p, 0 < r < p, that identifies it; the
    two places over p carry r and p - r.  The kind follows from the root:
    rational without one, split_first for the smaller root (r < p - r) and
    split_second for the larger.  Nothing here checks the root against d:
    serialize.place_from_json ties a place to its base ring.
    """

    p: int
    root: int | None = None
    label: str = ""

    @property
    def kind(self) -> str:
        if self.root is None:
            return "rational"
        return "split_first" if self.root < self.p - self.root else "split_second"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.p, self.root or 0)


def rational_place(p: int) -> PrimePlace:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return PrimePlace(p, None, f"p{p}")


def splitting_type(p: int, d: int):
    """How the odd prime p behaves in Z[sqrt(d)].

    Returns ("split", (r, p - r)) with the roots of x^2 = d mod p sorted
    ascending, ("ramified", None) when p divides d, or ("inert", None).
    """
    if p == 2:
        raise InputError("p = 2 is out of scope everywhere")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if d < 1 or not is_squarefree(d):
        raise InputError(f"d={d} must be squarefree and positive")
    if d % p == 0:
        return ("ramified", None)
    if pow(d % p, (p - 1) // 2, p) != 1:
        return ("inert", None)
    r = sqrt_mod_prime(d % p, p)
    return ("split", (min(r, p - r), max(r, p - r)))


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks; the p % 4 == 3 case short-circuits to a single power.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise InputError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return x


def split_places(p: int, d: int) -> tuple[PrimePlace, PrimePlace]:
    """The two places over a prime p that splits in Z[sqrt(d)]."""
    kind, roots = splitting_type(p, d)
    if kind != "split":
        raise InputError(
            f"{p} is {kind} in Z[sqrt({d})]: x^2 = {d} mod {p} has "
            f"{'no solution' if kind == 'inert' else 'a double root'}, but a split prime is required"
        )
    r1, r2 = roots
    return PrimePlace(p, r1, f"p{p}a"), PrimePlace(p, r2, f"p{p}b")


def conj_place(v: PrimePlace, places=()) -> PrimePlace:
    """Image of a place under the ring conjugation, which swaps the two split
    places over a prime (roots r and p - r) and fixes a rational place.
    Labels are names only: the image is the place among `places` with the
    conjugate (p, root), or an unlabeled place when there is none."""
    if v.root is None:
        return v
    key = (v.p, v.p - v.root)
    return next((w for w in places if (w.p, w.root) == key), PrimePlace(*key))


def find_split_primes(d, count, exclude=(), congruence=None):
    """The `count` smallest odd primes split in Z[sqrt(d)], in order.

    An odd prime p splits exactly when d is a nonzero square mod p, which
    Euler's criterion d^((p-1)/2) = 1 mod p tests; the power is 0 mod the
    primes dividing d, so they are skipped, as are the primes in `exclude`.
    An optional congruence (m, a) additionally requires p = a mod m; with d = 1 the
    quadratic condition is vacuous (every odd prime counts), which is the
    rational-ring mode used to search for primes where the full group of
    n-th roots of unity lives in F_p (congruence (n, 1)).
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if d < 1 or not is_squarefree(d):
        raise InputError(f"d={d} must be squarefree and positive")
    if congruence is not None:
        cm, ca = congruence
        if cm < 1:
            raise InputError("congruence modulus must be positive")
        if cm > 1 and math.gcd(ca, cm) != 1:
            raise InputError(f"congruence class {ca} mod {cm} contains at most one prime")
    found: list[int] = []
    odd_primes = (p for p in itertools.count(3, 2) if is_prime(p))
    # the cap counts the prime 2 as scanned, though it is never a candidate
    for p in itertools.islice(odd_primes, PRIME_SCAN_CAP - 1):
        if p in exclude or pow(d, (p - 1) // 2, p) != 1:
            continue
        if congruence is not None and p % congruence[0] != congruence[1] % congruence[0]:
            continue
        found.append(p)
        if len(found) == count:
            return found
    raise InputError("prime search exceeded its candidate cap; constraints look inconsistent")


def _guarded_modulus(p: int, e: int) -> int:
    """p^e below MAX_MODULUS, e >= 1; p >= 2, so e >= 32 is refused unbuilt."""
    if e < 1:
        raise InputError("exponent must be >= 1")
    if e >= MAX_MODULUS.bit_length() or p**e >= MAX_MODULUS:
        raise InputError(f"modulus {p}^{e} exceeds the 2^31 guard")
    return p**e


# ---------------------------------------------------------------------------
# residue rings


@dataclass(frozen=True)
class ResidueRing:
    """The ring Z/p^e.

    At a split place the residue ring O/v^e is this same ring; the root
    that fixes the identification matters only when quadratic integers are
    reduced, which nothing here does.  So both places over a split prime
    share one ring.
    """

    p: int
    e: int

    def __post_init__(self):
        # Computed once: the modulus is read on every matrix operation.
        object.__setattr__(self, "_modulus", _guarded_modulus(self.p, self.e))
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")

    @property
    def modulus(self) -> int:
        return self._modulus


@functools.lru_cache(maxsize=None)
def residue_ring(p: int, e: int) -> ResidueRing:
    """The ring Z/p^e, interned: equal arguments return one ring object, so
    quotients at the same prime and exponent share it.  Bad arguments raise
    on every call (exceptions are not cached)."""
    return ResidueRing(p, e)


# ---------------------------------------------------------------------------
# roots of unity


@functools.lru_cache(maxsize=None)
def smallest_primitive_root(p: int, e: int) -> int:
    """Smallest generator of the cyclic group (Z/p^e)^x, p odd."""
    if p == 2 or not is_prime(p):
        raise InputError("p must be an odd prime")
    pe = p**e
    phi = euler_phi_prime_power(p, e)
    radicals = list(factorize(phi))
    g = 2
    while True:
        if g % p != 0 and all(pow(g, phi // r, pe) != 1 for r in radicals):
            return g
        g += 1


def unit_of_order(m: int, p: int, e: int) -> int:
    """The canonical unit of multiplicative order m in (Z/p^e)^x, which
    exists exactly when m >= 1 divides p - 1.

    Defined as g^(phi/m) for g the smallest primitive root mod p^e; any
    fixed choice would do, but witnesses must be byte-stable.
    """
    if m == 1:
        return 1
    if m < 1:
        raise InputError(f"no element of order {m}: an order is at least 1")
    if (p - 1) % m != 0:
        raise InputError(f"no element of order {m} in (Z/{p}^{e})^x: {m} does not divide {p - 1}")
    g = smallest_primitive_root(p, e)
    return pow(g, euler_phi_prime_power(p, e) // m, p**e)
