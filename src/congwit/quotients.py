"""Congruence subgroups by local conditions and their finite-level quotients.

A SubgroupSpec records, for finitely many places, one local condition each,
one LocalCondition subclass per kind:

  Full()                  no constraint at the place
  Principal(e)            g = 1 mod p^e
  CentralPrincipal(m, e)  g = zeta * 1 mod p^e for zeta in the canonical
                          central subgroup of order m
  Parabolic(theta)        g mod p lies in the standard parabolic P_theta

The finite-level quotient at a chosen level (one exponent per place) is the
group of tuples, one SL_n(Z/p^e) component per place, satisfying every
condition.  Quotients are defined directly by these local predicates, in
the congruence-completion picture; exact orders come from local counting
formulas, membership is an exact predicate, and a seeded sampler produces
members (with a documented, non-uniform distribution).  Where a quotient is
small enough to enumerate, breadth-first closure over its generators is the
independent oracle for the order formulas.
"""

from __future__ import annotations

import functools
import random
from dataclasses import asdict, dataclass, fields

from .errors import InputError, json_int, json_int_list
from .matrices import (
    SLMat,
    _det_int,
    _minor,
    central_scalar,
    elementary,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    scalar_mul,
    sl_order,
)
from .parabolics import (
    RootSubset,
    parabolic_generators,
    parabolic_membership,
    parabolic_order,
    root_subset,
)
from .rings import PrimePlace, ResidueRing, residue_ring, unit_of_order

# Cap on random-word length in the samplers.  Full components use up to 32
# elementary factors; parabolic words are kept shorter because their
# generator sets are large and coverage, not uniformity, is what the
# verification needs.
FULL_WORD_MAX = 32
PARABOLIC_WORD_MAX = 12


class Component:
    """A quotient's component at one place: its level exponent and ring, and
    whatever its condition's setup adds for that condition's own methods."""

    def __init__(self, n: int, place: PrimePlace, ring: ResidueRing):
        self.n, self.place, self.e, self.ring = n, place, ring.e, ring
        # the identity's entries, row-major, for the principal predicates
        self.flat_identity = [int(i == j) for i in range(n) for j in range(n)]

    @functools.cached_property
    def identity(self) -> SLMat:
        return identity(self.n, self.ring)


class LocalCondition:
    """One local membership condition; one frozen dataclass per kind.

    A subclass names its `kind` and the least level exponent `depth` it
    needs at its place.  A quotient calls setup(component) once per
    component, then passes that component to member, local_order, sample and
    generators.  The JSON form is the kind plus the fields, read back by
    CONDITION_OF_KIND[kind].from_json(doc, n).
    """

    def setup(self, c: Component) -> None:
        pass

    def to_json(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_json(cls, doc: dict, n: int) -> LocalCondition:
        return cls(*(json_int(doc, f.name) for f in fields(cls)))


@dataclass(frozen=True)
class Full(LocalCondition):
    """No constraint: the component ranges over SL_n(Z/p^e)."""

    kind = "full"
    depth = 1

    def member(self, c, g) -> bool:
        return True

    def local_order(self, c) -> int:
        return sl_order(c.n, c.place.p, c.e)

    def sample(self, c, rng) -> SLMat:
        return _random_elementary_word(rng, c.n, c.ring, FULL_WORD_MAX)

    def generators(self, c) -> list[SLMat]:
        n = c.n
        return [elementary(n, i, j, 1, c.ring) for i in range(n) for j in range(n) if i != j]


@dataclass(frozen=True)
class Principal(LocalCondition):
    """g = 1 mod p^depth."""

    kind = "principal"
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise InputError("depth and order must be >= 1")

    def setup(self, c):
        c.mod = c.place.p**self.depth

    def member(self, c, g) -> bool:
        mod = c.mod
        return [x % mod for row in g.entries for x in row] == c.flat_identity

    def local_order(self, c) -> int:
        return c.place.p ** ((c.n * c.n - 1) * (c.e - self.depth))

    def sample(self, c, rng) -> SLMat:
        if self.depth == c.e:
            return c.identity
        return from_rows(_principal_rows(rng, c, self.depth), c.ring)

    def generators(self, c) -> list[SLMat]:
        return _principal_generators(c.n, c.ring, self.depth)


@dataclass(frozen=True)
class CentralPrincipal(LocalCondition):
    """g = z * 1 mod p^depth with z^order = 1: the principal kernel times the
    canonical central subgroup of that order, which must exist at the place."""

    kind = "central_principal"
    order: int
    depth: int

    def __post_init__(self):
        if self.depth < 1 or self.order < 1:
            raise InputError("depth and order must be >= 1")

    @classmethod
    def from_json(cls, doc, n) -> LocalCondition:
        # order 1 is the plain principal condition
        cond = super().from_json(doc, n)
        return Principal(cond.depth) if cond.order == 1 else cond

    def setup(self, c):
        m, p = self.order, c.place.p
        if c.n % m != 0 or (p - 1) % m != 0:
            raise InputError(
                f"central order {m} does not divide gcd(n, p-1) at {c.place.label}; "
                "central elements of that order do not exist there"
            )
        c.unit = unit_of_order(m, p, c.e)
        c.mod = p**self.depth

    def member(self, c, g) -> bool:
        # a scalar mod p^depth with an m-torsion unit
        mod = c.mod
        flat = [x % mod for row in g.entries for x in row]
        z = flat[0]
        if pow(z, self.order, mod) != 1:
            return False
        return flat == [z * v for v in c.flat_identity]

    def local_order(self, c) -> int:
        return c.place.p ** ((c.n * c.n - 1) * (c.e - self.depth)) * self.order

    def sample(self, c, rng) -> SLMat:
        # z^n = 1, so scaling keeps the determinant at 1
        k = _below(rng.getrandbits, self.order)
        rows = _principal_rows(rng, c, self.depth)
        scalar = pow(c.unit, k, c.ring.modulus)
        return from_rows([[v * scalar for v in row] for row in rows], c.ring)

    def generators(self, c) -> list[SLMat]:
        scalar = scalar_mul(c.unit, c.identity)
        return _principal_generators(c.n, c.ring, self.depth) + [scalar]


@dataclass(frozen=True)
class Parabolic(LocalCondition):
    """g mod p lies in the standard parabolic P_theta."""

    kind = "parabolic"
    depth = 1
    theta: RootSubset

    def to_json(self) -> dict:
        return {"kind": self.kind, "theta": sorted(self.theta.members)}

    @classmethod
    def from_json(cls, doc, n) -> Parabolic:
        theta = json_int_list(doc.get("theta"), "theta")
        if len(set(theta)) != len(theta):
            raise InputError(f"theta lists a root more than once: {theta}")
        return cls(root_subset(n, theta))

    def setup(self, c):
        c.ops = None

    def member(self, c, g) -> bool:
        return parabolic_membership(g, self.theta)

    def local_order(self, c) -> int:
        return parabolic_order(self.theta, c.place.p) * c.place.p ** ((c.n * c.n - 1) * (c.e - 1))

    def sampler_gens(self, c) -> list[SLMat]:
        """P_theta's generators in the component's ring, then their inverses."""
        gens = parabolic_generators(self.theta, c.ring)
        return gens + [mat_inv(g) for g in gens]

    def sampler_ops(self, c) -> list[tuple]:
        """sampler_gens as column operations (see _column_ops), built at the
        first sample, so that quotients never sampled never build them."""
        if c.ops is None:
            c.ops = [_column_ops(g) for g in self.sampler_gens(c)]
        return c.ops

    def sample(self, c, rng) -> SLMat:
        out = _random_word(rng, self.sampler_ops(c), c.n, c.ring)
        if c.e > 1:
            out = mat_mul(out, from_rows(_principal_rows(rng, c, 1), c.ring))
        return out

    def generators(self, c) -> list[SLMat]:
        gens = parabolic_generators(self.theta, c.ring)
        if c.e > 1:
            gens = gens + _principal_generators(c.n, c.ring, 1)
        return gens


CONDITION_OF_KIND = {cls.kind: cls for cls in (Full, Principal, CentralPrincipal, Parabolic)}


@dataclass(frozen=True)
class SubgroupSpec:
    """A congruence subgroup of SL_n given by per-place local conditions.

    d is the squarefree parameter of the base ring Z[sqrt(d)], or None for
    the rational ring Z.
    """

    n: int
    d: int | None
    conditions: tuple[tuple[PrimePlace, LocalCondition], ...]

    def __post_init__(self):
        places = [p for p, _ in self.conditions]
        if len(set(places)) != len(places):
            raise InputError("at most one condition per place")
        keys = [p.sort_key for p in places]
        if keys != sorted(keys):
            raise InputError("conditions must be sorted by place")

    def condition_at(self, place: PrimePlace) -> LocalCondition:
        for p, c in self.conditions:
            if p == place:
                return c
        return Full()


def subgroup_spec(n: int, conditions: dict, d: int | None = None) -> SubgroupSpec:
    """Build a SubgroupSpec from a place -> condition mapping.

    A Full entry constrains nothing and is dropped, as if it were absent, so
    specs that differ only in Full entries are equal.
    """
    items = sorted(
        ((v, c) for v, c in conditions.items() if not isinstance(c, Full)),
        key=lambda pc: pc[0].sort_key,
    )
    return SubgroupSpec(n, d, tuple(items))


class FiniteQuotientGroup:
    """The finite-level image of a SubgroupSpec.

    Elements are tuples of SLMat, one per place of the level in canonical
    place order, each in the residue ring Z/p^e of its place.  Construction
    validates that the level covers every condition at at least its depth,
    then sets up one Component per place; membership, order, sampling and
    generators are each condition's, read at its component.
    """

    def __init__(self, spec: SubgroupSpec, level):
        items = sorted(dict(level).items(), key=lambda pe: pe[0].sort_key)
        if not items:
            raise InputError("a quotient needs at least one place in its level")
        exponents = dict(items)
        for place, cond in spec.conditions:
            if place not in exponents:
                raise InputError(f"level does not cover the condition at {place.label}")
            if exponents[place] < cond.depth:
                raise InputError(
                    f"level exponent at {place.label} is below the condition depth {cond.depth}"
                )
        self.spec = spec
        self.level = tuple(items)
        self.places = tuple(p for p, _ in items)
        self.rings = tuple(residue_ring(p.p, e) for p, e in items)
        self.conditions = tuple(spec.condition_at(p) for p in self.places)
        self.components = tuple(Component(spec.n, p, ring) for p, ring in zip(self.places, self.rings))
        for cond, c in zip(self.conditions, self.components):
            cond.setup(c)
        self._gens: list[tuple[SLMat, ...]] | None = None
        self._order: int | None = None
        self._identity: tuple[SLMat, ...] | None = None

    # -- basics ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n

    def place_index(self, place: PrimePlace) -> int:
        try:
            return self.places.index(place)
        except ValueError:
            raise InputError(f"place {place.label} is not in the level") from None

    def identity(self) -> tuple[SLMat, ...]:
        if self._identity is None:
            self._identity = tuple(c.identity for c in self.components)
        return self._identity

    # -- membership ------------------------------------------------------

    def member(self, g) -> bool:
        """Exact evaluation of the local predicates.

        Shape or ring mismatches yield False rather than an error, so that
        ill-formed images of broken twist maps are refuted as data.  A
        component that is its component's cached identity object passes
        before any predicate runs; an equal copy is tested like any other.
        """
        if len(g) != len(self.places):
            return False
        n = self.spec.n
        for comp, cond, c in zip(g, self.conditions, self.components):
            # the identity of every subgroup, once built (c.__dict__ holds it)
            if comp is vars(c).get("identity"):
                continue
            if not isinstance(comp, SLMat) or comp.n != n:
                return False
            if comp.ring is not c.ring and comp.ring != c.ring:  # rings are interned
                return False
            if not cond.member(c, comp):
                return False
        return True

    # -- order -----------------------------------------------------------

    @property
    def order(self) -> int:
        """Exact order from the local counting formulas."""
        if self._order is None:
            total = 1
            for cond, c in zip(self.conditions, self.components):
                total *= cond.local_order(c)
            self._order = total
        return self._order

    # -- sampling ---------------------------------------------------------

    @functools.cached_property
    def _rng(self) -> random.Random:
        """The generator every sample reseeds, built at the first sample:
        Random() seeds itself from the OS, which quotients never sampled
        need not pay."""
        return random.Random()

    def sample(self, seed: int) -> tuple[SLMat, ...]:
        """A member of the quotient, deterministic in the seed.

        The distribution is not uniform; verification only needs members
        that range over the predicate domain.  Every draw is a rejection
        sample on Random(seed).getrandbits(n.bit_length()) (see _below), so
        the members depend only on getrandbits and not on the private
        algorithm behind random.randrange.

        The draws come from one generator per quotient, reseeded here:
        seed(seed) leaves the state a fresh Random(seed) has, without
        building one per sample.  So two threads must not sample one
        quotient at once; verify_iso samples in one thread per process.
        """
        rng = self._rng
        rng.seed(seed)
        return tuple(cond.sample(c, rng) for cond, c in zip(self.conditions, self.components))

    # -- generators --------------------------------------------------------

    def generators(self) -> list[tuple[SLMat, ...]]:
        """Tuples that generate the quotient: per place, local generators
        padded with the identity elsewhere."""
        if self._gens is None:
            gens = []
            ident = self.identity()
            for idx, (cond, c) in enumerate(zip(self.conditions, self.components)):
                for local in cond.generators(c):
                    g = list(ident)
                    g[idx] = local
                    gens.append(tuple(g))
            self._gens = gens
        return self._gens


def _principal_generators(n, ring, depth):
    """Generators of the level-depth principal kernel inside SL_n of the ring Z/p^e.

    Off-diagonal one-parameter pieces 1 + p^depth * E_ij together with the
    adjacent diagonal pieces diag(u, u^(-1)) for u = 1 + p^depth; closure
    enumeration against the order formula backs this up in the small cases.
    """
    if ring.e == depth:
        return []
    mod = ring.modulus
    step = ring.p**depth
    gens = [elementary(n, i, j, step, ring) for i in range(n) for j in range(n) if i != j]
    u = 1 + step
    u_inv = pow(u, -1, mod)
    for i in range(n - 1):
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        rows[i][i] = u
        rows[i + 1][i + 1] = u_inv
        gens.append(from_rows(rows, ring))
    return gens


def _below(bits, n):
    """A uniform draw from range(n) by rejection on bits(n.bit_length()).

    `bits` is a bound Random.getrandbits; this is the rule CPython's
    Random.randrange(n) applies, so the draws and the generator state after
    them match it exactly.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_elementary_word(rng, n, ring, max_len):
    # right-multiplying by 1 + t*E_ij adds t times column i to column j;
    # the three draws per factor are _below(n), _below(n - 1), _below(mod)
    mod = ring.modulus
    bits = rng.getrandbits
    kt = mod.bit_length()
    if n == 2:
        # rows (a, b), (c, d); j is the column i is not, but its _below(1)
        # draw (one bit per try until a 0) still runs
        a, b, c, d = 1, 0, 0, 1
        for _ in range(1 + _below(bits, max_len)):
            i = bits(2)
            while i >= 2:
                i = bits(2)
            while bits(1):
                pass
            t = bits(kt)
            while t >= mod:
                t = bits(kt)
            if i:
                a = (a + t * b) % mod
                c = (c + t * d) % mod
            else:
                b = (b + t * a) % mod
                d = (d + t * c) % mod
        return from_rows(((a, b), (c, d)), ring)
    m = n - 1
    kn, km = n.bit_length(), m.bit_length()
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(1 + _below(bits, max_len)):
        i = bits(kn)
        while i >= n:
            i = bits(kn)
        j = bits(km)
        while j >= m:
            j = bits(km)
        if j >= i:
            j += 1
        t = bits(kt)
        while t >= mod:
            t = bits(kt)
        if t:
            for row in rows:
                row[j] = (row[j] + t * row[i]) % mod
    return from_rows(rows, ring)


def _column_ops(g: SLMat) -> tuple:
    """Right multiplication by g as operations on columns.

    Column c of x * g is sum_k g[k][c] * (column k of x).  One operation
    (c, ((k, g[k][c]), ...)) is kept for every column of g that differs from
    the identity's, listing only the nonzero coefficients; the columns that
    match the identity's are left alone.  An elementary 1 + t*E_ij is the one
    operation (j, ((i, t), (j, 1))), a diagonal generator scales each moved
    column by its entry, and a dense g keeps every column it moves.
    """
    n = g.n
    ops = []
    for c in range(n):
        col = [g.entries[k][c] for k in range(n)]
        if col != [int(k == c) for k in range(n)]:
            ops.append((c, tuple((k, a) for k, a in enumerate(col) if a)))
    return tuple(ops)


def _random_word(rng, ops, n, ring):
    """A product of 1 to PARABOLIC_WORD_MAX generators, certified once.

    `ops` holds each generator's _column_ops.  The word starts from the
    identity and is kept as n packed columns, one integer each: row r of a
    column sits in bits [r*w, (r+1)*w) for w = PARABOLIC_WORD_MAX *
    (n * mod).bit_length().  A factor recomputes only the columns its
    generator moves, all from the columns before it, as sum_k a_k * C[k],
    which is one multiply-add of whole integers per term and acts on every
    field at once.  Nothing is reduced until the end: the word is unpacked
    (for n = 4 in one written-out pass) and reduced once by from_rows, which
    gives exactly the reduced dense product.

    Fields never carry or borrow.  The coefficients a_k are reduced entries,
    in [0, mod), and at most n of them make a column, so each factor
    multiplies the largest entry by less than n * mod; the identity's
    entries are at most 1, so after at most PARABOLIC_WORD_MAX factors every
    entry is a nonnegative integer below (n * mod)^PARABOLIC_WORD_MAX
    <= 2^w.

    The draws are _below(PARABOLIC_WORD_MAX) for the length, then
    _below(len(ops)) per factor, inlined.
    """
    bits = rng.getrandbits
    count = len(ops)
    kl, kc = PARABOLIC_WORD_MAX.bit_length(), count.bit_length()
    w = PARABOLIC_WORD_MAX * (n * ring.modulus).bit_length()
    cols = [1 << (c * w) for c in range(n)]
    length = bits(kl)
    while length >= PARABOLIC_WORD_MAX:
        length = bits(kl)
    for _ in range(length + 1):
        g = bits(kc)
        while g >= count:
            g = bits(kc)
        op = ops[g]
        # a generator that moves several columns reads them all before it
        old = cols if len(op) == 1 else cols[:]
        for c, terms in op:
            if len(terms) == 2:
                (k, a), (l, b) = terms
                cols[c] = a * old[k] + b * old[l]
            elif len(terms) == 1:
                ((k, a),) = terms
                cols[c] = a * old[k]
            else:
                cols[c] = sum(a * old[k] for k, a in terms)
    mask = (1 << w) - 1
    if n == 4:
        c0, c1, c2, c3 = cols
        w2, w3 = 2 * w, 3 * w
        rows = (
            (c0 & mask, c1 & mask, c2 & mask, c3 & mask),
            (c0 >> w & mask, c1 >> w & mask, c2 >> w & mask, c3 >> w & mask),
            (c0 >> w2 & mask, c1 >> w2 & mask, c2 >> w2 & mask, c3 >> w2 & mask),
            (c0 >> w3 & mask, c1 >> w3 & mask, c2 >> w3 & mask, c3 >> w3 & mask),
        )
    else:
        rows = [[col >> s & mask for col in cols] for s in range(0, n * w, w)]
    return from_rows(rows, ring)


def _principal_rows(rng, c: Component, depth):
    """Integer rows of 1 + p^depth * X with X random, determinant repaired
    to 1 mod the component's modulus; the identity rows when depth is e.

    det is affine in the (0, 0) entry with unit cofactor, so a single
    correction lands the determinant on 1 without leaving the kernel shape.
    The n^2 draws of X are row-major _below(span) draws, inlined.  For n = 4
    the determinant (Laplace along rows 0-1, as in matrices._det_int) and the
    (0, 0) cofactor share the six 2x2 minors c_k of rows 2-3.
    """
    n, mod, p, e = c.n, c.ring.modulus, c.place.p, c.e
    if e == depth:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    step = p**depth
    span = p ** (e - depth)
    bits = rng.getrandbits
    k = span.bit_length()
    flat = []
    for _ in range(n * n):
        r = bits(k)
        while r >= span:
            r = bits(k)
        flat.append(step * r)
    if n == 4:
        a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = flat
        a00, a11, a22, a33 = a00 + 1, a11 + 1, a22 + 1, a33 + 1
        c0 = a20 * a31 - a30 * a21
        c1 = a20 * a32 - a30 * a22
        c2 = a20 * a33 - a30 * a23
        c3 = a21 * a32 - a31 * a22
        c4 = a21 * a33 - a31 * a23
        c5 = a22 * a33 - a32 * a23
        cof = a11 * c5 - a12 * c4 + a13 * c3
        det = (
            (a00 * a11 - a10 * a01) * c5
            - (a00 * a12 - a10 * a02) * c4
            + (a00 * a13 - a10 * a03) * c3
            + (a01 * a12 - a11 * a02) * c2
            - (a01 * a13 - a11 * a03) * c1
            + (a02 * a13 - a12 * a03) * c0
        ) % mod
        if det != 1:
            a00 = (a00 + (1 - det) * pow(cof, -1, mod)) % mod
        return [
            [a00, a01, a02, a03],
            [a10, a11, a12, a13],
            [a20, a21, a22, a23],
            [a30, a31, a32, a33],
        ]
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    for i in range(n):
        rows[i][i] += 1
    det = _det_int(rows) % mod
    if det != 1:
        cof = _det_int(_minor(rows, 0, 0)) % mod
        rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    return rows


def central_element(q: FiniteQuotientGroup, place: PrimePlace, m: int) -> tuple[SLMat, ...]:
    """The canonical order-m central scalar at one place, identity elsewhere.

    Materializing it requires m to divide gcd(n, p - 1); asymmetric
    membership of this element between two quotients is the centre
    obstruction.  A CentralPrincipal component of order m already holds
    the unit.
    """
    idx = q.place_index(place)
    out = list(q.identity())
    cond, c = q.conditions[idx], q.components[idx]
    if isinstance(cond, CentralPrincipal) and cond.order == m:
        out[idx] = scalar_mul(c.unit, c.identity)
    else:
        out[idx] = central_scalar(q.n, q.rings[idx], m)
    return tuple(out)


def central_presence(q: FiniteQuotientGroup, place: PrimePlace, m: int) -> bool:
    """Whether the order-m central element at one place (identity elsewhere)
    belongs to the quotient; the asymmetry of this predicate between a pair
    of quotients is the computable centre obstruction."""
    return q.member(central_element(q, place, m))


def tuple_mul(x, y):
    return tuple(map(mat_mul, x, y))


def closure(generators, ident, limit: int):
    """Breadth-first closure of a generator set inside a finite group.

    Returns the full element set, or None once it exceeds `limit`; the
    oracle side of every order-formula check.
    """
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple_mul(x, g)
                if y not in seen:
                    if len(seen) >= limit:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def enumerate_quotient(q: FiniteQuotientGroup, limit: int = 10**5):
    """All elements of a small quotient by closure over its generators."""
    return closure(q.generators(), q.identity(), limit)
