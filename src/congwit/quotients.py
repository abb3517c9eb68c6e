"""Congruence subgroups by local conditions and their finite-level quotients.

A SubgroupSpec records, for finitely many places, one local condition each:

  full                   no constraint at the place
  principal(e)           g = 1 mod p^e
  central_principal(m,e) g = zeta * 1 mod p^e for zeta in the canonical
                         central subgroup of order m
  parabolic(theta)       g mod p lies in the standard parabolic P_theta

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

import random
from dataclasses import dataclass

from .errors import InputError
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
    reduce_mat,
    sl_order,
)
from .parabolics import (
    ParabolicSpec,
    RootSubset,
    parabolic_generators,
    parabolic_membership,
    parabolic_order,
)
from .rings import (
    KIND_INERT,
    KIND_RAMIFIED,
    PrimePlace,
    factorize,
    single_place_ring,
    unit_of_order,
)

FULL = "full"
PRINCIPAL = "principal"
CENTRAL_PRINCIPAL = "central_principal"
PARABOLIC = "parabolic"

# Cap on random-word length in the samplers.  Full components use up to 32
# elementary factors; parabolic words are kept shorter because their
# generator sets are large and coverage, not uniformity, is what the
# verification needs.
FULL_WORD_MAX = 32
PARABOLIC_WORD_MAX = 12


@dataclass(frozen=True)
class LocalCondition:
    """One local membership condition; see the module docstring."""

    kind: str
    order: int = 1
    depth: int = 1
    theta: RootSubset | None = None

    def __post_init__(self):
        if self.kind not in (FULL, PRINCIPAL, CENTRAL_PRINCIPAL, PARABOLIC):
            raise InputError(f"unknown condition kind {self.kind!r}")
        if self.depth < 1 or self.order < 1:
            raise InputError("depth and order must be >= 1")
        if self.kind == PARABOLIC and self.theta is None:
            raise InputError("parabolic conditions need a root subset")
        if self.kind != PARABOLIC and self.theta is not None:
            raise InputError("only parabolic conditions carry a root subset")
        if self.kind != CENTRAL_PRINCIPAL and self.order != 1:
            raise InputError("only central conditions carry a scalar order")


def full_condition() -> LocalCondition:
    return LocalCondition(FULL)


def principal(depth: int) -> LocalCondition:
    return LocalCondition(PRINCIPAL, depth=depth)


def central_principal(order: int, depth: int) -> LocalCondition:
    # order 1 is the plain principal condition
    if order == 1:
        return principal(depth)
    return LocalCondition(CENTRAL_PRINCIPAL, order=order, depth=depth)


def parabolic_pullback(theta: RootSubset) -> LocalCondition:
    return LocalCondition(PARABOLIC, theta=theta)


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
        for p in places:
            if p.kind in (KIND_INERT, KIND_RAMIFIED):
                raise InputError(f"no conditions at {p.kind} places (out of scope)")
        keys = [p.sort_key for p in places]
        if keys != sorted(keys):
            raise InputError("conditions must be sorted by place")

    def condition_at(self, place: PrimePlace) -> LocalCondition:
        for p, c in self.conditions:
            if p == place:
                return c
        return full_condition()


def subgroup_spec(n: int, conditions: dict, d: int | None = None) -> SubgroupSpec:
    """Build a SubgroupSpec from a place -> condition mapping."""
    items = sorted(conditions.items(), key=lambda pc: pc[0].sort_key)
    return SubgroupSpec(n, d, tuple(items))


@dataclass(frozen=True)
class CentralElementSpec:
    """The canonical order-m central scalar at one place, identity elsewhere.

    Materializing it requires m to divide gcd(n, p - 1); asymmetric
    membership of this element between two quotients is the centre
    obstruction.
    """

    place: PrimePlace
    order: int

    def element_of(self, q: "FiniteQuotientGroup"):
        idx = q.place_index(self.place)
        out = list(q.identity())
        out[idx] = central_scalar(q.n, q.rings[idx], self.order)
        return tuple(out)


class FiniteQuotientGroup:
    """The finite-level image of a SubgroupSpec.

    Elements are tuples of SLMat, one per place of the level in canonical
    place order.  Construction validates that the level covers every
    condition at at least its depth; membership, order, sampling and
    generators all follow from the local conditions.
    """

    def __init__(self, spec: SubgroupSpec, level):
        items = sorted(dict(level).items(), key=lambda pe: pe[0].sort_key)
        if not items:
            raise InputError("a quotient needs at least one place in its level")
        level_places = {p for p, _ in items}
        for place, cond in spec.conditions:
            if place not in level_places:
                raise InputError(f"level does not cover the condition at {place.label}")
            depth = cond.depth if cond.kind != PARABOLIC else 1
            if dict(items)[place] < depth:
                raise InputError(
                    f"level exponent at {place.label} is below the condition depth {depth}"
                )
        self.spec = spec
        self.level = tuple(items)
        self.places = tuple(p for p, _ in items)
        self.rings = tuple(single_place_ring(p, e, spec.d) for p, e in items)
        self.conditions = tuple(spec.condition_at(p) for p in self.places)
        self._parabolic = {}
        # canonical order-m unit of each central-principal component
        self._central_unit = {}
        for idx, ((place, e), cond) in enumerate(zip(self.level, self.conditions)):
            if cond.kind == CENTRAL_PRINCIPAL:
                m = cond.order
                if spec.n % m != 0 or (place.p - 1) % m != 0:
                    raise InputError(
                        f"central order {m} does not divide gcd(n, p-1) at {place.label}; "
                        "central elements of that order do not exist there"
                    )
                self._central_unit[idx] = unit_of_order(m, place.p, e)
            if cond.kind == PARABOLIC:
                self._parabolic[idx] = (
                    ParabolicSpec(spec.n, place.p, cond.theta),
                    single_place_ring(place, 1, spec.d),
                )
        self._par_gens: dict[str, list[SLMat]] = {}
        self._par_ops: dict[str, list[tuple]] = {}
        self._gens: list[tuple[SLMat, ...]] | None = None
        self._order: int | None = None
        self._identity: tuple[SLMat, ...] | None = None
        # the identity's entries, row-major, for the principal predicates
        self._flat_identity = [int(i == j) for i in range(spec.n) for j in range(spec.n)]

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
            self._identity = tuple(identity(self.n, r) for r in self.rings)
        return self._identity

    # -- membership ------------------------------------------------------

    def member(self, g) -> bool:
        """Exact evaluation of the local predicates.

        Shape or ring mismatches yield False rather than an error, so that
        ill-formed images of broken twist maps are refuted as data.
        """
        if len(g) != len(self.places):
            return False
        for idx, (comp, ring, cond, place) in enumerate(
            zip(g, self.rings, self.conditions, self.places)
        ):
            if not isinstance(comp, SLMat) or comp.n != self.n:
                return False
            if comp.ring is not ring and comp.ring != ring:  # rings are interned
                return False
            if not self._local_member(idx, comp, cond, place):
                return False
        return True

    def _local_member(self, idx, comp, cond, place) -> bool:
        if cond.kind == FULL:
            return True
        p = place.p
        if cond.kind == PARABOLIC:
            pspec, level1 = self._parabolic[idx]
            return parabolic_membership(reduce_mat(comp, level1), pspec)
        mod = p**cond.depth
        flat = [x % mod for row in comp.entries for x in row]
        if cond.kind == PRINCIPAL:
            return flat == self._flat_identity
        # central_principal: scalar mod p^depth with an m-torsion unit
        z = flat[0]
        if pow(z, cond.order, mod) != 1:
            return False
        return flat == [z * v for v in self._flat_identity]

    # -- order -----------------------------------------------------------

    @property
    def order(self) -> int:
        """Exact order from the local counting formulas."""
        if self._order is None:
            total = 1
            for (place, e), cond in zip(self.level, self.conditions):
                total *= self._local_order(place, e, cond)
            self._order = total
        return self._order

    def _local_order(self, place, e, cond) -> int:
        n, p = self.n, place.p
        if cond.kind == FULL:
            return sl_order(n, p, e)
        if cond.kind == PARABOLIC:
            return parabolic_order(ParabolicSpec(n, p, cond.theta)) * p ** (
                (n * n - 1) * (e - 1)
            )
        kernel = p ** ((n * n - 1) * (e - cond.depth))
        return kernel * cond.order

    # -- sampling ---------------------------------------------------------

    def sample(self, seed: int) -> tuple[SLMat, ...]:
        """A member of the quotient, deterministic in the seed.

        The distribution is not uniform; verification only needs members
        that range over the predicate domain.  Every draw is a rejection
        sample on Random(seed).getrandbits(n.bit_length()) (see _below), so
        the members depend only on getrandbits and not on the private
        algorithm behind random.randrange.
        """
        rng = random.Random(seed)
        return tuple(
            self._local_sample(rng, idx, ring, cond, place, e)
            for idx, (ring, cond, (place, e)) in enumerate(
                zip(self.rings, self.conditions, self.level)
            )
        )

    def _local_sample(self, rng, idx, ring, cond, place, e):
        n = self.n
        if cond.kind == FULL:
            return _random_elementary_word(rng, n, ring, FULL_WORD_MAX)
        if cond.kind == PARABOLIC:
            out = _random_word(rng, self._parabolic_sampler_ops(place, ring, cond), n, ring)
            if e > 1:
                out = mat_mul(out, from_rows(_principal_rows(rng, n, ring, 1), ring))
            return out
        if cond.kind == PRINCIPAL:
            if cond.depth == e:
                return self.identity()[idx]
            return from_rows(_principal_rows(rng, n, ring, cond.depth), ring)
        # central_principal: z^n = 1, so scaling keeps the determinant at 1
        z = self._central_unit[idx]
        k = _below(rng.getrandbits, cond.order)
        rows = _principal_rows(rng, n, ring, cond.depth)
        scalar = pow(z, k, ring.modulus)
        return from_rows([[v * scalar for v in row] for row in rows], ring)

    def _parabolic_sampler_gens(self, place, ring, cond):
        key = place.label
        if key not in self._par_gens:
            gens = parabolic_generators(ParabolicSpec(self.n, place.p, cond.theta), ring)
            self._par_gens[key] = gens + [mat_inv(g) for g in gens]
        return self._par_gens[key]

    def _parabolic_sampler_ops(self, place, ring, cond):
        """The sampler generators as column operations (see _column_ops)."""
        key = place.label
        if key not in self._par_ops:
            gens = self._parabolic_sampler_gens(place, ring, cond)
            self._par_ops[key] = [_column_ops(g) for g in gens]
        return self._par_ops[key]

    # -- generators --------------------------------------------------------

    def generators(self) -> list[tuple[SLMat, ...]]:
        """Tuples that generate the quotient: per place, local generators
        padded with the identity elsewhere."""
        if self._gens is None:
            gens = []
            ident = self.identity()
            for idx, (ring, cond, (place, e)) in enumerate(
                zip(self.rings, self.conditions, self.level)
            ):
                for local in self._local_generators(idx, ring, cond, place, e):
                    g = list(ident)
                    g[idx] = local
                    gens.append(tuple(g))
            self._gens = gens
        return self._gens

    def _local_generators(self, idx, ring, cond, place, e):
        n = self.n
        if cond.kind == FULL:
            return [
                elementary(n, i, j, 1, ring) for i in range(n) for j in range(n) if i != j
            ]
        if cond.kind == PARABOLIC:
            gens = parabolic_generators(ParabolicSpec(n, place.p, cond.theta), ring)
            if e > 1:
                gens = gens + _principal_generators(n, ring, place.p, 1, e)
            return gens
        if cond.kind == PRINCIPAL:
            return _principal_generators(n, ring, place.p, cond.depth, e)
        z = self._central_unit[idx]
        scalar = from_rows(
            [[z if i == j else 0 for j in range(n)] for i in range(n)], ring
        )
        return _principal_generators(n, ring, place.p, cond.depth, e) + [scalar]


def _principal_generators(n, ring, p, depth, e):
    """Generators of the level-depth principal kernel inside SL_n(Z/p^e).

    Off-diagonal one-parameter pieces 1 + p^depth * E_ij together with the
    adjacent diagonal pieces diag(u, u^(-1)) for u = 1 + p^depth; closure
    enumeration against the order formula backs this up in the small cases.
    """
    if e == depth:
        return []
    mod = ring.modulus
    step = p**depth
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
    m = n - 1
    kn, km, kt = n.bit_length(), m.bit_length(), mod.bit_length()
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

    `ops` holds each generator's _column_ops.  The word is kept as a list of
    reduced columns starting from the identity; each factor recomputes only
    the columns its generator moves, all from the columns before it, which
    gives exactly the reduced dense product.  Columns built from one or two
    others take the short forms.  The draws are _below(PARABOLIC_WORD_MAX)
    for the length, then _below(len(ops)) per factor, and the result is
    certified by from_rows.
    """
    mod = ring.modulus
    bits = rng.getrandbits
    count = len(ops)
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for _ in range(1 + _below(bits, PARABOLIC_WORD_MAX)):
        new = []
        for c, terms in ops[_below(bits, count)]:
            if len(terms) == 1:
                ((k, a),) = terms
                new.append((c, [a * x % mod for x in cols[k]]))
            elif len(terms) == 2:
                (k, a), (l, b) = terms
                new.append((c, [(a * x + b * y) % mod for x, y in zip(cols[k], cols[l])]))
            else:
                new.append((c, [sum(a * cols[k][r] for k, a in terms) % mod for r in range(n)]))
        for c, col in new:
            cols[c] = col
    return from_rows(zip(*cols), ring)


def _principal_rows(rng, n, ring, depth):
    """Integer rows of 1 + p^depth * X with X random, determinant repaired
    to 1 mod the ring's modulus; the identity rows when depth is the level.

    det is affine in the (0, 0) entry with unit cofactor, so a single
    correction lands the determinant on 1 without leaving the kernel shape.
    """
    mod = ring.modulus
    p = ring.factors[0].place.p
    e = ring.factors[0].exponent
    if e == depth:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    step = p**depth
    span = p ** (e - depth)
    bits = rng.getrandbits
    rows = [
        [(1 if i == j else 0) + step * _below(bits, span) for j in range(n)]
        for i in range(n)
    ]
    det = _det_int(rows) % mod
    if det != 1:
        cof = _det_int(_minor(rows, 0, 0)) % mod
        rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    return rows


def central_presence(q: FiniteQuotientGroup, place: PrimePlace, m: int) -> bool:
    """Whether the order-m central element at one place (identity elsewhere)
    belongs to the quotient; the asymmetry of this predicate between a pair
    of quotients is the computable centre obstruction."""
    return q.member(CentralElementSpec(place, m).element_of(q))


def tuple_mul(x, y):
    return tuple(mat_mul(a, b) for a, b in zip(x, y))


def tuple_inv(x):
    return tuple(mat_inv(a) for a in x)


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


def sl2_word_image_order(m: int, limit: int = 10**5) -> int:
    """Order of the subgroup of SL_2(Z/m) generated by the images of the two
    standard integral generators [[0,-1],[1,0]] and [[1,1],[0,1]].

    Equality with |SL_2(Z/m)| witnesses that reduction from the integral
    group onto the finite quotient is surjective, which is the evidence for
    defining quotients by local conditions alone.
    """
    rings = [
        single_place_ring(PrimePlace(p, "rational", None, f"p{p}"), e)
        for p, e in sorted(factorize(m).items())
    ]
    s = [from_rows([[0, -1], [1, 0]], r) for r in rings]
    t = [from_rows([[1, 1], [0, 1]], r) for r in rings]
    ident = tuple(identity(2, r) for r in rings)
    out = closure([tuple(s), tuple(t)], ident, limit)
    if out is None:
        raise InputError(f"SL_2(Z/{m}) closure exceeded {limit}")
    return len(out)
