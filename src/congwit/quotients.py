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
members (with a documented, non-uniform distribution).  A sample reads one
integer from shake_128 of its seed and takes every draw as the next digit
of that integer in mixed radix (see FiniteQuotientGroup.sample), so sample
i is a pure function of its seed and holds no generator state.  Where a
quotient is small enough to enumerate, breadth-first closure over its
generators is the independent oracle for the order formulas.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import asdict, dataclass, fields

from .errors import InputError, json_int, json_int_list
from .kernels import Kernels, emit_principal, emit_scalar, word_kernel
from .matrices import (
    SLMat,
    _det_int,
    elementary,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    scalar_mul,
    sl_order,
    torus,
)
from .parabolics import (
    RootSubset,
    parabolic_generators,
    parabolic_membership,
    parabolic_order,
    root_subset,
)
from .rings import PrimePlace, ResidueRing, residue_ring, unit_of_order

# Caps on word length in the samplers (see WordCondition): 32 elementary
# factors for Full, fewer for Parabolic, whose generator sets are large,
# since coverage, not uniformity, is what the verification needs.
FULL_WORD_MAX = 32
PARABOLIC_WORD_MAX = 12


class Component:
    """A quotient's component at one place: its level exponent, ring and
    identity, and whatever its condition's setup adds for that condition's
    own methods."""

    def __init__(self, n: int, place: PrimePlace, ring: ResidueRing):
        self.n, self.place, self.e, self.ring = n, place, ring.e, ring
        # one object per (n, ring), shared by every quotient over the ring
        self.identity = identity(n, ring)


class LocalCondition:
    """One local membership condition; one frozen dataclass per kind.

    A subclass names its `kind` and the least level exponent `depth` it
    needs at its place.  A quotient calls setup(component) once per
    component, then passes that component to member, local_order, sample,
    draw_space and generators; setup keeps there what they read, such as
    the principal kernel's step and span (see _principal_setup).  Two bases
    hold what kinds share: WordCondition for Full and Parabolic, and
    PrincipalCondition for Principal and CentralPrincipal.  sample(c, r)
    takes its draws as digits of the integer r (see FiniteQuotientGroup.sample)
    and returns the member with what is left of r; draw_space(c) is the
    product of the radices on its longest draw sequence.  The JSON form is
    the kind plus the fields, read back by CONDITION_OF_KIND[kind].from_json(doc, n).
    """

    def to_json(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_json(cls, doc: dict, n: int) -> LocalCondition:
        return cls(*(json_int(doc, f.name) for f in fields(cls)))


class WordCondition(LocalCondition):
    """A condition sampled as a word of 1 to max_len generators of table(c)."""

    def setup(self, c):
        c.word = None

    def sampler_ops(self, c) -> tuple:
        """table(c) and c.word, its word kernel (see word_kernel), built at the
        first sample and shared by every component with an equal table."""
        if c.word is None:
            c.ops = self.table(c)
            c.word = word_kernel(c.n, c.ops, c.ring.modulus, self.max_len)
        return c.ops

    def sample(self, c, r) -> tuple[SLMat, int]:
        if c.word is None:
            self.sampler_ops(c)
        rows, r = c.word(r)
        return from_rows(rows, c.ring), r  # certifies the word


@dataclass(frozen=True)
class Full(WordCondition):
    """No constraint: the component ranges over SL_n(Z/p^e), sampled as words
    of factors 1 + t*E_ij.  Table entry i + n*j', j' being j with i skipped,
    is drawn with t as one digit i + n*(j' + (n - 1)*t) (see emit_word)."""

    kind = "full"
    depth = 1
    max_len = FULL_WORD_MAX

    def member(self, c, g) -> bool:
        return True

    def local_order(self, c) -> int:
        return sl_order(c.n, c.place.p, c.e)

    def table(self, c) -> tuple:
        pairs = [(i, jp + (jp >= i)) for jp in range(c.n - 1) for i in range(c.n)]
        return tuple(((j, ((i, None), (j, 1))),) for i, j in pairs)

    def draw_space(self, c) -> int:
        return FULL_WORD_MAX * (c.n * (c.n - 1) * c.ring.modulus) ** FULL_WORD_MAX

    def generators(self, c) -> list[SLMat]:
        n = c.n
        return [elementary(n, i, j, 1, c.ring) for i in range(n) for j in range(n) if i != j]


class PrincipalCondition(LocalCondition):
    """g = z * 1 mod p^depth with z^order = 1: the principal kernel times the
    canonical central subgroup of that order, which must exist at the place.
    setup keeps the subgroup as c.scalars, the powers of its canonical unit.
    The scalar kernel for n (see _SCALAR) finds z.  A sample draws k from
    range(order), then is 1 + p^depth * X, drawn, repaired to determinant 1,
    scaled by c.scalars[k] and certified by the principal kernel for n (see
    _PRINCIPAL); the identity object when depth is e and k is 0."""

    def __post_init__(self):
        if self.depth < 1 or self.order < 1:
            raise InputError("depth and order must be >= 1")

    def setup(self, c):
        m, p = self.order, c.place.p
        if c.n % m != 0 or (p - 1) % m != 0:
            raise InputError(
                f"central order {m} does not divide gcd(n, p-1) at {c.place.label}; "
                "central elements of that order do not exist there"
            )
        unit = unit_of_order(m, p, c.e)
        c.scalars = [pow(unit, k, c.ring.modulus) for k in range(m)]
        _principal_setup(c, self.depth)

    def member(self, c, g) -> bool:
        # a scalar mod p^depth with an m-torsion unit
        z = _SCALAR[c.n](g.entries, c.mod)
        return z is not None and pow(z, self.order, c.mod) == 1

    def local_order(self, c) -> int:
        return c.place.p ** ((c.n * c.n - 1) * (c.e - self.depth)) * self.order

    def sample(self, c, r) -> tuple[SLMat, int]:
        # order 1 draws nothing, and a divmod of the wide r by 1 is not free
        r, k = divmod(r, self.order) if self.order > 1 else (r, 0)
        if c.span == 1 and k == 0:
            return c.identity, r
        return _PRINCIPAL[c.n](r, c.span, c.mod, c.scalars[k], c.ring)

    def draw_space(self, c) -> int:
        return self.order * c.span ** (c.n * c.n)

    def generators(self, c) -> list[SLMat]:
        gens = _principal_generators(c.n, c.ring, self.depth)
        if self.order > 1:
            gens.append(scalar_mul(c.scalars[1], c.identity))
        return gens


@dataclass(frozen=True)
class Principal(PrincipalCondition):
    """g = 1 mod p^depth: the PrincipalCondition of order 1."""

    kind = "principal"
    order = 1
    depth: int


@dataclass(frozen=True)
class CentralPrincipal(PrincipalCondition):
    """g = z * 1 mod p^depth with z^order = 1 (see PrincipalCondition)."""

    kind = "central_principal"
    order: int
    depth: int

    @classmethod
    def from_json(cls, doc, n) -> LocalCondition:
        # order 1 is the plain principal condition
        cond = super().from_json(doc, n)
        return Principal(cond.depth) if cond.order == 1 else cond


@dataclass(frozen=True)
class Parabolic(WordCondition):
    """g mod p lies in the standard parabolic P_theta."""

    kind = "parabolic"
    depth = 1
    max_len = PARABOLIC_WORD_MAX
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
        super().setup(c)
        _principal_setup(c, 1)

    def member(self, c, g) -> bool:
        return parabolic_membership(g, self.theta)

    def local_order(self, c) -> int:
        return parabolic_order(self.theta, c.place.p) * c.place.p ** ((c.n * c.n - 1) * (c.e - 1))

    def sampler_gens(self, c) -> list[SLMat]:
        """P_theta's generators in the component's ring, then their inverses."""
        gens = parabolic_generators(self.theta, c.ring)
        return gens + [mat_inv(g) for g in gens]

    def table(self, c) -> tuple:
        """sampler_gens as column operations (see _column_ops)."""
        return tuple(_column_ops(g) for g in self.sampler_gens(c))

    def sample(self, c, r) -> tuple[SLMat, int]:
        out, r = WordCondition.sample(self, c, r)  # super() builds an object per call
        if c.e > 1:
            g, r = _PRINCIPAL[c.n](r, c.span, c.mod, 1, c.ring)
            out = mat_mul(out, g)
        return out, r

    def draw_space(self, c) -> int:
        words = PARABOLIC_WORD_MAX * len(self.sampler_ops(c)) ** PARABOLIC_WORD_MAX
        return words * c.span ** (c.n * c.n)

    def generators(self, c) -> list[SLMat]:
        # the principal kernel has no generators at level 1
        return parabolic_generators(self.theta, c.ring) + _principal_generators(c.n, c.ring, 1)


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
        self.identity = tuple(c.identity for c in self.components)

    # -- basics ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n

    def place_index(self, place: PrimePlace) -> int:
        try:
            return self.places.index(place)
        except ValueError:
            raise InputError(f"place {place.label} is not in the level") from None

    # -- membership ------------------------------------------------------

    def member(self, g) -> bool:
        """Exact evaluation of the local predicates.

        Shape or ring mismatches yield False rather than an error, so that
        ill-formed images of broken twist maps are refuted as data.  A
        component that is the identity object of its (n, ring) passes before
        any predicate runs; an equal copy is tested like any other.
        """
        if len(g) != len(self.places):
            return False
        n = self.spec.n
        for comp, cond, c in zip(g, self.conditions, self.components):
            # the identity of every subgroup
            if comp is c.identity:
                continue
            if not isinstance(comp, SLMat) or len(comp.entries) != n:
                return False
            if comp.ring is not c.ring and comp.ring != c.ring:  # rings are interned
                return False
            if not cond.member(c, comp):
                return False
        return True

    # -- order -----------------------------------------------------------

    @functools.cached_property
    def order(self) -> int:
        """Exact order from the local counting formulas."""
        return math.prod(cond.local_order(c) for cond, c in zip(self.conditions, self.components))

    # -- sampling ---------------------------------------------------------

    @functools.cached_property
    def _budget(self) -> int:
        """Bytes of shake_128 output a sample reads: each condition's draw
        space in bits, summed over the components, plus 64 bits.  Computed
        at the first sample: Parabolic.draw_space builds the word table."""
        spaces = (cond.draw_space(c) for cond, c in zip(self.conditions, self.components))
        bits = sum((space - 1).bit_length() for space in spaces)
        return (bits + 64 + 7) // 8

    def sample(self, seed: int) -> tuple[SLMat, ...]:
        """A member of the quotient, deterministic in the seed.

        The distribution is not uniform; verification only needs members
        that range over the predicate domain.  The draws are digits of one
        integer r, the shake_128 digest of str(seed) read little-endian:
        a draw from range(m) is `r, d = divmod(r, m)`, component by
        component in place order.  The digest is _budget bytes long, so
        even the longest draw sequence leaves at least 2^64 of r unread,
        and the digits are within 2^-64 in total variation of independent
        uniform draws.  A sample holds no state, so threads may share a
        quotient.
        """
        r = int.from_bytes(hashlib.shake_128(str(seed).encode()).digest(self._budget), "little")
        out = []
        for cond, c in zip(self.conditions, self.components):
            g, r = cond.sample(c, r)
            out.append(g)
        return tuple(out)

    # -- generators --------------------------------------------------------

    @functools.cached_property
    def generators(self) -> list[tuple[SLMat, ...]]:
        """Tuples that generate the quotient: per place, local generators
        padded with the identity elsewhere; computed once, like the order."""
        gens = []
        for idx, (cond, c) in enumerate(zip(self.conditions, self.components)):
            for local in cond.generators(c):
                g = list(self.identity)
                g[idx] = local
                gens.append(tuple(g))
        return gens


def _principal_generators(n, ring, depth):
    """Generators of the level-depth principal kernel inside SL_n of the ring Z/p^e.

    Off-diagonal one-parameter pieces 1 + p^depth * E_ij in row-major order,
    then the torus for u = 1 + p^depth (see matrices.torus); closure
    enumeration against the order formula backs this up in the small cases.
    """
    if ring.e == depth:
        return []
    step = ring.p**depth
    gens = [elementary(n, i, j, step, ring) for i in range(n) for j in range(n) if i != j]
    return gens + torus(n, ring, 1 + step)


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


def _principal_setup(c: Component, depth):
    """The principal kernel's parameters at `depth` (see _PRINCIPAL): its
    step, p^depth, which is also the principal predicates' modulus, and its
    span, p^(e - depth)."""
    p = c.place.p
    c.mod, c.span = p**depth, p ** (c.e - depth)


def _principal_sample(n, r, span, step, scalar, ring):
    """The principal kernel (see emit_principal) for any n: the rows of 1 +
    step * X from n^2 digits, with the (0, 0) entry repaired, then scaled,
    with from_rows' checks."""
    mod, rows = ring.modulus, []
    for i in range(n):
        rows.append([])
        for j in range(n):
            r, x = divmod(r, span)
            rows[i].append(step * x + (i == j))
    det = _det_int(rows) % mod
    if det != 1:
        cof = _det_int([row[1:] for row in rows[1:]]) % mod if n > 1 else 1
        rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    return from_rows([[scalar * v for v in row] for row in rows], ring), r


def _scalar_of(e, mod):
    """The scalar kernel (see emit_scalar) for any n: z with e = z * 1 mod
    `mod`, else None."""
    z = e[0][0] % mod
    return z if all([x % mod == z * (i == j) for i, row in enumerate(e) for j, x in enumerate(row)]) else None


# the sampler and predicate kernels by n, generated up to GENERATED_MAX_N (see kernels)
_PRINCIPAL = Kernels(emit_principal, _principal_sample, sized=True, closed=SLMat._closed)
_SCALAR = Kernels(emit_scalar, _scalar_of)


def central_element(q: FiniteQuotientGroup, place: PrimePlace, m: int) -> tuple[SLMat, ...]:
    """The canonical order-m central scalar at one place, identity elsewhere.

    The scalar is the place's canonical unit of order m, which exists only
    when m divides gcd(n, p - 1): unit_of_order refuses m < 1 and m not
    dividing p - 1, and scalar_mul refuses m not dividing n.  The presets
    and documents reach it with an m that a central condition's setup has
    checked at the place's ring.  Asymmetric membership of this element
    between two quotients is the centre obstruction.
    """
    idx = q.place_index(place)
    c = q.components[idx]
    out = list(q.identity)
    out[idx] = scalar_mul(unit_of_order(m, c.place.p, c.e), c.identity)
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
    return closure(q.generators, q.identity, limit)
