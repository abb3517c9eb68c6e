"""Preset constructions of quotient pairs with twists and obstruction data.

Each preset builds two congruence-subgroup specifications whose finite-level
quotients are isomorphic via an explicit twist, together with the computable
certificate that blocks every twist class from carrying one specification to
the other:

  method A    the order-m central condition sits at different places; the
              central-presence matrix is asymmetric
  method B    the parabolic conditions at one place differ by the diagram
              symmetry; unequal fixed-line counts certify non-conjugacy
  method C    over a real quadratic ring, the constrained split place over p
              differs; ring conjugation moves the shared place over q
  s16         method A at (n, p, q, order, level) = (2, 3, 5, 2, 1), phrased
              for matrices with entries integral away from a prime p

Non-isomorphism of the underlying subgroups is not machine-verified here:
the reports label it as certified by superrigidity theory given the emitted
finite certificates, and the narrative strings record that reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .matrices import SLMat, elementary
from .parabolics import ParabolicSpec, fixed_lines, parabolic_order, root_subset
from .quotients import (
    CentralPrincipal,
    FiniteQuotientGroup,
    Parabolic,
    Principal,
    SubgroupSpec,
    central_element,
    central_presence,
    subgroup_spec,
)
from .rings import PrimePlace, conj_place, is_prime, is_squarefree, rational_place, split_places
from .twists import CentralTransport, GraphAutomorphism, PlaceSwap, QuotientIso


@dataclass
class ObstructionReport:
    """Certificate data for one bundle; every value is recomputed on demand."""

    kind: str
    data: dict
    holds: bool
    narrative: tuple[str, ...]


@dataclass
class WitnessBundle:
    """One constructed pair: specifications, quotients, twist, certificate."""

    method: str
    params: dict
    n: int
    d: int | None
    places: tuple[PrimePlace, ...]
    level: tuple
    spec1: SubgroupSpec
    spec2: SubgroupSpec
    quotient1: FiniteQuotientGroup
    quotient2: FiniteQuotientGroup
    iso: QuotientIso
    separating_element: tuple[SLMat, ...]
    obstruction: ObstructionReport


# CLI name -> help text.  A preset's builder is <name>_pair (see builder); its
# keyword parameters are the preset's flags, defaults, config echo and params.
PRESETS = {
    "method-a": "central scalar asymmetry in SL_n",
    "method-b": "diagram-symmetric parabolic pair in SL_4",
    "method-c": "split-place swap over Z[sqrt(d)]",
    "s16": "2x2 central pair at the primes 3 and 5",
}

# The twist type each preset method is witnessed by.
TWIST_OF_METHOD = {
    "A": CentralTransport,
    "S16": CentralTransport,
    "B": GraphAutomorphism,
    "C": PlaceSwap,
}

_NARRATIVE_SHARED = (
    "An abstract isomorphism of the two subgroups would extend to an automorphism "
    "of the ambient product composed with a base-ring automorphism (superrigidity "
    "for arithmetic groups of rank at least two), hence would carry the factor at "
    "each place onto the factor at a single place.",
    "Automorphisms of the split group at one place factor into inner, diagonal, "
    "graph and field parts; the certificate below is invariant under all of them, "
    "so its asymmetry between the two quotients blocks every candidate map.",
    "Non-isomorphism of the subgroups is therefore certified by that theory given "
    "the finite certificate; the certificate itself is recomputed and "
    "machine-checked, the completion step is not.",
)


def method_a_pair(
    n: int = 4, p: int = 5, q: int = 7, order: int = 2, level: int = 2
) -> WitnessBundle:
    """Central-asymmetry pair in SL_n over Z.

    Both specifications contain the principal level-pq subgroup; one adjoins
    the central scalar of the given order at p, the other at q, and `level`
    is the exponent at both places.  The transport twist moves the central
    factor between the places, and central presence at a fixed place
    separates the two quotients.
    """
    _need_prime(p), _need_prime(q)
    if p == q:
        raise InputError("p and q must be distinct")
    if 2 in (p, q):
        raise InputError("p = 2 is out of scope")
    if order < 2:
        raise InputError("the central order m must be at least 2")
    for r in (p, q):
        if n % order != 0 or (r - 1) % order != 0:
            raise InputError(
                f"m={order} does not divide gcd(n, p-1)=gcd({n}, {r - 1}); central elements "
                f"of the same order must exist at both places"
            )
    if level < 1:
        raise InputError("level must be >= 1")
    params = {"n": n, "p": p, "q": q, "order": order, "level": level}
    return _central_pair("A", params, n, p, q, order, level)


def s16_pair(p: int = 7) -> WitnessBundle:
    """The 2x2 pair at the primes 3 and 5: entries a, d congruent to a common
    sign mod 3 and to 1 mod 5 on one side, mirrored on the other.

    This is method A at (n, p, q, order, level) = (2, 3, 5, 2, 1).  The
    parameter p only names the ring of matrices with entries integral away
    from p; every level used here is coprime to p, so p enters the record
    but not the computation.
    """
    _need_prime(p)
    if p in (2, 3, 5):
        raise InputError("p must avoid 2, 3 and 5")
    return _central_pair("S16", {"p": p}, 2, 3, 5, 2, 1)


def _central_pair(method, params, n, p, q, m, e) -> WitnessBundle:
    vp, vq = rational_place(p), rational_place(q)
    spec1 = subgroup_spec(n, {vp: CentralPrincipal(m, 1), vq: Principal(1)})
    spec2 = subgroup_spec(n, {vp: Principal(1), vq: CentralPrincipal(m, 1)})
    level = {vp: e, vq: e}
    q1, q2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = CentralTransport(q1, q2, vp, vq, m)
    sep = central_element(q1, vp, m)
    return _bundle(method, params, (vp, vq), spec1, spec2, iso, sep)


def method_b_pair(p: int = 5, q: int = 7) -> WitnessBundle:
    """Parabolic pair in SL_4 over Z: pullbacks of the (1,3) block parabolic
    at both p and q versus the same at p and its diagram image (3,1) at q,
    rigidified by the principal level-3 condition.

    The twist applies the diagram symmetry at the place q; the fixed-line
    counts certify that the two parabolic conditions are not conjugate.
    """
    _need_prime(p), _need_prime(q)
    if p == q:
        raise InputError("p and q must be distinct")
    if p in (2, 3) or q in (2, 3):
        raise InputError("p and q must avoid 2 and 3")
    n = 4
    theta = root_subset(n, {2, 3})
    theta_image = theta.symmetric_image()
    if theta == theta_image:
        raise InputError("the root subset must move under the diagram symmetry")
    vp, vq, v3 = rational_place(p), rational_place(q), rational_place(3)
    spec1 = subgroup_spec(n, {vp: Parabolic(theta), vq: Parabolic(theta), v3: Principal(1)})
    spec2 = subgroup_spec(n, {vp: Parabolic(theta), vq: Parabolic(theta_image), v3: Principal(1)})
    level = {vp: 1, vq: 1, v3: 1}
    q1, q2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = GraphAutomorphism(q1, q2, vq)
    sep = list(q1.identity())
    idx_q = q1.place_index(vq)
    # inside the lower 3x3 block of (1,3), below the diagonal of (3,1)
    sep[idx_q] = elementary(n, 3, 1, 1, q1.rings[idx_q])
    return _bundle("B", {"p": p, "q": q}, (vp, vq, v3), spec1, spec2, iso, sep)


def method_c_pair(d: int = 2, p: int = 7, q: int = 17) -> WitnessBundle:
    """Principal pair over Z[sqrt(d)] at split primes p and q.

    Both specifications are principal at one place over q; they differ in
    which of the two places over p carries the principal condition.  The
    twist swaps the components at the two places over p, and the ring
    conjugation certificate shows the shared place over q moves.
    """
    if d < 2 or not is_squarefree(d):
        raise InputError(f"d={d} must be squarefree and >= 2")
    _need_prime(p), _need_prime(q)
    if p == q:
        raise InputError("p and q must be distinct")
    n = 2
    p1, p2 = split_places(p, d)
    q1_place, q2_place = split_places(q, d)
    spec1 = subgroup_spec(n, {p1: Principal(1), q1_place: Principal(1)}, d=d)
    spec2 = subgroup_spec(n, {p2: Principal(1), q1_place: Principal(1)}, d=d)
    level = {p1: 1, p2: 1, q1_place: 1, q2_place: 1}
    quo1, quo2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = PlaceSwap(quo1, quo2, p1, p2)
    sep = list(quo1.identity())
    idx_p2 = quo1.place_index(p2)
    sep[idx_p2] = elementary(n, 0, 1, 1, quo1.rings[idx_p2])
    places = (p1, p2, q1_place, q2_place)
    return _bundle("C", {"d": d, "p": p, "q": q}, places, spec1, spec2, iso, sep)


def builder(name: str):
    """A preset's builder, looked up on each call: tracing swaps it at run time."""
    return globals()[name.replace("-", "_") + "_pair"]


def _bundle(method, params, places, spec1, spec2, iso, sep) -> WitnessBundle:
    """Assemble a bundle around its twist and attach the recomputed certificate."""
    bundle = WitnessBundle(
        method=method,
        params=params,
        n=spec1.n,
        d=spec1.d,
        places=places,
        level=iso.source.level,
        spec1=spec1,
        spec2=spec2,
        quotient1=iso.source,
        quotient2=iso.target,
        iso=iso,
        separating_element=tuple(sep),
        obstruction=None,
    )
    bundle.obstruction = obstruction_report(bundle)
    return bundle


def _need_prime(p: int):
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# obstruction certificates


def obstruction_report(bundle: WitnessBundle) -> ObstructionReport:
    """Recompute the method's certificate from scratch.

    Nothing is read back from caches: presence bits, fixed-line counts and
    conjugation tables are evaluated directly against the bundle's
    specifications.
    """
    if isinstance(bundle.iso, CentralTransport):
        return _central_obstruction(bundle)
    if isinstance(bundle.iso, GraphAutomorphism):
        return _parabolic_obstruction(bundle)
    return _galois_obstruction(bundle)


def _separation(bundle) -> dict:
    return {
        "quotient1": bundle.quotient1.member(bundle.separating_element),
        "quotient2": bundle.quotient2.member(bundle.separating_element),
    }


def _central_obstruction(bundle) -> ObstructionReport:
    m = bundle.iso.scalar_order
    vp, vq = bundle.iso.from_place, bundle.iso.to_place
    presence = {
        "quotient1": {
            vp.label: central_presence(bundle.quotient1, vp, m),
            vq.label: central_presence(bundle.quotient1, vq, m),
        },
        "quotient2": {
            vp.label: central_presence(bundle.quotient2, vp, m),
            vq.label: central_presence(bundle.quotient2, vq, m),
        },
    }
    separation = _separation(bundle)
    holds = (
        presence["quotient1"][vp.label]
        and not presence["quotient2"][vp.label]
        and not presence["quotient1"][vq.label]
        and presence["quotient2"][vq.label]
        and separation["quotient1"]
        and not separation["quotient2"]
    )
    narrative = (
        f"Quotient 1 contains the order-{m} central scalar at place {vp.label} and "
        f"quotient 2 does not; the roles are reversed at {vq.label}.  Central "
        "presence at a fixed place is preserved by inner, diagonal and graph "
        "twists, and a field twist cannot move a place over one rational prime "
        "to a place over another.",
    ) + _NARRATIVE_SHARED
    return ObstructionReport(
        kind="central_presence",
        data={"scalar_order": m, "central_presence": presence, "separating_element_in": separation},
        holds=bool(holds),
        narrative=narrative,
    )


def _parabolic_obstruction(bundle) -> ObstructionReport:
    vq = bundle.iso.place
    conds = (bundle.spec1.condition_at(vq), bundle.spec2.condition_at(vq))
    if any(not isinstance(cond, Parabolic) for cond in conds):
        raise InputError(f"the graph automorphism at {vq.label} needs parabolic conditions there")
    theta, theta_image = (cond.theta for cond in conds)
    symmetric = theta.symmetric_image() == theta
    image_matches = theta.symmetric_image() == theta_image
    parabolic_places = [
        place for place, cond in bundle.spec1.conditions if isinstance(cond, Parabolic)
    ]
    lines = {}
    orders = {}
    for place in parabolic_places:
        spec_a = ParabolicSpec(bundle.n, place.p, theta)
        spec_b = ParabolicSpec(bundle.n, place.p, theta_image)
        lines[place.label] = {"theta": fixed_lines(spec_a), "theta_image": fixed_lines(spec_b)}
        orders[place.label] = {
            "theta": parabolic_order(spec_a),
            "theta_image": parabolic_order(spec_b),
        }
    # The twist acts at vq alone, and a global automorphism acts alike at
    # every place: the specs must agree away from vq, and another place must
    # keep spec 1's Parabolic(theta) in both, so no graph twist can fix it.
    spec1, spec2 = bundle.spec1, bundle.spec2
    others = {place for place, _ in spec1.conditions + spec2.conditions} - {vq}
    agree_elsewhere = all(spec1.condition_at(v) == spec2.condition_at(v) for v in others)
    anchored = any(v != vq and cond == conds[0] for v, cond in spec1.conditions)
    separation = _separation(bundle)
    holds = (
        not symmetric
        and image_matches
        and agree_elsewhere
        and anchored
        and all(v["theta"] != v["theta_image"] for v in lines.values())
        and all(v["theta"] == v["theta_image"] for v in orders.values())
        and separation["quotient1"]
        and not separation["quotient2"]
    )
    narrative = (
        "The two parabolic conditions at the twisted place differ by the diagram "
        "symmetry, and the symmetry moves the chosen root subset.  The number of "
        "projective lines fixed by a subgroup is a conjugation invariant; the "
        "unequal counts certify that no inner twist identifies the two conditions, "
        "while the diagram symmetry itself exchanges them.",
    ) + _NARRATIVE_SHARED
    return ObstructionReport(
        kind="parabolic_fixed_lines",
        data={
            "theta": sorted(theta.members),
            "theta_image": sorted(theta_image.members),
            "theta_symmetric": symmetric,
            "fixed_lines": lines,
            "parabolic_orders": orders,
            "separating_element_in": separation,
        },
        holds=bool(holds),
        narrative=narrative,
    )


def _galois_obstruction(bundle) -> ObstructionReport:
    places = bundle.places
    image = {place: conj_place(place, places) for place in places}
    # a conjugate outside the bundle has no label there, and shows as null
    table = {v.label: w.label if w in places else None for v, w in image.items()}
    involution = all(conj_place(w, places) == v for v, w in image.items())
    swap_a, swap_b = bundle.iso.from_place, bundle.iso.to_place
    shared = [
        place
        for place, cond in bundle.spec1.conditions
        if place not in (swap_a, swap_b) and bundle.spec2.condition_at(place) == cond
    ]
    shared_moved = all(conj_place(place, places) != place for place in shared)
    swap_matches = conj_place(swap_a, places) == swap_b
    separation = _separation(bundle)
    holds = (
        involution
        and swap_matches
        and shared_moved
        and bool(shared)
        and separation["quotient1"]
        and not separation["quotient2"]
    )
    narrative = (
        "The only nontrivial automorphism of the quadratic ring is the "
        "conjugation sending sqrt(d) to -sqrt(d); it exchanges the two places "
        "over each split prime.  It does swap the two places over p, matching "
        "the twist, but it also moves the shared constrained place over q, so "
        "no field twist fixes one specification while relabeling the other; "
        "place-preserving twists cannot change the support at all.",
    ) + _NARRATIVE_SHARED
    return ObstructionReport(
        kind="galois_orbit",
        data={
            "conjugation": table,
            "involution": involution,
            "swap_pair_matches_conjugation": swap_matches,
            "shared_places": [place.label for place in shared],
            "shared_places_moved": shared_moved,
            "separating_element_in": separation,
        },
        holds=bool(holds),
        narrative=narrative,
    )
