"""Preset constructions of quotient pairs with twists and obstruction data.

Each preset builds two congruence-subgroup specifications whose finite-level
quotients are isomorphic via an explicit twist, together with the computable
certificate that blocks every twist class from carrying one specification to
the other:

  method A    the order-m central condition sits at different places; the
              central-presence matrix is asymmetric
  method B    the parabolic conditions at one place differ by the diagram
              symmetry; unequal fixed-line counts separate them up to
              SL_n(F_p)-conjugacy only (a known defect: see method_b_pair)
  method C    over a real quadratic ring, the constrained split place over p
              differs; ring conjugation moves the shared place over q
  s16         the quotients of method A at (n, p, q, order, level) =
              (2, 3, 5, 2, 1), over Z[1/p] for a further prime p, where SL_2
              has rank 2 (method A itself needs n >= 3: rank n - 1 over Z)

Non-isomorphism of the underlying subgroups is not machine-verified here:
the reports label it as certified by superrigidity theory given the emitted
finite certificates, and the narrative strings record that reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .matrices import SLMat, elementary
from .parabolics import fixed_lines, parabolic_order, root_subset
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
    places: tuple[PrimePlace, ...]
    spec1: SubgroupSpec
    spec2: SubgroupSpec
    iso: QuotientIso
    separating_element: tuple[SLMat, ...]
    obstruction: ObstructionReport

    # read from spec 1 and the twist, never stored
    n = property(lambda self: self.spec1.n)
    d = property(lambda self: self.spec1.d)
    level = property(lambda self: self.iso.source.level)
    quotient1 = property(lambda self: self.iso.source)
    quotient2 = property(lambda self: self.iso.target)


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
    separates the two quotients.  The constructors it calls refuse a p or q
    that is not prime, an order not dividing gcd(n, p - 1) and gcd(n, q - 1),
    and a level below 1.
    """
    if p == q:
        raise InputError("p and q must be distinct")
    if order < 2:
        raise InputError("the central order m must be at least 2")
    params = {"n": n, "p": p, "q": q, "order": order, "level": level}
    return _central_pair("A", params, n, p, q, order, level)


def s16_pair(p: int = 7) -> WitnessBundle:
    """The 2x2 pair at the primes 3 and 5: entries a, d congruent to a common
    sign mod 3 and to 1 mod 5 on one side, mirrored on the other.

    These are the quotients of method A at (n, p, q, order, level) =
    (2, 3, 5, 2, 1), over the ring of matrices with entries integral away
    from p, where SL_2 has rank 2; over Z it has rank 1, so method A refuses
    n = 2.  Every level used here is coprime to p, so p enters the record
    and the rank but not the computation.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
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

    The twist applies the diagram symmetry at the place q.  The fixed-line
    counts show that the two parabolic conditions are not conjugate in
    SL_4(F_q), and no more: conjugation by gamma * diag(q, 1, 1, 1), for a
    gamma in SL_4(Z), carries the first subgroup onto the second, so the
    certificate's claim of non-isomorphism is false.
    """
    vp, vq, v3 = rational_place(p), rational_place(q), rational_place(3)
    if p == q:
        raise InputError("p and q must be distinct")
    if p in (2, 3) or q in (2, 3):
        raise InputError("p and q must avoid 2 and 3")
    n = 4
    theta = root_subset(n, {2, 3})
    theta_image = theta.symmetric_image()
    spec1 = subgroup_spec(n, {vp: Parabolic(theta), vq: Parabolic(theta), v3: Principal(1)})
    spec2 = subgroup_spec(n, {vp: Parabolic(theta), vq: Parabolic(theta_image), v3: Principal(1)})
    level = {vp: 1, vq: 1, v3: 1}
    q1, q2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = GraphAutomorphism(q1, q2, vq)
    sep = list(q1.identity)
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
    p1, p2 = split_places(p, d)
    q1_place, q2_place = split_places(q, d)
    if p == q:
        raise InputError("p and q must be distinct")
    n = 2
    spec1 = subgroup_spec(n, {p1: Principal(1), q1_place: Principal(1)}, d=d)
    spec2 = subgroup_spec(n, {p2: Principal(1), q1_place: Principal(1)}, d=d)
    level = {p1: 1, p2: 1, q1_place: 1, q2_place: 1}
    quo1, quo2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = PlaceSwap(quo1, quo2, p1, p2)
    sep = list(quo1.identity)
    idx_p2 = quo1.place_index(p2)
    sep[idx_p2] = elementary(n, 0, 1, 1, quo1.rings[idx_p2])
    places = (p1, p2, q1_place, q2_place)
    return _bundle("C", {"d": d, "p": p, "q": q}, places, spec1, spec2, iso, sep)


def builder(name: str):
    """A preset's builder, looked up on each call: tracing swaps it at run time."""
    return globals()[name.replace("-", "_") + "_pair"]


def _bundle(method, params, places, spec1, spec2, iso, sep) -> WitnessBundle:
    """Assemble a bundle around its twist and attach the recomputed certificate.

    The certificate rests on superrigidity, which needs rank at least 2: the
    rank of SL_n is n - 1 over Z, and 2(n - 1) over Z[sqrt(d)] or, for s16,
    over Z[1/p].
    """
    n = spec1.n
    rank = (n - 1) * (1 if spec1.d is None and method != "S16" else 2)
    if rank < 2:
        raise InputError(f"SL_{n} has rank {rank} in method {method}; the certificate needs rank >= 2")
    bundle = WitnessBundle(method, params, places, spec1, spec2, iso, tuple(sep), None)
    bundle.obstruction = obstruction_report(bundle)
    return bundle


# ---------------------------------------------------------------------------
# obstruction certificates


def obstruction_report(bundle: WitnessBundle) -> ObstructionReport:
    """Recompute the certificate of the bundle's twist class from scratch.

    Nothing is read back from caches: presence bits, fixed-line counts and
    conjugation tables are evaluated directly against the bundle's
    specifications.  Every certificate also needs the separating element to
    lie in quotient 1 and not in quotient 2, and no global twist to carry
    spec 1 onto spec 2.
    """
    kind, data, holds, lead = CERTIFICATE_OF_TWIST[type(bundle.iso)](bundle)
    q1, q2, sep = bundle.quotient1, bundle.quotient2, bundle.separating_element
    separation = {"quotient1": q1.member(sep), "quotient2": q2.member(sep)}
    data["separating_element_in"] = separation
    holds = holds and separation["quotient1"] and not separation["quotient2"]
    holds = holds and not _globally_conjugate(bundle.spec1, bundle.spec2)
    return ObstructionReport(kind, data, bool(holds), (lead,) + _NARRATIVE_SHARED)


def _globally_conjugate(spec1: SubgroupSpec, spec2: SubgroupSpec) -> bool:
    """Whether a global twist carries spec 1 onto spec 2 at every place.

    The global twists are the diagram symmetry or not, times the ring
    conjugation or not.  The symmetry maps Parabolic(theta) to
    Parabolic(theta*) and fixes the other conditions; the conjugation moves
    the condition at each place to the conjugate place, and fixes every
    place over Z.  Such a twist makes the two subgroups isomorphic, so no
    certificate may hold.
    """
    support = {v for v, _ in spec1.conditions + spec2.conditions}
    domain = support | {conj_place(v, support) for v in support}
    return any(
        all(
            spec2.condition_at(conj_place(v, support) if conj else v)
            == _graph_image(spec1.condition_at(v), graph)
            for v in domain
        )
        for conj in (False, True)
        for graph in (False, True)
    )


def _graph_image(cond, graph: bool):
    if graph and isinstance(cond, Parabolic):
        return Parabolic(cond.theta.symmetric_image())
    return cond


def _central_obstruction(bundle) -> tuple:
    m = bundle.iso.scalar_order
    vp, vq = bundle.iso.from_place, bundle.iso.to_place
    presence = {
        key: {v.label: central_presence(q, v, m) for v in (vp, vq)}
        for key, q in (("quotient1", bundle.quotient1), ("quotient2", bundle.quotient2))
    }
    holds = (
        presence["quotient1"][vp.label]
        and not presence["quotient2"][vp.label]
        and not presence["quotient1"][vq.label]
        and presence["quotient2"][vq.label]
    )
    lead = (
        f"Quotient 1 contains the order-{m} central scalar at place {vp.label} and "
        f"quotient 2 does not; the roles are reversed at {vq.label}.  Central "
        "presence at a fixed place is preserved by inner, diagonal and graph "
        "twists, and a field twist cannot move a place over one rational prime "
        "to a place over another."
    )
    return "central_presence", {"scalar_order": m, "central_presence": presence}, holds, lead


def _parabolic_obstruction(bundle) -> tuple:
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
    # fixed_lines reads no prime: one pair of counts, listed at every place
    counts = {"theta": fixed_lines(theta), "theta_image": fixed_lines(theta_image)}
    lines = {}
    orders = {}
    for place in parabolic_places:
        lines[place.label] = counts
        orders[place.label] = {
            "theta": parabolic_order(theta, place.p),
            "theta_image": parabolic_order(theta_image, place.p),
        }
    # The twist acts at vq alone, and a global automorphism acts alike at
    # every place: the specs must agree away from vq, and another place must
    # keep spec 1's Parabolic(theta) in both, so no graph twist can fix it.
    spec1, spec2 = bundle.spec1, bundle.spec2
    others = {place for place, _ in spec1.conditions + spec2.conditions} - {vq}
    agree_elsewhere = all(spec1.condition_at(v) == spec2.condition_at(v) for v in others)
    anchored = any(v != vq and cond == conds[0] for v, cond in spec1.conditions)
    # unequal counts with image_matches also rule out a symmetric theta
    unequal = counts["theta"] != counts["theta_image"]
    holds = image_matches and agree_elsewhere and anchored and unequal
    lead = (
        "The two parabolic conditions at the twisted place differ by the diagram "
        "symmetry, and the symmetry moves the chosen root subset.  The number of "
        "projective lines fixed by a subgroup is a conjugation invariant; the "
        "unequal counts certify that no inner twist identifies the two conditions, "
        "while the diagram symmetry itself exchanges them."
    )
    data = {
        "theta": sorted(theta.members),
        "theta_image": sorted(theta_image.members),
        "theta_symmetric": symmetric,
        "fixed_lines": lines,
        "parabolic_orders": orders,
    }
    return "parabolic_fixed_lines", data, holds, lead


def _galois_obstruction(bundle) -> tuple:
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
    holds = involution and swap_matches and shared_moved and bool(shared)
    lead = (
        "The only nontrivial automorphism of the quadratic ring is the "
        "conjugation sending sqrt(d) to -sqrt(d); it exchanges the two places "
        "over each split prime.  It does swap the two places over p, matching "
        "the twist, but it also moves the shared constrained place over q, so "
        "no field twist fixes one specification while relabeling the other; "
        "place-preserving twists cannot change the support at all."
    )
    data = {
        "conjugation": table,
        "involution": involution,
        "swap_pair_matches_conjugation": swap_matches,
        "shared_places": [place.label for place in shared],
        "shared_places_moved": shared_moved,
    }
    return "galois_orbit", data, holds, lead


# twist class -> its certificate: (kind, data, holds, lead sentence)
CERTIFICATE_OF_TWIST = {
    CentralTransport: _central_obstruction,
    GraphAutomorphism: _parabolic_obstruction,
    PlaceSwap: _galois_obstruction,
}
