import pytest

from congwit.errors import InputError
from congwit.matrices import elementary, from_rows, identity, scalar_mul
from congwit.parabolics import longest_weyl
from congwit.presets import method_a_pair, method_b_pair, method_c_pair, s16_pair
from congwit.quotients import (
    CentralPrincipal,
    FiniteQuotientGroup,
    Principal,
    subgroup_spec,
    tuple_mul,
)
from congwit.rings import rational_place, split_places, unit_of_order
from congwit.twists import (
    CentralTransport,
    PlaceSwap,
    child_seed,
    verify_iso,
)

from oracles import minus_identity

V5 = rational_place(5)
V7 = rational_place(7)
V13 = rational_place(13)


def small_method_a(level=1):
    spec1 = subgroup_spec(4, {V5: CentralPrincipal(2, 1), V7: Principal(1)})
    spec2 = subgroup_spec(4, {V5: Principal(1), V7: CentralPrincipal(2, 1)})
    q1 = FiniteQuotientGroup(spec1, {V5: level, V7: level})
    q2 = FiniteQuotientGroup(spec2, {V5: level, V7: level})
    return q1, q2, CentralTransport(q1, q2, V5, V7, 2)


def test_central_transport_level_one_example():
    q1, q2, iso = small_method_a()
    g = (minus_identity(4, q1.rings[0]), identity(4, q1.rings[1]))
    image = iso.apply(g)
    assert image == (identity(4, q2.rings[0]), minus_identity(4, q2.rings[1]))
    assert q2.member(image)
    assert iso.apply(q1.identity()) == q2.identity()


def test_central_transport_level_two_example():
    q1, q2, iso = small_method_a(level=2)
    u = elementary(4, 0, 1, 5, q1.rings[0])  # 1 + 5 E_{01} mod 25, principal at 5
    g = (scalar_mul(24, u), identity(4, q1.rings[1]))
    assert q1.member(g)
    image = iso.apply(g)
    assert image == (u, minus_identity(4, q2.rings[1]))
    assert q2.member(image)


def test_central_transport_order_four():
    spec1 = subgroup_spec(4, {V5: CentralPrincipal(4, 1), V13: Principal(1)})
    spec2 = subgroup_spec(4, {V5: Principal(1), V13: CentralPrincipal(4, 1)})
    q1 = FiniteQuotientGroup(spec1, {V5: 1, V13: 1})
    q2 = FiniteQuotientGroup(spec2, {V5: 1, V13: 1})
    iso = CentralTransport(q1, q2, V5, V13, 4)
    z5 = unit_of_order(4, 5, 1)
    z13 = unit_of_order(4, 13, 1)
    assert (z5, z13) == (2, 8)
    for k in range(4):
        g = (
            scalar_mul(pow(z5, k, 5), identity(4, q1.rings[0])),
            identity(4, q1.rings[1]),
        )
        image = iso.apply(g)
        assert image[0] == identity(4, q2.rings[0])
        assert image[1] == scalar_mul(pow(z13, k, 13), identity(4, q2.rings[1]))
    report = verify_iso(iso, 16, 0)
    assert report.verdict == "witnessed" and report.exhaustive


def test_central_transport_order_four_at_level_two():
    # depth-1 condition read below a level-2 ring: the extraction uses the
    # residue of the canonical level-2 unit, the rescaling its exact lift
    spec1 = subgroup_spec(4, {V5: CentralPrincipal(4, 1), V13: Principal(1)})
    spec2 = subgroup_spec(4, {V5: Principal(1), V13: CentralPrincipal(4, 1)})
    q1 = FiniteQuotientGroup(spec1, {V5: 2, V13: 2})
    q2 = FiniteQuotientGroup(spec2, {V5: 2, V13: 2})
    iso = CentralTransport(q1, q2, V5, V13, 4)
    z5 = unit_of_order(4, 5, 2)
    z13 = unit_of_order(4, 13, 2)
    assert pow(z5, 4, 25) == 1 and pow(z13, 4, 169) == 1
    for k in range(4):
        g = (
            scalar_mul(pow(z5, k, 25), identity(4, q1.rings[0])),
            identity(4, q1.rings[1]),
        )
        image = iso.apply(g)
        assert image[0] == identity(4, q2.rings[0])
        assert image[1] == scalar_mul(pow(z13, k, 169), identity(4, q2.rings[1]))
        assert iso.invert().apply(image) == g
    report = verify_iso(iso, 300, 1)
    assert report.verdict == "witnessed"


def test_central_extraction_is_multiplicative():
    q1, _, iso = small_method_a(level=2)

    def k_of(g):
        z = g[0].entries[0][0] % 5
        return 0 if z == 1 else 1

    for i in range(100):
        x = q1.sample(child_seed(3, 2 * i))
        y = q1.sample(child_seed(3, 2 * i + 1))
        assert k_of(tuple_mul(x, y)) == (k_of(x) + k_of(y)) % 2


def test_transport_requires_matching_condition():
    q1, q2, _ = small_method_a()
    with pytest.raises(InputError):
        CentralTransport(q1, q2, V7, V5, 2)  # source has no central condition at 7


def test_apply_rejects_non_members():
    q1, q2, iso = small_method_a()
    bad = (elementary(4, 0, 1, 1, q1.rings[0]), identity(4, q1.rings[1]))
    with pytest.raises(InputError):
        iso.apply(bad)


def test_image_rejects_a_component_outside_the_central_subgroup():
    q1, _, iso = small_method_a(level=2)
    # entry (0, 0) is 0 or 2 mod 5, and the order-2 unit's powers are 1 and 4
    weyl = longest_weyl(4, q1.rings[0])
    torus = from_rows([[2, 0, 0, 0], [0, 13, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], q1.rings[0])
    for comp in (weyl, torus):
        with pytest.raises(InputError):
            iso._image((comp, identity(4, q1.rings[1])))


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair])
def test_sampled_pair_tests_target_membership_once(bundle_fn, monkeypatch):
    iso = bundle_fn().iso
    calls = []
    member = FiniteQuotientGroup.member

    def counting(self, g):
        calls.append(self)
        return member(self, g)

    monkeypatch.setattr(FiniteQuotientGroup, "member", counting)

    def per_quotient(samples):
        del calls[:]
        verify_iso(iso, samples, 0)
        return sum(q is iso.source for q in calls), sum(q is iso.target for q in calls)

    (src10, tgt10), (src20, tgt20) = per_quotient(10), per_quotient(20)
    # apply on x, y and x*y tests the source; fx and fy are tested once in
    # the target, and the inverse round trip reuses the test on fx
    assert (src20 - src10, tgt20 - tgt10) == (10 * 3, 10 * 2)


def test_invert_kinds():
    a = method_a_pair()
    inv = a.iso.invert()
    assert inv.kind == a.iso.kind
    assert inv.from_place == a.iso.to_place and inv.to_place == a.iso.from_place
    c = method_c_pair()
    swap_inv = c.iso.invert()
    assert swap_inv.kind == c.iso.kind
    assert (swap_inv.from_place, swap_inv.to_place) == (c.iso.from_place, c.iso.to_place)
    b = method_b_pair()
    graph_inv = b.iso.invert()
    assert graph_inv.reversed_graph and not b.iso.reversed_graph


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_round_trip_identity_on_samples(bundle_fn):
    bundle = bundle_fn()
    iso = bundle.iso
    inverse = iso.invert()
    for i in range(200):
        x = bundle.quotient1.sample(child_seed(17, i))
        assert inverse.apply(iso.apply(x)) == x
    y = bundle.quotient2.sample(child_seed(18, 0))
    assert iso.apply(inverse.apply(y)) == y


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_twist_fields_survive_json_and_double_inverse(bundle_fn):
    iso = bundle_fn().iso
    places = {v.label: v for v in iso.source.places}
    rebuilt = type(iso).from_json(iso.to_json(), iso.source, iso.target, places)
    for copy in (rebuilt, iso.invert().invert()):
        assert type(copy) is type(iso)
        assert vars(copy) == vars(iso)


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_presets_witnessed(bundle_fn):
    bundle = bundle_fn()
    report = verify_iso(bundle.iso, 300, 0)
    assert report.verdict == "witnessed"
    assert report.membership_failures == 0
    assert report.homomorphism_failures == 0
    assert report.inverse_failures == 0
    assert report.order_match


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_apply_preserves_identity(bundle_fn):
    bundle = bundle_fn()
    assert bundle.iso.apply(bundle.quotient1.identity()) == bundle.quotient2.identity()
    assert bundle.iso.invert().apply(bundle.quotient2.identity()) == bundle.quotient1.identity()


def test_broken_place_swap_is_refuted():
    a = method_a_pair()
    broken = PlaceSwap(a.quotient1, a.quotient2, a.places[0], a.places[1])
    report = verify_iso(broken, 100, 0)
    assert report.verdict == "refuted"
    assert report.membership_failures > 0


def test_place_swap_keeps_the_shared_ring():
    # both places over 7 share one ring object, and both over 17
    bundle = method_c_pair()
    q1, q2 = bundle.quotient1, bundle.quotient2
    rings = {}
    for place, ring in zip(q1.places, q1.rings):
        rings.setdefault(place.p, []).append(ring)
    assert sorted(rings) == [7, 17]
    assert all(len(rs) == 2 and rs[0] is rs[1] for rs in rings.values())
    for seed in range(20):
        image = bundle.iso.apply(q1.sample(seed))
        assert all(c.ring is ring for c, ring in zip(image, q2.rings))


def test_place_swap_between_exponents_is_refuted():
    # Z/49 at p7a and Z/7 at p7b: the swapped components sit in the wrong rings
    c = method_c_pair()
    level = dict(c.level)
    level[c.iso.from_place] = 2
    q1, q2 = (FiniteQuotientGroup(spec, level) for spec in (c.spec1, c.spec2))
    report = verify_iso(PlaceSwap(q1, q2, c.iso.from_place, c.iso.to_place), 100, 0)
    assert report.verdict == "refuted"
    assert report.membership_failures > 0


def test_exhaustive_verification_for_tiny_quotients():
    bundle = s16_pair(7)
    report = verify_iso(bundle.iso, 10_000, 0)
    assert report.exhaustive
    assert report.samples_used == 2
    assert report.verdict == "witnessed"


def test_order_one_quotient_checks_the_identity_edge():
    # no generators: the one Cayley-graph edge is (identity, identity)
    p1, p2 = split_places(7, 2)
    spec = subgroup_spec(2, {p1: Principal(1), p2: Principal(1)}, d=2)
    q1, q2 = (FiniteQuotientGroup(spec, {p1: 1, p2: 1}) for _ in range(2))
    assert q1.order == 1 and q1.generators() == []
    report = verify_iso(PlaceSwap(q1, q2, p1, p2), 10_000, 0)
    assert report.witnessed and report.exhaustive and report.samples_used == 1


def test_child_seed_is_stable_and_split():
    assert child_seed(0, 0) == child_seed(0, 0)
    assert child_seed(0, 0) != child_seed(0, 1)
    assert child_seed(0, 0) != child_seed(1, 0)
    # documented rule: sha256 of "master:index", first 8 bytes, big endian
    import hashlib

    expected = int.from_bytes(hashlib.sha256(b"42:7").digest()[:8], "big")
    assert child_seed(42, 7) == expected


def test_verify_iso_requires_positive_samples():
    q1, _, iso = small_method_a()
    with pytest.raises(InputError):
        verify_iso(iso, 0, 0)
