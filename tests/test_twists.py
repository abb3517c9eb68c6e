import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwit import presets, twists
from congwit.cli import main
from congwit.errors import InputError
from congwit.matrices import SLMat, elementary, from_rows, identity, scalar_mul
from congwit.parabolics import graph_automorphism, graph_automorphism_inverse, root_subset
from congwit.presets import method_a_pair, method_b_pair, method_c_pair, s16_pair
from congwit.quotients import (
    CentralPrincipal,
    FiniteQuotientGroup,
    Parabolic,
    Principal,
    subgroup_spec,
    tuple_mul,
)
from congwit.rings import rational_place, split_places, unit_of_order
from congwit.serialize import bundle_from_json, bundle_to_json
from congwit.twists import (
    CentralTransport,
    GraphAutomorphism,
    PlaceSwap,
    QuotientIso,
    _check_pairs,
    child_seed,
    verify_iso,
)

from oracles import longest_weyl, minus_identity, reduce_mat, reference_check_pairs

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
    assert iso.apply(q1.identity) == q2.identity


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
    # apply tests x and y in the source, and their product is not re-tested;
    # fx is tested once in the target, and that test also gates the inverse
    # round trip, so fy is never tested there
    assert (src20 - src10, tgt20 - tgt10) == (10 * 2, 10 * 1)
    # the generators are imaged without a source re-test
    assert src10 == 10 * 2


class _Inclusion:
    """g -> g, declared with an inverse that loses every element; a twist
    to verify_iso, kept out of QuotientIso's subclasses."""

    apply = QuotientIso.apply

    def __init__(self, source, target):
        self.source, self.target = source, target

    def _image(self, g):
        return g

    def invert(self):
        return _Lost()


class _Lost:
    def _image(self, g):
        return None


def test_inverse_failures_count_pairs_whose_second_image_leaves_the_target():
    v3 = rational_place(3)
    full = FiniteQuotientGroup(subgroup_spec(2, {}), {v3: 1})
    borel = FiniteQuotientGroup(subgroup_spec(2, {v3: Parabolic(root_subset(2, ()))}), {v3: 1})
    report = verify_iso(_Inclusion(full, borel), 50, 0)
    # 24 elements x 2 generators, E_01 in the Borel and E_10 not: every edge
    # from one of the Borel's 6 elements fails its round trip, whether or
    # not f(E_10) is a member; the other 18 x 2 edges and E_10 leave it
    assert (report.exhaustive, report.samples_used) == (True, 24)
    assert report.inverse_failures == 6 * 2
    assert report.membership_failures == 1 + 18 * 2


class _Rewritten:
    """A declared twist whose image is rewritten after the fact, with the
    twist's own inverse; kept out of QuotientIso's subclasses."""

    apply = QuotientIso.apply

    def __init__(self, iso, rewrite):
        self.source, self.target = iso.source, iso.target
        self._iso, self._rewrite = iso, rewrite

    def _image(self, g):
        return self._rewrite(self._iso._image(g))

    def invert(self):
        return self._iso.invert()


def _symmetry_at_p5_too(image):
    # method-b's places are p3, p5, p7: the twist moves p7 and passes p5 through
    return image[:1] + (graph_automorphism(image[1]),) + image[2:]


def _equal_copies(image):
    return tuple(SLMat._closed(m.ring, m.entries) for m in image)


def _swap_across_unequal_rings():
    # Z/49 at p7a and Z/7 at p7b: the swapped components sit in the wrong rings
    c = method_c_pair()
    level = dict(c.level)
    level[c.iso.from_place] = 2
    q1, q2 = (FiniteQuotientGroup(spec, level) for spec in (c.spec1, c.spec2))
    return PlaceSwap(q1, q2, c.iso.from_place, c.iso.to_place)


@pytest.mark.parametrize(
    "make,failing",
    [
        # p5's images leave P_theta, and members' round trips miss at p5
        (lambda: _Rewritten(method_b_pair().iso, _symmetry_at_p5_too), {0, 2}),
        # the witnessed twist, with nothing passed through by identity
        (lambda: _Rewritten(method_c_pair().iso, _equal_copies), set()),
        # every image holds a component in the wrong ring
        (_swap_across_unequal_rings, {0}),
    ],
    ids=["graph-rewrites-p5", "swap-equal-copies", "swap-unequal-rings"],
)
def test_pair_loop_matches_the_full_reference(make, failing):
    # _check_pairs reuses x*y where a twist passes components through by
    # identity, and skips the predicate for a place's own identity object;
    # the reference multiplies f(x)*f(y) out and runs every predicate
    iso = make()
    inverse = iso.invert()
    src = iso.source
    pairs = [
        (src.sample(child_seed(0, 2 * i)), src.sample(child_seed(0, 2 * i + 1)))
        for i in range(200)
    ]
    counts = _check_pairs(iso, inverse, pairs.__getitem__, 0, 200)
    assert counts == reference_check_pairs(iso, inverse, pairs.__getitem__, 0, 200)
    # (membership, homomorphism, inverse): each twist is a homomorphism
    assert {k for k, v in enumerate(counts) if v} == failing


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


def test_reversed_graph_is_read_from_a_document(monkeypatch, tmp_path, capsys):
    # the field used to be dropped on load, and the reversed twist was
    # verified as the forward one
    doc = bundle_to_json(method_b_pair())
    doc["iso"]["reversed_graph"] = True
    bundle = bundle_from_json(doc)
    iso = bundle.iso
    assert iso.reversed_graph and bundle_to_json(bundle)["iso"] == doc["iso"]
    places = {v.label: v for v in iso.source.places}
    assert vars(GraphAutomorphism.from_json(iso.to_json(), iso.source, iso.target, places)) == vars(iso)
    assert "reversed_graph" not in iso.invert().to_json()
    calls = []
    for real in (graph_automorphism, graph_automorphism_inverse):
        name = real.__name__
        monkeypatch.setattr(twists, name, lambda g, name=name, real=real: calls.append(name) or real(g))
    x = bundle.quotient1.sample(0)
    assert iso.apply(x)[2] == graph_automorphism_inverse(x[2]) and calls == ["graph_automorphism_inverse"]
    assert verify_iso(iso, 100, 0).witnessed
    path = tmp_path / "reversed.json"
    for bad in ("yes", 1, None):
        doc["iso"]["reversed_graph"] = bad
        path.write_text(json.dumps(doc))
        for argv in (["obstruct", str(path)], ["verify-iso", str(path), "--samples", "3"]):
            assert main(argv) == 2, (bad, argv)
            assert capsys.readouterr() == ("", f"error: reversed_graph must be true or false, not {bad!r}\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(2, 6),
    primes=st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19]), min_size=2, max_size=2, unique=True),
    e=st.integers(1, 3),
    kind=st.sampled_from(["central_transport", "place_swap", "graph_automorphism"]),
)
def test_twist_json_round_trips_at_random_n_p_e(n, primes, e, kind):
    vp, vq = (rational_place(p) for p in primes)
    m = math.gcd(n, vp.p - 1, vq.p - 1)
    spec1 = subgroup_spec(n, {vp: CentralPrincipal(m, 1), vq: Principal(1)})
    spec2 = subgroup_spec(n, {vp: Principal(1), vq: CentralPrincipal(m, 1)})
    q1 = FiniteQuotientGroup(spec1, {vp: e, vq: e})
    q2 = FiniteQuotientGroup(spec2, {vp: e, vq: e})
    iso, expected = {
        "central_transport": (
            CentralTransport(q1, q2, vp, vq, m),
            {"from_place": vp.label, "to_place": vq.label, "scalar_order": m},
        ),
        "place_swap": (PlaceSwap(q1, q2, vp, vq), {"from_place": vp.label, "to_place": vq.label}),
        "graph_automorphism": (GraphAutomorphism(q1, q2, vq), {"place": vq.label}),
    }[kind]
    doc = json.loads(json.dumps(iso.to_json()))
    assert doc == {"kind": kind, **expected}
    rebuilt = type(iso).from_json(doc, q1, q2, {v.label: v for v in (vp, vq)})
    assert type(rebuilt) is type(iso)
    assert vars(rebuilt) == vars(iso)
    assert rebuilt.to_json() == doc


@pytest.mark.parametrize(
    "bundle_fn,key,value,message",
    [
        (method_a_pair, "from_place", "p11", "unknown place label 'p11'"),
        (method_a_pair, "to_place", None, "unknown place label None"),
        (method_a_pair, "scalar_order", 2.0, "scalar_order must be an integer, not 2.0"),
        (method_a_pair, "scalar_order", True, "scalar_order must be an integer, not True"),
        (method_b_pair, "place", 7, "unknown place label 7"),
        (method_c_pair, "to_place", "p7", "unknown place label 'p7'"),
    ],
)
def test_twist_json_rejects_unknown_labels_and_non_integers(bundle_fn, key, value, message):
    iso = bundle_fn().iso
    places = {v.label: v for v in iso.source.places}
    with pytest.raises(InputError) as info:
        type(iso).from_json({**iso.to_json(), key: value}, iso.source, iso.target, places)
    assert str(info.value) == message


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
    assert bundle.iso.apply(bundle.quotient1.identity) == bundle.quotient2.identity
    assert bundle.iso.invert().apply(bundle.quotient2.identity) == bundle.quotient1.identity


def _relevelled(bundle, e):
    """The bundle's twist, rebuilt between its two specs' quotients at level e
    at every place."""
    level = {place: e for place, _ in bundle.level}
    q1, q2 = (FiniteQuotientGroup(spec, level) for spec in (bundle.spec1, bundle.spec2))
    return type(bundle.iso).from_json(bundle.iso.to_json(), q1, q2, {v.label: v for v in q1.places})


def _reduce(x, rings):
    return tuple(reduce_mat(c, ring) for c, ring in zip(x, rings))


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize(
    "bundle_fn", [method_a_pair, method_b_pair, method_c_pair], ids=["central", "graph", "swap"]
)
def test_twists_form_a_tower(bundle_fn, e):
    # reduce(f_e(x)) = f_(e-1)(reduce(x)): the twists at levels e - 1 and e
    # are one map of the tower of quotients
    bundle = bundle_fn()
    high, low = _relevelled(bundle, e), _relevelled(bundle, e - 1)
    for k in range(100):
        x = high.source.sample(child_seed(0, k))
        down = _reduce(x, low.source.rings)
        assert low.source.member(down)
        assert _reduce(high.apply(x), low.target.rings) == low.apply(down)


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
    report = verify_iso(_swap_across_unequal_rings(), 100, 0)
    assert report.verdict == "refuted"
    assert report.membership_failures > 0


def test_exhaustive_verification_for_tiny_quotients():
    bundle = s16_pair(7)
    report = verify_iso(bundle.iso, 10_000, 0)
    assert report.exhaustive
    assert report.samples_used == 2
    assert report.verdict == "witnessed"


def _short_closure_iso(monkeypatch):
    """An inclusion of SL_2(F_3) whose source generators miss its order."""
    v3 = rational_place(3)
    full = FiniteQuotientGroup(subgroup_spec(2, {}), {v3: 1})
    # E_01 alone closes on its 3 powers, not on the 24 elements of SL_2(F_3)
    monkeypatch.setattr(full, "generators", full.generators[:1])
    iso = _Inclusion(full, full)
    monkeypatch.setattr(iso, "apply", lambda g: pytest.fail("a pair was checked"))
    return iso


def test_exhaustive_run_refuses_generators_that_miss_the_order(monkeypatch):
    iso = _short_closure_iso(monkeypatch)
    message = "^generators of the source close on 3 elements, not its order 24$"
    with pytest.raises(RuntimeError, match=message):
        verify_iso(iso, 50, 0)


def test_internal_error_exits_three_with_one_line(monkeypatch, capsys):
    # the closure shortfall reached through the CLI: exit 3, not 1 ("refuted")
    iso = _short_closure_iso(monkeypatch)
    monkeypatch.setattr(presets, "s16_pair", lambda p=7: SimpleNamespace(iso=iso))
    assert main(["witness", "s16", "--samples", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: generators of the source close on 3 elements, not its order 24\n"
    )


def test_order_one_quotient_checks_the_identity_edge():
    # no generators: the one Cayley-graph edge is (identity, identity)
    p1, p2 = split_places(7, 2)
    spec = subgroup_spec(2, {p1: Principal(1), p2: Principal(1)}, d=2)
    q1, q2 = (FiniteQuotientGroup(spec, {p1: 1, p2: 1}) for _ in range(2))
    assert q1.order == 1 and q1.generators == []
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
