import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congwit.errors import InputError
from congwit.matrices import (
    SLMat,
    _det_int,
    _minor,
    _mul_rows,
    elementary,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    scalar_mul,
    sl_order,
)
from congwit.parabolics import parabolic_order, root_subset
from congwit.presets import PRESETS, builder, method_a_pair, method_b_pair, method_c_pair, s16_pair
from congwit.quotients import (
    FULL_WORD_MAX,
    PARABOLIC_WORD_MAX,
    CONDITION_OF_KIND,
    CentralPrincipal,
    Component,
    FiniteQuotientGroup,
    Full,
    Parabolic,
    Principal,
    _below,
    _column_ops,
    _random_word,
    central_element,
    central_presence,
    closure,
    enumerate_quotient,
    subgroup_spec,
    tuple_mul,
)
from congwit.rings import (
    MAX_MODULUS,
    ResidueRing,
    rational_place,
    residue_ring,
    split_places,
    unit_of_order,
)
from congwit.serialize import bundle_from_json, bundle_to_json
from congwit.twists import child_seed

from oracles import longest_weyl, minus_identity, reduce_mat, sl2_word_image_order, tuple_inv

V5 = rational_place(5)
V7 = rational_place(7)
V3 = rational_place(3)


def method_a_specs(n=4, m=2):
    spec1 = subgroup_spec(n, {V5: CentralPrincipal(m, 1), V7: Principal(1)})
    spec2 = subgroup_spec(n, {V5: Principal(1), V7: CentralPrincipal(m, 1)})
    return spec1, spec2


def test_method_a_level_one_quotient_is_order_two():
    spec1, _ = method_a_specs()
    q = FiniteQuotientGroup(spec1, {V5: 1, V7: 1})
    assert q.order == 2
    elements = enumerate_quotient(q)
    assert len(elements) == 2
    ident = q.identity()
    nontrivial = tuple([minus_identity(4, q.rings[0]), identity(4, q.rings[1])])
    assert elements == {ident, nontrivial}


def test_method_a_level_two_order():
    spec1, spec2 = method_a_specs()
    q1 = FiniteQuotientGroup(spec1, {V5: 2, V7: 1})
    assert q1.order == 2 * 5**15
    q2 = FiniteQuotientGroup(spec2, {V5: 2, V7: 2})
    assert q2.order == 5**15 * 2 * 7**15


def test_method_b_order_is_parabolic_product():
    theta = root_subset(4, {2, 3})
    spec = subgroup_spec(
        4, {V5: Parabolic(theta), V7: Parabolic(theta), V3: Principal(1)}
    )
    q = FiniteQuotientGroup(spec, {V5: 1, V7: 1, V3: 1})
    expected = parabolic_order(theta, 5) * parabolic_order(theta, 7)
    assert q.order == expected


def test_level_validation():
    spec1, _ = method_a_specs()
    with pytest.raises(InputError):
        FiniteQuotientGroup(spec1, {V5: 1})  # missing the place at 7
    spec_deep = subgroup_spec(4, {V5: Principal(2)})
    with pytest.raises(InputError):
        FiniteQuotientGroup(spec_deep, {V5: 1})  # level below condition depth


def test_central_divisibility_validation():
    spec = subgroup_spec(4, {V7: CentralPrincipal(4, 1)})
    with pytest.raises(InputError):
        FiniteQuotientGroup(spec, {V7: 1})  # 4 does not divide gcd(4, 6)


def test_member_examples():
    spec1, spec2 = method_a_specs()
    q1 = FiniteQuotientGroup(spec1, {V5: 1, V7: 1})
    q2 = FiniteQuotientGroup(spec2, {V5: 1, V7: 1})
    assert q1.member(q1.identity())
    g = (minus_identity(4, q1.rings[0]), identity(4, q1.rings[1]))
    assert q1.member(g)
    assert not q2.member(g)


def test_member_method_b_example():
    theta = root_subset(4, {2, 3})
    spec = subgroup_spec(
        4, {V5: Parabolic(theta), V7: Parabolic(theta), V3: Principal(1)}
    )
    q = FiniteQuotientGroup(spec, {V5: 1, V7: 1, V3: 1})
    g = list(q.identity())
    g[q.place_index(V5)] = elementary(4, 1, 0, 1, q.rings[q.place_index(V5)])
    assert not q.member(tuple(g))


def test_member_rejects_mismatched_shapes_gracefully():
    spec1, _ = method_a_specs()
    q = FiniteQuotientGroup(spec1, {V5: 1, V7: 1})
    assert not q.member((q.identity()[0],))
    wrong_ring = identity(4, FiniteQuotientGroup(spec1, {V5: 2, V7: 1}).rings[0])
    assert not q.member((wrong_ring, q.identity()[1]))


@pytest.mark.parametrize(
    "conditions,level,expected",
    [
        ({}, {V5: 1}, 120),
        ({V5: Principal(1)}, {V5: 2}, 125),
        ({V5: CentralPrincipal(2, 1)}, {V5: 2}, 250),
        ({V5: Principal(1)}, {V5: 3}, 15_625),
        ({V3: Principal(1)}, {V3: 2}, 27),
        ({V3: CentralPrincipal(2, 1)}, {V3: 2}, 54),
        ({V3: Parabolic(root_subset(2, ()))}, {V3: 1}, 6),
        ({V3: Parabolic(root_subset(2, ()))}, {V3: 2}, 162),
        ({V3: Parabolic(root_subset(2, ())), V5: CentralPrincipal(2, 1)}, {V3: 1, V5: 2}, 1_500),
    ],
)
def test_sl2_quotient_orders_against_closure(conditions, level, expected):
    q = FiniteQuotientGroup(subgroup_spec(2, conditions), level)
    assert q.order == expected
    assert len(enumerate_quotient(q, 50_000)) == expected


CLOSURE_CAP = 20_000

# Every condition kind at n = 2 with depth at most 2; the order-2 centre
# exists at every odd place.
SL2_CONDITIONS = st.one_of(
    st.none(),
    st.just(Full()),
    st.integers(1, 2).map(Principal),
    st.integers(1, 2).map(lambda depth: CentralPrincipal(2, depth)),
    st.sampled_from([(), (1,)]).map(lambda theta: Parabolic(root_subset(2, theta))),
)


@st.composite
def small_sl2_quotients(draw):
    places = draw(st.lists(st.sampled_from([V3, V5]), min_size=1, max_size=2, unique=True))
    conditions, level = {}, {}
    for place in places:
        cond = draw(SL2_CONDITIONS)
        level[place] = draw(st.integers(1 if cond is None else cond.depth, 2))
        if cond is not None:
            conditions[place] = cond
    return FiniteQuotientGroup(subgroup_spec(2, conditions), level)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(small_sl2_quotients())
def test_order_formula_matches_closure_on_random_sl2_specs(q):
    # every report's order_match compares these formulas
    assume(q.order <= CLOSURE_CAP)
    assert len(enumerate_quotient(q, CLOSURE_CAP)) == q.order


def test_sl3_kernel_closure():
    q = FiniteQuotientGroup(subgroup_spec(3, {V3: Principal(1)}), {V3: 2})
    assert q.order == 3**8
    assert len(enumerate_quotient(q, 10_000)) == 3**8


def test_full_sl2_closure_mod_seven():
    q = FiniteQuotientGroup(subgroup_spec(2, {V7: Full()}), {V7: 1})
    assert q.order == sl_order(2, 7, 1) == 336
    assert len(enumerate_quotient(q)) == 336


def test_order_monotonicity_in_level():
    spec1, _ = method_a_specs()
    for e in (1, 2, 3):
        q = FiniteQuotientGroup(spec1, {V5: e, V7: 1})
        assert q.order == 2 * 5 ** (15 * (e - 1))
    spec_full = subgroup_spec(2, {})
    for e in (1, 2, 3):
        q = FiniteQuotientGroup(spec_full, {V5: e})
        assert q.order == 120 * 5 ** (3 * (e - 1))


def sampled_members(q, count, base_seed=0):
    return [q.sample(1000 + base_seed + k) for k in range(count)]


def test_samples_are_members_and_deterministic():
    spec1, spec2 = method_a_specs()
    theta = root_subset(4, {2, 3})
    spec_b = subgroup_spec(
        4, {V5: Parabolic(theta), V7: Parabolic(theta.symmetric_image()), V3: Principal(1)}
    )
    p1, p2 = split_places(7, 2)
    q1_pl, q2_pl = split_places(17, 2)
    spec_c = subgroup_spec(2, {p1: Principal(1), q1_pl: Principal(1)}, d=2)
    quotients = [
        FiniteQuotientGroup(spec1, {V5: 2, V7: 2}),
        FiniteQuotientGroup(spec2, {V5: 2, V7: 2}),
        FiniteQuotientGroup(spec_b, {V5: 1, V7: 1, V3: 1}),
        FiniteQuotientGroup(spec_c, {p1: 1, p2: 1, q1_pl: 1, q2_pl: 1}),
    ]
    for q in quotients:
        draws = sampled_members(q, 200)
        for g in draws:
            assert q.member(g)
        assert draws[0] == q.sample(1000)
        assert any(d != draws[0] for d in draws[1:])


def test_membership_closed_under_group_operations():
    spec1, _ = method_a_specs()
    theta = root_subset(4, {2, 3})
    spec_b = subgroup_spec(4, {V5: Parabolic(theta), V3: Principal(1)})
    for q in (
        FiniteQuotientGroup(spec1, {V5: 2, V7: 2}),
        FiniteQuotientGroup(spec_b, {V5: 1, V3: 1}),
    ):
        draws = sampled_members(q, 1001)
        for x, y in zip(draws, draws[1:]):
            assert q.member(tuple_mul(x, y))
            assert q.member(tuple_inv(x))


def test_principal_sample_is_congruent_to_identity():
    q = FiniteQuotientGroup(subgroup_spec(4, {V5: Principal(1)}), {V5: 2})
    for k in range(50):
        (g,) = q.sample(k)
        for i in range(4):
            for j in range(4):
                assert g.entries[i][j] % 5 == (1 if i == j else 0)


def test_reduction_compatibility_of_sampling():
    spec1, _ = method_a_specs()
    q_high = FiniteQuotientGroup(spec1, {V5: 3, V7: 2})
    q_low = FiniteQuotientGroup(spec1, {V5: 2, V7: 1})
    for k in range(100):
        g = q_high.sample(k)
        reduced = tuple(reduce_mat(c, r) for c, r in zip(g, q_low.rings))
        assert q_low.member(reduced)


def test_central_presence():
    spec1, spec2 = method_a_specs()
    q1 = FiniteQuotientGroup(spec1, {V5: 2, V7: 2})
    q2 = FiniteQuotientGroup(spec2, {V5: 2, V7: 2})
    assert central_presence(q1, V5, 2)
    assert not central_presence(q2, V5, 2)
    assert not central_presence(q1, V7, 2)
    assert central_presence(q2, V7, 2)
    assert central_presence(q1, V5, 1)
    assert central_presence(q2, V5, 1)


def test_central_element_spec_materialization():
    spec1, _ = method_a_specs()
    q = FiniteQuotientGroup(spec1, {V5: 2, V7: 2})
    element = central_element(q, V5, 2)
    assert element[0] == minus_identity(4, q.rings[0])
    assert element[1] == identity(4, q.rings[1])
    with pytest.raises(InputError):
        central_element(q, V7, 4)  # 4 does not divide gcd(4, 6)


@pytest.mark.parametrize("m,expected", [(3, 24), (4, 48), (5, 120), (6, 144), (7, 336)])
def test_sl2_integral_words_surject_onto_quotients(m, expected):
    assert sl2_word_image_order(m) == expected


def test_generators_are_members():
    spec1, _ = method_a_specs()
    theta = root_subset(4, {2, 3})
    spec_b = subgroup_spec(4, {V5: Parabolic(theta), V3: Principal(1)})
    # verify_iso images each preset source's generators without a source test
    for q in [
        FiniteQuotientGroup(spec1, {V5: 2, V7: 2}),
        FiniteQuotientGroup(spec_b, {V5: 1, V3: 2}),
    ] + [builder(name)().iso.source for name in sorted(PRESETS)]:
        assert q.generators()
        for g in q.generators():
            assert q.member(g)


def test_closure_limit_returns_none():
    q = FiniteQuotientGroup(subgroup_spec(2, {V7: Full()}), {V7: 1})
    assert closure(q.generators(), q.identity(), 10) is None


@pytest.mark.parametrize(
    "cond",
    [Full(), Principal(2), CentralPrincipal(4, 1), Parabolic(root_subset(4, {2, 3}))],
    ids=lambda cond: cond.kind,
)
def test_condition_json_round_trip(cond):
    doc = json.loads(json.dumps(cond.to_json()))
    assert doc["kind"] == cond.kind
    assert CONDITION_OF_KIND[doc["kind"]].from_json(doc, 4) == cond


def test_order_one_central_condition_is_principal():
    doc = {"kind": "central_principal", "order": 1, "depth": 2}
    assert CentralPrincipal.from_json(doc, 4) == Principal(2)


# ---------------------------------------------------------------------------
# The samplers draw through _below on getrandbits.  The references below are
# the randrange-based samplers they replaced, kept verbatim so the draws, and
# so the witness bytes, are pinned to them.


def _ref_elementary_word(rng, n, ring, max_len):
    mod = ring.modulus
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(rng.randint(1, max_len)):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        t = rng.randrange(mod)
        if t:
            for row in rows:
                row[j] = (row[j] + t * row[i]) % mod
    return from_rows(rows, ring)


def _ref_word(rng, gens, n, ring):
    mod = ring.modulus
    rows = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    for _ in range(rng.randint(1, PARABOLIC_WORD_MAX)):
        rows = _mul_rows(rows, gens[rng.randrange(len(gens))].entries, mod)
    return from_rows(rows, ring)


def _ref_principal_sample(rng, n, ring, depth):
    mod = ring.modulus
    p = ring.p
    e = ring.e
    if e == depth:
        return identity(n, ring)
    step = p**depth
    span = p ** (e - depth)
    rows = [
        [(1 if i == j else 0) + step * rng.randrange(span) for j in range(n)]
        for i in range(n)
    ]
    det = _det_int(rows) % mod
    if det != 1:
        cof = _det_int(_minor(rows, 0, 0)) % mod
        rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    return from_rows(rows, ring)


def _ref_sample(q, seed):
    return _ref_components(q, random.Random(seed))


def _ref_components(q, rng):
    n = q.n
    out = []
    for ring, cond, (place, e), c in zip(q.rings, q.conditions, q.level, q.components):
        if isinstance(cond, Full):
            out.append(_ref_elementary_word(rng, n, ring, FULL_WORD_MAX))
        elif isinstance(cond, Parabolic):
            g = _ref_word(rng, cond.sampler_gens(c), n, ring)
            if e > 1:
                g = mat_mul(g, _ref_principal_sample(rng, n, ring, 1))
            out.append(g)
        elif isinstance(cond, Principal):
            out.append(_ref_principal_sample(rng, n, ring, cond.depth))
        else:
            z = unit_of_order(cond.order, place.p, e)
            k = rng.randrange(cond.order)
            base = _ref_principal_sample(rng, n, ring, cond.depth)
            scalar = pow(z, k, ring.modulus)
            out.append(from_rows([[v * scalar for v in row] for row in base.entries], ring))
    return tuple(out)


def _preset_quotients():
    quotients = []
    for build in (method_a_pair, method_b_pair, method_c_pair, s16_pair):
        bundle = build()
        quotients += [bundle.quotient1, bundle.quotient2]
    return quotients


def test_below_matches_randrange_draws_and_state():
    theta = root_subset(4, {2, 3})
    q_b = FiniteQuotientGroup(subgroup_spec(4, {V5: Parabolic(theta)}), {V5: 1})
    gens_len = len(q_b.conditions[0].sampler_gens(q_b.components[0]))
    preset_bounds = [32, 12, 5, 7, 17, 25, 49, gens_len]
    bounds = list(range(1, 71))
    for k in range(1, 66):
        bounds += [2**k - 1, 2**k, 2**k + 1]
    interleaved = [
        b for i, base in enumerate(bounds) for b in (base, preset_bounds[i % len(preset_bounds)])
    ]
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        assert [_below(bits, n) for n in interleaved] == [theirs.randrange(n) for n in interleaved]
        assert ours.getstate() == theirs.getstate()


def test_samples_match_the_randrange_reference():
    theta = root_subset(4, {2, 3})
    deep_parabolic = FiniteQuotientGroup(
        subgroup_spec(4, {V5: Parabolic(theta), V3: Principal(1)}), {V5: 2, V3: 1}
    )
    for q in _preset_quotients() + [deep_parabolic]:
        for seed in range(200):
            assert q.sample(seed) == _ref_sample(q, seed)


def test_sample_stream_is_pinned():
    # the witness hashes carry only zero counts, so they cannot see the draws
    digest = hashlib.sha256()
    for q in _preset_quotients():
        for i in range(300):
            for m in q.sample(child_seed(0, i)):
                digest.update(repr(m.entries).encode())
        # each sample reseeds the quotient's one generator
        s1, s2 = child_seed(1, 0), child_seed(1, 1)
        first = q.sample(s1)
        q.sample(s2)
        assert q.sample(s1) == first
    assert digest.hexdigest() == (
        "21eeac7f0635ee34118f79942309ca5b34042f7e1faf132c6dd44c5fce819018"
    )


def _sampler_cases():
    """(n, p, e, condition) beyond the preset shapes: Full, every
    Principal(d <= e), every CentralPrincipal(m > 1 dividing gcd(n, p - 1))
    and two Parabolic root subsets, over n in 2..5, p in {3, 5, 7} and
    e in 1..4; n = 2 and 4 reach the specialised sampler branches.

    e = 4 is needed at depth 1: an error of p^(2 depth) in the (0, 0)
    cofactor moves the repaired entry only by a multiple of p^(3 depth)."""
    for n in (2, 3, 4, 5):
        for p in (3, 5, 7):
            for e in (1, 2, 3, 4):
                yield n, p, e, Full()
                for d in range(1, e + 1):
                    yield n, p, e, Principal(d)
                    for m in range(2, n + 1):
                        if n % m == 0 and (p - 1) % m == 0:
                            yield n, p, e, CentralPrincipal(m, d)
                yield n, p, e, Parabolic(root_subset(n, ()))
                yield n, p, e, Parabolic(root_subset(n, range(2, n)))


def test_component_samplers_are_draw_identical_beyond_the_presets():
    kinds = set()
    for n, p, e, cond in _sampler_cases():
        place = rational_place(p)
        q = FiniteQuotientGroup(subgroup_spec(n, {place: cond}), {place: e})
        c = q.components[0]
        kinds.add((n, type(cond).__name__))
        for seed in range(12):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert (cond.sample(c, ours),) == _ref_components(q, theirs), (n, p, e, cond, seed)
            assert ours.getstate() == theirs.getstate(), (n, p, e, cond, seed)
    assert {(n, "CentralPrincipal") for n in (2, 3, 4)} <= kinds


def _sampler_gen_sets():
    """(label, generator list, n, ring): the parabolic samplers of both
    method-B root subsets at level 1, the level-2 parabolic sampler, and a
    set widened by a dense matrix, its inverse and a signed permutation."""
    out = []
    for theta in ({2, 3}, {1, 2}):
        q = FiniteQuotientGroup(
            subgroup_spec(4, {V5: Parabolic(root_subset(4, theta))}), {V5: 1}
        )
        gens = q.conditions[0].sampler_gens(q.components[0])
        out.append((f"theta {sorted(theta)} mod 5", gens, 4, q.rings[0]))
    q2 = FiniteQuotientGroup(
        subgroup_spec(4, {V5: Parabolic(root_subset(4, {2, 3}))}), {V5: 2}
    )
    gens2 = q2.conditions[0].sampler_gens(q2.components[0])
    out.append(("theta [2, 3] mod 25", gens2, 4, q2.rings[0]))
    ring = q2.rings[0]
    dense = from_rows([[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]], ring)
    out.append(("with dense", gens2 + [dense, mat_inv(dense), longest_weyl(4, ring)], 4, ring))
    return out


def test_random_word_still_certifies_its_word():
    # a generator of determinant 2 mod 25, which only _closed can build; 2
    # has order 20 mod 25, so no word of at most PARABOLIC_WORD_MAX factors
    # has determinant 1, and the unpacked word is refused by from_rows
    ring = residue_ring(5, 2)
    bad = SLMat._closed(ring, ((2, 1, 0, 0), (0, 1, 0, 3), (0, 4, 1, 0), (0, 0, 0, 1)))
    assert _det_int(bad.entries) % 25 == 2
    for seed in range(20):
        with pytest.raises(InputError, match="determinant is not 1 in the ring"):
            _random_word(random.Random(seed), [_column_ops(bad)], 4, ring)


def test_column_ops_list_the_moved_columns():
    ring = residue_ring(5, 1)
    assert _column_ops(identity(4, ring)) == ()
    assert _column_ops(elementary(4, 0, 2, 3, ring)) == ((2, ((0, 3), (2, 1))),)
    torus = from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ring)
    assert _column_ops(torus) == ((0, ((0, 2),)), (1, ((1, 3),)))


def test_random_word_matches_the_dense_product():
    for label, gens, n, ring in _sampler_gen_sets():
        ops = [_column_ops(g) for g in gens]
        if label == "with dense":
            # the general sum and a moved single-term column are both exercised
            assert any(len(terms) > 2 for op in ops for _, terms in op)
            assert any(k != c for op in ops for c, terms in op if len(terms) == 1 for k, _ in terms)
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _random_word(ours, ops, n, ring) == _ref_word(theirs, gens, n, ring), label
            assert ours.getstate() == theirs.getstate()
    # the packing width at its bound: words of PARABOLIC_WORD_MAX factors
    # (a first draw of 11), modulus 2^31 - 1 (prime), and a dense factor with
    # every off-diagonal entry mod - 1, the diagonal mod - 2 and (0, 0)
    # repaired to det 1; a matrix of all mod - 1 would have rank 1
    mod, n = MAX_MODULUS - 1, 4
    ring = residue_ring(mod, 1)
    rows = [[mod - 1 - (i == j) for j in range(n)] for i in range(n)]
    det, cof = _det_int(rows) % mod, _det_int(_minor(rows, 0, 0)) % mod
    rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    dense = from_rows(rows, ring)
    gens = [dense, mat_inv(dense)]
    ops = [_column_ops(g) for g in gens]
    seeds = [s for s in range(1000) if random.Random(s).getrandbits(4) == PARABOLIC_WORD_MAX - 1]
    assert len(seeds) == 49
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _random_word(ours, ops, n, ring) == _ref_word(theirs, gens, n, ring), seed
        assert ours.getstate() == theirs.getstate()


def test_sampler_ops_are_derived_from_the_dense_generators():
    q = method_b_pair().quotient2
    for cond, c in zip(q.conditions, q.components):
        if isinstance(cond, Parabolic):
            gens = cond.sampler_gens(c)
            assert all(isinstance(g, SLMat) for g in gens)
            assert cond.sampler_ops(c) == [_column_ops(g) for g in gens]


def test_identity_is_built_once():
    q = FiniteQuotientGroup(subgroup_spec(2, {V5: Principal(1)}), {V5: 1, V7: 1})
    assert q.identity() is q.identity()
    (g, _) = q.sample(3)
    assert g is q.identity()[0]


# ---------------------------------------------------------------------------
# member against the per-entry predicate it replaced


def _ref_member(q, g):
    if len(g) != len(q.places):
        return False
    for comp, ring, cond, place in zip(g, q.rings, q.conditions, q.places):
        if not isinstance(comp, SLMat) or comp.ring != ring or comp.n != q.n:
            return False
        mod = place.p**cond.depth
        ents = comp.entries
        if isinstance(cond, Principal):
            ok = all(
                ents[i][j] % mod == (1 if i == j else 0) for i in range(q.n) for j in range(q.n)
            )
        else:
            z = ents[0][0] % mod
            ok = pow(z, cond.order, mod) == 1 and all(
                ents[i][j] % mod == (z if i == j else 0) for i in range(q.n) for j in range(q.n)
            )
        if not ok:
            return False
    return True


def _perturbations(n, ring, p, depth):
    """Scalars c*1 for every c with c^n = 1, and each moved off the
    principal shape: one off-diagonal entry by 1 or by p^(depth-1), and a
    non-scalar diagonal c*diag(u, 1/u, 1, ...)."""
    mod = ring.modulus
    e = ring.e
    scalars = sorted({pow(unit_of_order(n, p, e), k, mod) for k in range(n)})
    out = []
    for c in scalars:
        base = scalar_mul(c, identity(n, ring))
        out.append(base)
        for i, j in ((0, 1), (n - 1, 0)):
            for step in (1, p ** (depth - 1), p**depth):
                rows = [list(r) for r in base.entries]
                rows[i][j] += step
                out.append(from_rows(rows, ring))
        for u in (2, 1 + p ** (depth - 1), 1 + p**depth):
            rows = [list(r) for r in base.entries]
            rows[0][0] = c * u
            rows[1][1] = c * pow(u, -1, mod)
            out.append(from_rows(rows, ring))
    return out


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("n,p,m", [(4, 5, 2), (4, 5, 4), (2, 3, 2), (2, 5, 2)])
def test_member_matches_per_entry_predicate(n, p, m, depth, extra):
    place = rational_place(p)
    level = {place: depth + extra}
    results = []
    for cond in (Principal(depth), CentralPrincipal(m, depth)):
        q = FiniteQuotientGroup(subgroup_spec(n, {place: cond}), level)
        elements = _perturbations(n, q.rings[0], p, depth)
        elements += [q.sample(seed)[0] for seed in range(20)]
        # the type, ring and shape guard comes before the predicate
        elements += [identity(n, FiniteQuotientGroup(subgroup_spec(n, {}), {place: depth + extra + 1}).rings[0])]
        elements += [identity(3, q.rings[0]), q.identity()[0].entries]
        for g in elements:
            ours, theirs = q.member((g,)), _ref_member(q, (g,))
            assert ours == theirs, (cond, g)
            results.append(ours)
    assert True in results and False in results


@pytest.mark.parametrize("build", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_quotients_of_a_pair_share_one_ring_per_place(build):
    bundle = build()
    rebuilt = bundle_from_json(bundle_to_json(bundle))
    for i, ring in enumerate(bundle.quotient1.rings):
        assert bundle.quotient2.rings[i] is ring
        assert rebuilt.quotient1.rings[i] is ring
        assert rebuilt.quotient2.rings[i] is ring


def test_member_accepts_an_equal_ring_held_by_another_object():
    bundle = method_b_pair()
    q1, q2 = bundle.quotient1, bundle.quotient2

    def rehome(g):
        return tuple(SLMat(ResidueRing(c.ring.p, c.ring.e), c.entries) for c in g)

    for seed in range(5):
        g = q1.sample(seed)
        copy = rehome(g)
        assert all(c.ring is not r and c.ring == r for c, r in zip(copy, q1.rings))
        assert q1.member(copy)
    sep = rehome(bundle.separating_element)
    assert q1.member(sep) and not q2.member(sep)


@pytest.mark.parametrize("e", [1, 2])
def test_identity_is_a_member_under_every_condition(e):
    # member's identity pass skips the predicate, which is sound only while
    # every local condition holds at the identity
    ring = residue_ring(5, e)
    conds = [
        Full(),
        CentralPrincipal(2, 1),
        CentralPrincipal(4, e),
        Parabolic(root_subset(4, [])),
        Parabolic(root_subset(4, [2])),
    ]
    if e > 1:
        conds.append(Principal(1))
    for cond in conds:
        c = Component(4, V5, ring)
        cond.setup(c)
        assert cond.member(c, c.identity), cond


def test_identity_pass_is_by_object(monkeypatch):
    v3 = rational_place(3)
    spec = subgroup_spec(4, {v3: Principal(1), V5: Parabolic(root_subset(4, [2, 3]))})
    q = FiniteQuotientGroup(spec, {v3: 1, V5: 1})
    tested = []
    member = Principal.member
    monkeypatch.setattr(Principal, "member", lambda self, c, g: tested.append(g) or member(self, c, g))
    x = q.sample(0)
    # the trivial place samples its cached identity, which skips the predicate
    assert x[0] is q.components[0].identity
    assert q.member(x) and tested == []
    # an equal identity that is another object is tested, and passes
    copy = identity(4, q.rings[0])
    assert copy == x[0] and copy is not x[0]
    assert q.member((copy, x[1])) and tested == [copy]
    # and a non-identity matrix at the trivial place is refused
    off = elementary(4, 0, 1, 1, q.rings[0])
    assert not q.member((off, x[1])) and tested == [copy, off]
