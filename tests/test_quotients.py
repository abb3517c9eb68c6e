import functools
import hashlib
import json
import math
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congwit.errors import InputError
from congwit.kernels import GENERATED_MAX_N, word_kernel
from congwit.matrices import (
    SLMat,
    _bareiss,
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
from congwit.parabolics import parabolic_generators, parabolic_order, root_subset
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
    _PRINCIPAL,
    _column_ops,
    _principal_sample,
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
from congwit import twists
from congwit.twists import child_seed, verify_iso

from oracles import (
    central_principal_member,
    longest_weyl,
    minus_identity,
    principal_member,
    reduce_mat,
    sl2_word_image_order,
    tuple_inv,
)

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
    ident = q.identity
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
    assert q1.member(q1.identity)
    g = (minus_identity(4, q1.rings[0]), identity(4, q1.rings[1]))
    assert q1.member(g)
    assert not q2.member(g)


def test_member_method_b_example():
    theta = root_subset(4, {2, 3})
    spec = subgroup_spec(
        4, {V5: Parabolic(theta), V7: Parabolic(theta), V3: Principal(1)}
    )
    q = FiniteQuotientGroup(spec, {V5: 1, V7: 1, V3: 1})
    g = list(q.identity)
    g[q.place_index(V5)] = elementary(4, 1, 0, 1, q.rings[q.place_index(V5)])
    assert not q.member(tuple(g))


def test_member_rejects_mismatched_shapes_gracefully():
    spec1, _ = method_a_specs()
    q = FiniteQuotientGroup(spec1, {V5: 1, V7: 1})
    assert not q.member((q.identity[0],))
    wrong_ring = identity(4, FiniteQuotientGroup(spec1, {V5: 2, V7: 1}).rings[0])
    assert not q.member((wrong_ring, q.identity[1]))


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


def test_central_orders_are_refused_exactly_where_no_central_torsion_exists():
    # m < 1 or m not dividing gcd(n, p - 1): central_element refuses m, and
    # so does the set-up of a CentralPrincipal(m, 1) quotient, with the one
    # message a spec reaches; the elements that exist are pinned entry by entry
    digest = hashlib.sha256()
    for n in (2, 3, 4, 6):
        for p in (5, 7, 13):
            v = rational_place(p)
            for e in (1, 2):
                q = FiniteQuotientGroup(subgroup_spec(n, {}), {v: e})
                for m in (-2, 0, 1, 2, 3, 4, 6):
                    refused = m < 1 or math.gcd(n, p - 1) % m != 0
                    if refused:
                        with pytest.raises(InputError):
                            central_element(q, v, m)
                    else:
                        digest.update(repr((n, p, e, m, central_element(q, v, m)[0].entries)).encode())
                    if m < 1:
                        continue
                    spec = subgroup_spec(n, {v: CentralPrincipal(m, 1)})
                    if not refused:
                        FiniteQuotientGroup(spec, {v: e})
                        continue
                    with pytest.raises(InputError) as info:
                        FiniteQuotientGroup(spec, {v: e})
                    assert str(info.value) == (
                        f"central order {m} does not divide gcd(n, p-1) at p{p}; "
                        "central elements of that order do not exist there"
                    )
    assert digest.hexdigest() == (
        "8e373298b9dc9c290a5c702cc2c7b1f7c620272d6897f78cc3a8f83edc7ea186"
    )


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
        assert q.generators
        for g in q.generators:
            assert q.member(g)


def test_closure_limit_returns_none():
    q = FiniteQuotientGroup(subgroup_spec(2, {V7: Full()}), {V7: 1})
    assert closure(q.generators, q.identity, 10) is None


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
# A sample reads one integer from shake_128 of its seed and takes each draw
# as the next digit of that integer in mixed radix.  The references below
# are the randrange-based samplers of the Mersenne Twister stream, kept
# verbatim: driven by a random.Random they draw the old distribution, and
# driven by a _Digits reader they draw the digit stream, so they pin every
# draw of the samplers.


class _Digits:
    """An integer read as mixed-radix digits, least significant first:
    randrange(m) is the next digit, from range(m)."""

    def __init__(self, r):
        self.r = r

    def randrange(self, m):
        self.r, d = divmod(self.r, m)
        return d

    def randint(self, a, b):
        return a + self.randrange(b - a + 1)


class _Longest(_Digits):
    """A reader whose every digit is the largest of its range, so the sampler
    it drives takes its longest draw sequence; space is the product of the
    radices read."""

    def __init__(self):
        self.space = 1

    def randrange(self, m):
        self.space *= m
        return m - 1


def _stream(seed, nbytes):
    return int.from_bytes(hashlib.shake_128(str(seed).encode()).digest(nbytes), "little")


def _draw_space(q, idx):
    """The product of the radices on the longest draw sequence of component idx."""
    longest = _Longest()
    _ref_component(q, idx, longest)
    return longest.space


def _budget(q):
    """Bytes a sample reads: the draw spaces in bits, plus 64 bits."""
    bits = sum((_draw_space(q, idx) - 1).bit_length() for idx in range(len(q.components)))
    return (bits + 64 + 7) // 8


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
    det = _bareiss(rows) % mod
    if det != 1:
        cof = _bareiss(_minor(rows, 0, 0)) % mod
        rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    return from_rows(rows, ring)


def _ref_components(q, rng):
    return tuple(_ref_component(q, idx, rng) for idx in range(len(q.components)))


def _ref_component(q, idx, rng):
    n, ring, cond, c = q.n, q.rings[idx], q.conditions[idx], q.components[idx]
    place, e = q.level[idx]
    if isinstance(cond, Full):
        return _ref_elementary_word(rng, n, ring, FULL_WORD_MAX)
    if isinstance(cond, Parabolic):
        g = _ref_word(rng, cond.sampler_gens(c), n, ring)
        if e > 1:
            g = mat_mul(g, _ref_principal_sample(rng, n, ring, 1))
        return g
    if isinstance(cond, Principal):
        return _ref_principal_sample(rng, n, ring, cond.depth)
    z = unit_of_order(cond.order, place.p, e)
    k = rng.randrange(cond.order)
    base = _ref_principal_sample(rng, n, ring, cond.depth)
    scalar = pow(z, k, ring.modulus)
    return from_rows([[v * scalar for v in row] for row in base.entries], ring)


def _preset_quotients():
    quotients = []
    for build in (method_a_pair, method_b_pair, method_c_pair, s16_pair):
        bundle = build()
        quotients += [bundle.quotient1, bundle.quotient2]
    return quotients


def test_samples_match_the_digit_reference():
    theta = root_subset(4, {2, 3})
    deep_parabolic = FiniteQuotientGroup(
        subgroup_spec(4, {V5: Parabolic(theta), V3: Principal(1)}), {V5: 2, V3: 1}
    )
    for q in _preset_quotients() + [deep_parabolic]:
        nbytes = _budget(q)
        for seed in range(200):
            assert q.sample(seed) == _ref_components(q, _Digits(_stream(seed, nbytes)))


def test_sample_stream_is_pinned():
    # the witness hashes carry only zero counts, so they cannot see the draws
    digest = hashlib.sha256()
    for q in _preset_quotients():
        for i in range(300):
            for m in q.sample(child_seed(0, i)):
                digest.update(repr(m.entries).encode())
        # a sample holds no state, so a seed sampled again gives the same member
        s1, s2 = child_seed(1, 0), child_seed(1, 1)
        first = q.sample(s1)
        q.sample(s2)
        assert q.sample(s1) == first
    assert digest.hexdigest() == (
        "48689d6bc7d8ed36e8d7cd10b5077a41763030f7b320b0e02dbdc975e5209c32"
    )


def test_full_samples_beyond_the_presets_are_pinned():
    # the preset quotients' Full places are all n = 2
    digest = hashlib.sha256()
    for n, p, e in ((3, 5, 1), (4, 7, 2), (6, 7, 1), (9, 7, 1)):
        q = FiniteQuotientGroup(subgroup_spec(n, {}), {rational_place(p): e})
        for i in range(300):
            digest.update(repr(q.sample(child_seed(0, i))[0].entries).encode())
    assert digest.hexdigest() == (
        "5290b8c6b287fe071bf46373ac680bf7a24779dc928ccd8917c5c96262227a9e"
    )


def test_generator_sets_are_pinned():
    # the order of the roots, the torus and the scalar fixes the parabolic
    # word tables, so it is pinned entry by entry, not only as a generated group
    digest = hashlib.sha256()
    for n in (2, 3, 4, 6, 9):
        theta = root_subset(n, [i for i in range(1, n) if i % 3 != 1])
        for cond, e in (
            (Full(), 1),
            (Full(), 2),
            (Principal(1), 2),
            (Principal(1), 3),
            (CentralPrincipal(math.gcd(n, 6), 1), 2),
            (Parabolic(theta), 1),
            (Parabolic(theta), 2),
        ):
            q = FiniteQuotientGroup(subgroup_spec(n, {V7: cond}), {V7: e})
            digest.update(repr([g.entries for (g,) in q.generators]).encode())
        for e in (1, 2):
            gens = parabolic_generators(theta, residue_ring(7, e))
            digest.update(repr([g.entries for g in gens]).encode())
    assert digest.hexdigest() == (
        "56c2618616717b8811e324a7368c3b8a3ddf4f7d99ef42e0e96ec5f5c674bc91"
    )


def test_two_threads_sample_one_quotient_as_one_thread_does():
    # a fresh quotient, so that the threads also race to its first sample
    seeds = [child_seed(5, i) for i in range(300)]
    expected = [method_b_pair().quotient2.sample(s) for s in seeds]
    q, results = method_b_pair().quotient2, {}

    def run(k):
        results[k] = [q.sample(s) for s in seeds]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == expected


def _sampler_cases():
    """(n, p, e, condition) beyond the preset shapes: Full, every
    Principal(d <= e), every CentralPrincipal(m > 1 dividing gcd(n, p - 1))
    and two Parabolic root subsets, over n in 2..6, p in {3, 5, 7} and
    e in 1..4; each n reaches its own generated principal kernel, and each
    table its own word kernel.  At n = 9, above GENERATED_MAX_N, where the
    principal kernel is the generic one: Full, Principal, CentralPrincipal
    of order 3 and one Parabolic at p = 7.

    e = 4 is needed at depth 1: an error of p^(2 depth) in the (0, 0)
    cofactor moves the repaired entry only by a multiple of p^(3 depth)."""
    for n in (2, 3, 4, 5, 6):
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
    for e in (1, 2):
        yield 9, 7, e, Full()
        for d in range(1, e + 1):
            yield 9, 7, e, Principal(d)
            yield 9, 7, e, CentralPrincipal(3, d)
    yield 9, 7, 2, Parabolic(root_subset(9, (1, 3, 4, 6, 7, 8)))


def test_component_samplers_are_draw_identical_beyond_the_presets():
    kinds = set()
    for n, p, e, cond in _sampler_cases():
        place = rational_place(p)
        q = FiniteQuotientGroup(subgroup_spec(n, {place: cond}), {place: e})
        c = q.components[0]
        kinds.add((n, type(cond).__name__))
        nbytes = _budget(q)
        for seed in range(12):
            r = _stream(seed, nbytes)
            theirs = _Digits(r)
            g, rest = cond.sample(c, r)
            assert (g,) == _ref_components(q, theirs), (n, p, e, cond, seed)
            assert rest == theirs.r, (n, p, e, cond, seed)
    assert {(n, "CentralPrincipal") for n in (2, 3, 4, 6, 9)} <= kinds
    assert {(9, "Full"), (9, "Parabolic")} <= kinds


# every generated n, and the first n above the cap, which takes the generic path
@pytest.mark.parametrize("n", range(1, GENERATED_MAX_N + 2))
def test_principal_kernel_matches_the_generic_path(n):
    for p in (3, 5, 7):
        for e in (2, 3):
            ring = residue_ring(p, e)
            mod = ring.modulus
            scalars = {1, unit_of_order(math.gcd(n, p - 1), p, e)}  # z^n = 1
            for d in range(1, e):
                span, step = p ** (e - d), p**d
                nbytes = ((span ** (n * n)).bit_length() + 64 + 7) // 8
                for scalar in sorted(scalars):
                    for seed in range(6):
                        r = _stream(seed, nbytes)
                        ours = _PRINCIPAL[n](r, span, step, scalar, ring)
                        assert ours == _principal_sample(n, r, span, step, scalar, ring), (p, e, d, scalar)
                        assert SLMat(ring, ours[0].entries) == ours[0]
            bad = next(z for z in range(2, mod) if pow(z, n, mod) != 1)
            for kernel in (_PRINCIPAL[n], functools.partial(_principal_sample, n)):
                with pytest.raises(InputError, match="^determinant is not 1 in the ring$"):
                    kernel(_stream(0, 64), p, p ** (e - 1), bad, ring)


@pytest.mark.parametrize("n", range(1, GENERATED_MAX_N + 2))
def test_scalar_kernel_predicates_match_the_comprehensions(n):
    # z * 1 + p^depth * X for every unit z of order dividing p - 1 and the
    # non-unit p, then each with one entry off by 1, by p^(depth - 1) (near
    # misses) or by p^depth; the predicates read entries only, so the
    # near misses need not have determinant 1
    rng = random.Random(n)
    seen = Counter()
    for p, e, depth in ((3, 3, 1), (5, 2, 1), (7, 3, 2)):
        place, ring = rational_place(p), residue_ring(p, e)
        mod, step = ring.modulus, p**depth
        orders = [m for m in range(1, n + 1) if n % m == 0 and (p - 1) % m == 0]
        conds = [Principal(depth)] + [CentralPrincipal(m, depth) for m in orders]
        components = []
        for cond in conds:
            components.append(Component(n, place, ring))
            cond.setup(components[-1])
        root = unit_of_order(p - 1, p, e)
        for z in [pow(root, k, mod) for k in range(p - 1)] + [p]:
            span = p ** (e - depth)
            base = [[z * (i == j) + step * rng.randrange(span) for j in range(n)] for i in range(n)]
            cases = [base]
            for i in range(n):
                for j in range(n):
                    for delta in {1, p ** (depth - 1), step}:
                        rows = [row[:] for row in base]
                        rows[i][j] += delta
                        cases.append(rows)
            for rows in cases:
                g = SLMat._closed(ring, tuple(tuple(x % mod for x in row) for row in rows))
                for cond, c in zip(conds, components):
                    if isinstance(cond, Principal):
                        want = principal_member(g, step)
                    else:
                        want = central_principal_member(g, step, cond.order)
                    assert cond.member(c, g) == want, (p, e, cond, g)
                    seen[type(cond).__name__, want] += 1
    assert all(seen[kind, want] for kind in ("Principal", "CentralPrincipal") for want in (True, False))


def test_longest_draw_sequence_leaves_2_64_of_the_stream_unread():
    for n, p, e, cond in _sampler_cases():
        place = rational_place(p)
        q = FiniteQuotientGroup(subgroup_spec(n, {place: cond}), {place: e})
        space = _draw_space(q, 0)
        assert cond.draw_space(q.components[0]) == space, (n, p, e, cond)
        assert 2 ** (8 * q._budget) >= space * 2**64, (n, p, e, cond)
    for q in _preset_quotients():
        spaces = [_draw_space(q, idx) for idx in range(len(q.components))]
        assert 2 ** (8 * q._budget) >= math.prod(spaces) * 2**64


def _chi_square_homogeneity(a, b):
    """Pearson's statistic and its degrees of freedom for two samples of one
    size, given as Counters; cells with fewer than 10 draws in both samples
    together are pooled into one."""
    stat, cells, pooled = 0.0, 0, [0, 0]
    for key in set(a) | set(b):
        x, y = a[key], b[key]
        if x + y < 10:
            pooled[0] += x
            pooled[1] += y
        else:
            stat += (x - y) ** 2 / (x + y)
            cells += 1
    if sum(pooled):
        stat += (pooled[0] - pooled[1]) ** 2 / sum(pooled)
        cells += 1
    return stat, cells - 1


def _chi_square_critical(df, z=3.719):
    """The upper 10^-4 point of chi-square with df degrees of freedom, by
    the Wilson-Hilferty approximation (z is the normal 10^-4 point)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize(
    "n,e,cond,key",
    [
        (2, 1, Full(), None),
        (3, 1, Full(), lambda g: tuple(row[0] for row in g.entries)),
        (2, 2, Principal(1), None),
        (2, 2, CentralPrincipal(2, 1), None),
        (2, 2, Parabolic(root_subset(2, ())), None),
    ],
    ids=["full-n2", "full-n3", "principal", "central-principal", "parabolic"],
)
def test_component_samplers_keep_the_randrange_distribution(n, e, cond, key):
    # small quotients at p = 3: 24, 27, 54 and 162 elements, and for SL_3(F_3)
    # the 26 first columns
    key = key or (lambda g: g.entries)
    q = FiniteQuotientGroup(subgroup_spec(n, {V3: cond}), {V3: e})
    draws = 2000
    ours = Counter(key(q.sample(seed)[0]) for seed in range(draws))
    theirs = Counter(key(_ref_component(q, 0, random.Random(seed))) for seed in range(draws))
    stat, df = _chi_square_homogeneity(ours, theirs)
    assert df >= 20
    assert stat < _chi_square_critical(df), (stat, df)


def _sampler_gen_sets():
    """(label, generator list, n, ring): the parabolic samplers of both
    method-B root subsets at level 1, the level-2 parabolic sampler, a set
    widened by a dense matrix, its inverse and a signed permutation, one
    widened by the identity, and level-2 parabolic samplers at n = 3, 5, 6
    and 9."""
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
    out.append(("with identity", gens2[:3] + [identity(4, ring)] + gens2[3:], 4, ring))
    for n, theta in ((3, {1}), (5, {1, 3}), (6, {2, 4, 5}), (9, {1, 2, 5, 7})):
        q = FiniteQuotientGroup(subgroup_spec(n, {V7: Parabolic(root_subset(n, theta))}), {V7: 2})
        gens = q.conditions[0].sampler_gens(q.components[0])
        out.append((f"n = {n}, theta {sorted(theta)} mod 49", gens, n, q.rings[0]))
    return out


def _word(r, gens, n, ring):
    """The word kernel of gens' column operations, as Parabolic.sample runs
    it, and what is left of r; the word is built unchecked, so this checks
    that it is canonically reduced and of determinant 1."""
    ops = tuple(_column_ops(g.entries) for g in gens)
    word, r = word_kernel(n, ops, ring.modulus, PARABOLIC_WORD_MAX, SLMat._closed)(r, ring)
    assert type(word) is SLMat and word.ring is ring
    assert SLMat(ring, word.entries) == word
    return word, r


def test_random_word_still_certifies_its_word(monkeypatch):
    # a generator of determinant 2 mod 25, which only _closed can build; the
    # table's certification refuses it before any word is drawn, so no
    # digit of r is read and the kernel is never built
    ring = residue_ring(5, 2)
    bad = SLMat._closed(ring, ((2, 1, 0, 0), (0, 1, 0, 3), (0, 4, 1, 0), (0, 0, 0, 1)))
    assert _det_int(bad.entries) % 25 == 2
    monkeypatch.setattr(Parabolic, "sampler_gens", lambda self, c: [bad])
    q = FiniteQuotientGroup(subgroup_spec(4, {V5: Parabolic(root_subset(4, {2, 3}))}), {V5: 2})
    cond, c = q.conditions[0], q.components[0]
    with pytest.raises(InputError, match="determinant is not 1 in the ring"):
        cond.sampler_ops(c)
    assert c.word is None
    for seed in range(20):
        with pytest.raises(InputError, match="determinant is not 1 in the ring"):
            cond.sample(c, _stream(seed, 32))
        assert c.word is None


@pytest.mark.parametrize(
    "entry, message",
    [
        # t on the diagonal: det = t, which is 0 at t = 0
        (((None, 0, 0), (0, 1, 0), (0, 0, 1)), "determinant is not 1 in the ring"),
        # t in one column with det = 1 - t: 1 at t = 0, refused at t = 1
        (((1, 1, 0), (None, 1, 0), (0, 0, 1)), "determinant is not 1 in the ring"),
        # t in two columns: det = 1 - t^2 is 1 at t = 0, and affine in t no more
        (((1, None, 0), (None, 1, 0), (0, 0, 1)), "multiplier in one column"),
        # an unreduced coefficient would break the word kernel's packing bound
        (((1, None, 0), (0, 1, -1), (0, 0, 1)), None),
    ],
)
def test_full_table_entries_are_certified_at_the_first_sample(monkeypatch, entry, message):
    q = FiniteQuotientGroup(subgroup_spec(3, {}), {V7: 1})
    cond, c = q.conditions[0], q.components[0]
    table = Full().table(c)
    monkeypatch.setattr(Full, "table", lambda self, c: [*table, entry])
    if message is None:
        # certified, and read back reduced
        assert cond.sampler_ops(c)[-1] == ((1, ((0, None), (1, 1))), (2, ((1, 6), (2, 1))))
        return
    with pytest.raises(InputError, match=message):
        q.sample(0)
    assert c.word is None


def test_column_ops_list_the_moved_columns():
    ring = residue_ring(5, 1)
    assert _column_ops(identity(4, ring).entries) == ()
    assert _column_ops(elementary(4, 0, 2, 3, ring).entries) == ((2, ((0, 3), (2, 1))),)
    torus = from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ring)
    assert _column_ops(torus.entries) == ((0, ((0, 2),)), (1, ((1, 3),)))
    # a Full table entry's t is a coefficient like any other
    assert _column_ops(((1, 0), (None, 1))) == ((0, ((0, 1), (1, None))),)


def test_random_word_matches_the_dense_product():
    for label, gens, n, ring in _sampler_gen_sets():
        ops = [_column_ops(g.entries) for g in gens]
        if label == "with dense":
            # the general sum and a moved single-term column are both exercised
            assert any(len(terms) > 2 for op in ops for _, terms in op)
            assert any(k != c for op in ops for c, terms in op if len(terms) == 1 for k, _ in terms)
        if label == "with identity":
            assert ops[3] == ()
        for seed in range(200):
            r = _stream(seed, 32)
            theirs = _Digits(r)
            assert _word(r, gens, n, ring) == (_ref_word(theirs, gens, n, ring), theirs.r), label
    # the packing width at its bound: words of PARABOLIC_WORD_MAX factors
    # (a first digit of 11), modulus 2^31 - 1 (prime), and a dense factor with
    # every off-diagonal entry mod - 1, the diagonal mod - 2 and (0, 0)
    # repaired to det 1; a matrix of all mod - 1 would have rank 1
    mod, n = MAX_MODULUS - 1, 4
    ring = residue_ring(mod, 1)
    rows = [[mod - 1 - (i == j) for j in range(n)] for i in range(n)]
    det, cof = _det_int(rows) % mod, _det_int(_minor(rows, 0, 0)) % mod
    rows[0][0] = (rows[0][0] + (1 - det) * pow(cof, -1, mod)) % mod
    dense = from_rows(rows, ring)
    gens = [dense, mat_inv(dense)]
    streams = [_stream(s, 32) for s in range(1000)]
    streams = [r for r in streams if r % PARABOLIC_WORD_MAX == PARABOLIC_WORD_MAX - 1]
    assert len(streams) == 84
    for r in streams:
        theirs = _Digits(r)
        assert _word(r, gens, n, ring) == (_ref_word(theirs, gens, n, ring), theirs.r)
    # and the Full word's: FULL_WORD_MAX factors (a first digit of 31), each
    # drawing its multiplier t from range(mod)
    c = Component(n, rational_place(mod), ring)
    Full().setup(c)
    streams = [_stream(s, 160) for s in range(1000)]
    streams = [r for r in streams if r % FULL_WORD_MAX == FULL_WORD_MAX - 1]
    assert len(streams) == 41
    for r in streams:
        theirs = _Digits(r)
        assert Full().sample(c, r) == (_ref_elementary_word(theirs, n, ring, FULL_WORD_MAX), theirs.r)


def test_sampler_ops_are_derived_from_the_dense_generators():
    # the word kernel is keyed by the table, so a second quotient with the
    # same conditions builds its own table and shares the compiled kernel
    q, again = method_b_pair().quotient2, method_b_pair().quotient2
    for cond, c, c_again in zip(q.conditions, q.components, again.components):
        if isinstance(cond, Parabolic):
            gens = cond.sampler_gens(c)
            assert all(isinstance(g, SLMat) for g in gens)
            assert cond.sampler_ops(c) == tuple(_column_ops(g.entries) for g in gens)
            assert c.word is word_kernel(c.n, c.ops, c.ring.modulus, PARABOLIC_WORD_MAX, SLMat._closed)
            # the kernel's word is the dense product of the drawn generators
            for seed in range(50):
                theirs = _Digits(_stream(seed, 32))
                word, rest = cond.sample(c, theirs.r)
                assert (word, rest) == (_ref_word(theirs, gens, c.n, c.ring), theirs.r)
                assert SLMat(c.ring, word.entries) == word
            assert cond.sampler_ops(c_again) is not c.ops and c_again.word is c.word


def test_identity_is_built_once():
    q = FiniteQuotientGroup(subgroup_spec(2, {V5: Principal(1)}), {V5: 1, V7: 1})
    assert q.identity is q.identity
    (g, _) = q.sample(3)
    assert g is q.identity[0]


# ---------------------------------------------------------------------------
# member against the comprehension predicates it replaced


def _ref_member(q, g):
    if len(g) != len(q.places):
        return False
    for comp, ring, cond, place in zip(g, q.rings, q.conditions, q.places):
        if not isinstance(comp, SLMat) or comp.ring != ring or comp.n != q.n:
            return False
        mod = place.p**cond.depth
        if isinstance(cond, Principal):
            ok = principal_member(comp, mod)
        else:
            ok = central_principal_member(comp, mod, cond.order)
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
        elements += [identity(3, q.rings[0]), q.identity[0].entries]
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


@pytest.mark.parametrize("build", [method_b_pair, method_c_pair])
def test_pairs_pass_their_trivial_places_by_identity(build, monkeypatch):
    # a trivial place samples the identity of its (n, ring), the one object
    # that the target's place compares against too, so no pair runs the
    # Principal predicate
    monkeypatch.setattr(twists, "usable_cpus", lambda: [])
    iso = build().iso
    tested = []
    member = Principal.member
    monkeypatch.setattr(Principal, "member", lambda self, c, g: tested.append(g) or member(self, c, g))
    assert verify_iso(iso, 200, 0).witnessed
    assert tested == []


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
    copy = SLMat(q.rings[0], x[0].entries)
    assert copy == x[0] and copy is not x[0]
    assert q.member((copy, x[1])) and tested == [copy]
    # and a non-identity matrix at the trivial place is refused
    off = elementary(4, 0, 1, 1, q.rings[0])
    assert not q.member((off, x[1])) and tested == [copy, off]


@pytest.mark.parametrize("m, p", [(2, 5), (4, 13)])
def test_central_principal_at_full_depth_samples_the_identity_by_object(m, p):
    # at depth = e the kernel draws nothing: k = 0 is the shared identity
    # object, which the identity pass skips, and k != 0 the scalar unit^k
    v = rational_place(p)
    q = FiniteQuotientGroup(subgroup_spec(4, {v: CentralPrincipal(m, 1)}), {v: 1})
    cond, c = q.conditions[0], q.components[0]
    for r in range(3 * m):
        g, rest = cond.sample(c, r)
        k = r % m
        assert rest == r // m
        if k == 0:
            assert g is c.identity
        else:
            assert g is not c.identity and g == scalar_mul(c.scalars[k], c.identity)
        assert q.member((g,))
