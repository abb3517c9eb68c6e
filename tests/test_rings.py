import dataclasses
import random

import pytest

from congwit import rings
from congwit.errors import InputError
from congwit.rings import (
    PrimePlace,
    ResidueRing,
    conj_place,
    find_split_primes,
    is_prime,
    rational_place,
    residue_ring,
    smallest_primitive_root,
    split_places,
    splitting_type,
    unit_of_order,
)

from oracles import (
    QuadInt,
    crt_join,
    crt_split,
    galois_conj,
    hensel_lift_sqrt,
    residue_map,
    roots_of_unity_order,
)


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


def test_splitting_examples_against_exhaustive_squares():
    assert splitting_type(7, 2) == ("split", (3, 4))
    assert 2 in squares_mod(7)
    assert splitting_type(5, 2) == ("inert", None)
    assert 2 not in squares_mod(5)
    assert splitting_type(17, 2) == ("split", (6, 11))
    assert splitting_type(7, 14) == ("ramified", None)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29])
@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10])
def test_split_roots_square_to_d_and_sum_to_p(p, d):
    kind, roots = splitting_type(p, d) if d % p else ("ramified", None)
    if kind == "split":
        r1, r2 = roots
        assert r1 < r2 and r1 + r2 == p
        assert r1 * r1 % p == d % p and r2 * r2 % p == d % p
    elif kind == "inert":
        assert d % p not in squares_mod(p)


def test_splitting_rejects_bad_input():
    with pytest.raises(InputError):
        splitting_type(2, 3)
    with pytest.raises(InputError):
        splitting_type(9, 2)
    with pytest.raises(InputError):
        splitting_type(7, 12)


def test_find_split_primes():
    assert find_split_primes(2, 2) == [7, 17]
    assert find_split_primes(2, 1, exclude={7}) == [17]
    assert find_split_primes(2, 3) == [7, 17, 23]
    assert find_split_primes(1, 2, full_center=4) == [5, 13]


def _ref_split_primes(d, count, exclude=(), full_center=None):
    """find_split_primes by splitting_type over every odd number from 3."""
    found, p = [], 3
    while len(found) < count:
        if is_prime(p) and p not in exclude and splitting_type(p, d)[0] == "split":
            if full_center is None or p % full_center == 1 % full_center:
                found.append(p)
        p += 2
    return found


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 15, 21])
def test_find_split_primes_matches_the_splitting_type_reference(d):
    for full_center in (None, 3, 4, 6):
        for count in range(1, 9):
            expected = _ref_split_primes(d, count, (), full_center)
            assert find_split_primes(d, count, full_center=full_center) == expected
            # the ramified 3 and 5, a composite and every other prime found
            exclude = {3, 5, 9, *expected[::2]}
            got = find_split_primes(d, count, exclude=exclude, full_center=full_center)
            assert got == _ref_split_primes(d, count, exclude, full_center)


def test_find_split_primes_cap_counts_the_prime_two(monkeypatch):
    # three primes scanned: 2, which is never a candidate, then 3 and 5
    monkeypatch.setattr(rings, "PRIME_SCAN_CAP", 3)
    assert find_split_primes(1, 2) == [3, 5]
    with pytest.raises(InputError, match="candidate cap"):
        find_split_primes(1, 3)


def test_find_split_primes_rejects():
    with pytest.raises(InputError):
        find_split_primes(2, 0)


def test_hensel_examples():
    assert hensel_lift_sqrt(2, 7, 3, 1) == 3
    assert hensel_lift_sqrt(2, 7, 3, 2) == 10
    assert hensel_lift_sqrt(2, 7, 4, 2) == 39
    assert (39 * 39 - 2) % 49 == 0


def test_hensel_uniqueness_by_scan():
    # the lift is the only root of x^2 = 2 mod 49 reducing to 3 mod 7
    candidates = [x for x in range(49) if (x * x - 2) % 49 == 0 and x % 7 == 3]
    assert candidates == [hensel_lift_sqrt(2, 7, 3, 2)]


@pytest.mark.parametrize("p", [7, 17, 23])
def test_hensel_tower_compatibility(p):
    _, (r1, r2) = splitting_type(p, 2)
    for r in (r1, r2):
        lifts = [hensel_lift_sqrt(2, p, r, e) for e in range(1, 5)]
        for e, x in enumerate(lifts, start=1):
            assert (x * x - 2) % p**e == 0
            assert x % p == r
        for e in range(1, 4):
            assert lifts[e] % p**e == lifts[e - 1]


def test_hensel_rejects():
    with pytest.raises(InputError):
        hensel_lift_sqrt(2, 7, 1, 2)
    with pytest.raises(InputError):
        hensel_lift_sqrt(2, 2, 1, 2)
    with pytest.raises(InputError):
        hensel_lift_sqrt(14, 7, 0, 2)


def test_quadint_arithmetic_and_conj():
    x = QuadInt(1, 1, 2)
    assert galois_conj(x) == QuadInt(1, -1, 2)
    rng = random.Random(7)
    for _ in range(1000):
        y = QuadInt(rng.randrange(-50, 50), rng.randrange(-50, 50), 2)
        assert galois_conj(galois_conj(y)) == y
    a = QuadInt(2, 3, 2) * QuadInt(1, -1, 2)
    assert a == QuadInt(2 - 6, 3 - 2, 2)
    with pytest.raises(InputError):
        QuadInt(1, 1, 2) + QuadInt(1, 1, 3)
    with pytest.raises(InputError):
        QuadInt(0, 0, 12)


def test_conj_place():
    p1, p2 = split_places(7, 2)
    assert p1.root == 3 and p2.root == 4
    assert conj_place(p1, (p1, p2)) == p2 and conj_place(p2, (p1, p2)) == p1
    # labels are names only: the conjugate is found by (p, root)
    u, v = PrimePlace(7, 3, "u"), PrimePlace(7, 4, "v")
    assert conj_place(u, (v, u)) is v and conj_place(v, (v, u)) is u
    assert conj_place(p1) == PrimePlace(7, 4) == conj_place(p1, (p1, u))
    w = rational_place(5)
    assert conj_place(w) == w


def test_place_kind_follows_from_root():
    assert [f.name for f in dataclasses.fields(PrimePlace)] == ["p", "root", "label"]
    assert rational_place(7).kind == "rational" and rational_place(7).root is None
    assert [v.kind for v in split_places(17, 2)] == ["split_first", "split_second"]
    assert [PrimePlace(7, r).kind for r in range(1, 7)] == ["split_first"] * 3 + ["split_second"] * 3
    # the order of kinds over one prime: rational, then the smaller root, then the larger
    places = [PrimePlace(7, 4), rational_place(7), PrimePlace(5, 3), PrimePlace(7, 3)]
    ordered = sorted(places, key=lambda v: v.sort_key)
    assert [(v.p, v.kind) for v in ordered] == [
        (5, "split_second"), (7, "rational"), (7, "split_first"), (7, "split_second")
    ]


def test_residue_map_examples():
    p1, p2 = split_places(7, 2)
    x = QuadInt(1, 1, 2)
    assert residue_map(x, p1, 1) == 4
    assert residue_map(x, p2, 1) == 5
    assert residue_map(QuadInt(7, 0, 2), p1, 1) == 0


@pytest.mark.parametrize("e", [1, 2, 3])
def test_residue_map_is_ring_homomorphism(e):
    p1, _ = split_places(7, 2)
    mod = 7**e
    rng = random.Random(11 + e)
    for _ in range(1000):
        x = QuadInt(rng.randrange(-200, 200), rng.randrange(-200, 200), 2)
        y = QuadInt(rng.randrange(-200, 200), rng.randrange(-200, 200), 2)
        fx, fy = residue_map(x, p1, e), residue_map(y, p1, e)
        assert residue_map(x + y, p1, e) == (fx + fy) % mod
        assert residue_map(x * y, p1, e) == fx * fy % mod


def test_residue_map_commutes_with_conjugation():
    rng = random.Random(3)
    for e in (1, 2):
        for v in split_places(7, 2) + split_places(17, 2):
            for _ in range(250):
                x = QuadInt(rng.randrange(-99, 99), rng.randrange(-99, 99), 2)
                assert residue_map(galois_conj(x), v, e) == residue_map(x, conj_place(v), e)


def test_residue_map_rejects_unsupported_places():
    with pytest.raises(InputError):
        residue_map(QuadInt(1, 1, 2), rational_place(5), 1)


def test_roots_of_unity_order_examples_and_oracle():
    assert roots_of_unity_order(4, 5, 1) == 4
    assert roots_of_unity_order(2, 7, 2) == 2
    assert roots_of_unity_order(4, 7, 1) == 2
    for n, p, e in ((4, 5, 1), (4, 5, 2), (2, 7, 2), (4, 7, 1), (6, 13, 2), (3, 7, 1)):
        mod = p**e
        counted = sum(1 for x in range(1, mod) if x % p and pow(x, n, mod) == 1)
        assert counted == roots_of_unity_order(n, p, e)
    # independence of the exponent
    assert roots_of_unity_order(4, 5, 1) == roots_of_unity_order(4, 5, 3)
    with pytest.raises(InputError):
        roots_of_unity_order(5, 5, 1)
    with pytest.raises(InputError):
        roots_of_unity_order(3, 2, 1)


def test_crt_examples():
    moduli = (5, 7)
    assert crt_split(12, moduli) == (2, 5)
    assert crt_split(0, moduli) == (0, 0)
    assert crt_join((2, 5), moduli) == 12
    for x in range(35):
        assert crt_join(crt_split(x, moduli), moduli) == x
    assert crt_join(crt_split(1234, (8, 9, 25)), (8, 9, 25)) == 1234


def test_crt_requires_coprime_factors():
    # two places over one prime give moduli with a common factor
    for moduli in ((7, 7), (9, 3), (5, 7, 15), (4, 6), (5, 0), (5, -7), (-5, -7), ()):
        with pytest.raises(InputError, match="pairwise coprime"):
            crt_split(3, moduli)
        with pytest.raises(InputError, match="pairwise coprime"):
            crt_join((0,) * len(moduli), moduli)


def test_residue_ring_guards():
    with pytest.raises(InputError, match="exponent must be >= 1"):
        residue_ring(5, 0)
    with pytest.raises(InputError, match="exceeds the 2\\^31 guard"):
        residue_ring(46337, 3)  # 46337^3 > 2^31
    ring = residue_ring(7, 2)
    assert [f.name for f in dataclasses.fields(ResidueRing)] == ["p", "e"]
    assert (ring.p, ring.e, ring.modulus) == (7, 2, 49)
    assert "modulus" in ResidueRing.__dict__ and isinstance(ResidueRing.__dict__["modulus"], property)


def test_canonical_units():
    assert smallest_primitive_root(5, 1) == 2
    assert unit_of_order(4, 5, 1) == 2
    assert unit_of_order(2, 7, 1) == 6
    assert unit_of_order(2, 5, 2) == 24
    for m, p, e in ((4, 5, 2), (2, 7, 2), (4, 13, 1), (6, 7, 2)):
        z = unit_of_order(m, p, e)
        mod = p**e
        assert pow(z, m, mod) == 1
        assert all(pow(z, k, mod) != 1 for k in range(1, m))
    with pytest.raises(InputError):
        unit_of_order(4, 7, 1)


def test_canonical_units_form_a_tower():
    # reducing the order-m unit mod p^e gives the one mod p^(e-1), so the
    # central transports at every level are compatible
    triples = [
        (m, p, e)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        for e in range(2, 6)
        for m in range(1, p)
        if (p - 1) % m == 0
    ]
    assert len(triples) == 292
    for m, p, e in triples:
        assert unit_of_order(m, p, e) % p ** (e - 1) == unit_of_order(m, p, e - 1), (m, p, e)


def test_residue_rings_are_interned_and_errors_are_not():
    assert residue_ring(7, 2) is residue_ring(7, 2)
    assert residue_ring(7, 2) == ResidueRing(7, 2) and residue_ring(7, 1) != residue_ring(7, 2)
    for _ in range(2):
        with pytest.raises(InputError, match="exponent must be >= 1"):
            residue_ring(7, 0)
        with pytest.raises(InputError, match="9 is not prime"):
            residue_ring(9, 1)
