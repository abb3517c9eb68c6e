import random

import pytest

from congwit.errors import InputError
from congwit.matrices import from_rows
from congwit.presets import (
    method_a_pair,
    method_b_pair,
    method_c_pair,
    obstruction_report,
    s16_pair,
)


def test_method_a_defaults():
    bundle = method_a_pair(4, 5, 7, 2, 2)
    assert bundle.method == "A"
    assert bundle.quotient1.order == bundle.quotient2.order == 2 * 5**15 * 7**15
    presence = bundle.obstruction.data["central_presence"]
    assert presence["quotient1"] == {"p5": True, "p7": False}
    assert presence["quotient2"] == {"p5": False, "p7": True}
    assert bundle.obstruction.holds
    assert bundle.spec1 != bundle.spec2


def test_method_a_separating_element():
    bundle = method_a_pair()
    sep = bundle.separating_element
    assert bundle.quotient1.member(sep)
    assert not bundle.quotient2.member(sep)
    assert sep[0].entries[0][0] == 24  # -1 mod 25 at the place 5


def test_method_a_order_four_parameters():
    bundle = method_a_pair(4, 5, 13, 4, 1)
    assert bundle.obstruction.holds
    assert bundle.quotient1.order == bundle.quotient2.order == 4


def test_method_a_rejections():
    with pytest.raises(InputError):
        method_a_pair(4, 5, 7, 4, 1)  # 4 does not divide gcd(4, 6)
    with pytest.raises(InputError):
        method_a_pair(4, 5, 5, 2, 1)
    with pytest.raises(InputError):
        method_a_pair(4, 2, 7, 2, 1)
    with pytest.raises(InputError):
        method_a_pair(4, 5, 7, 1, 1)
    with pytest.raises(InputError):
        method_a_pair(4, 5, 9, 2, 1)


def test_method_b_defaults():
    bundle = method_b_pair(5, 7)
    data = bundle.obstruction.data
    assert data["theta"] == [2, 3]
    assert data["theta_image"] == [1, 2]
    assert not data["theta_symmetric"]
    assert data["fixed_lines"]["p5"] == {"theta": 1, "theta_image": 0}
    assert data["fixed_lines"]["p7"] == {"theta": 1, "theta_image": 0}
    assert data["parabolic_orders"]["p5"]["theta"] == 186_000_000
    assert bundle.obstruction.holds
    assert bundle.quotient1.order == bundle.quotient2.order


def test_method_b_separating_element():
    bundle = method_b_pair()
    assert bundle.quotient1.member(bundle.separating_element)
    assert not bundle.quotient2.member(bundle.separating_element)


def test_method_b_rejections():
    with pytest.raises(InputError):
        method_b_pair(5, 5)
    with pytest.raises(InputError):
        method_b_pair(3, 7)
    with pytest.raises(InputError):
        method_b_pair(5, 2)


def _int_mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _elementary_words(rng, step, count=60, length=8):
    """Integer products of 4x4 elementaries E_ij(t), t a multiple of step(i, j)."""
    words = []
    for _ in range(count):
        g = [[int(r == c) for c in range(4)] for r in range(4)]
        for _ in range(length):
            i, j = rng.sample(range(4), 2)
            e = [[int(r == c) for c in range(4)] for r in range(4)]
            e[i][j] = step(i, j) * rng.randint(-3, 3)
            g = _int_mul(g, e)
        words.append(g)
    return words


def _diag_conj(g, d, mod=None):
    """d g d^(-1) for the diagonal d: over Z, where every division must be
    exact, or mod a prime dividing no entry of d."""
    out = []
    for di, row in zip(d, g):
        out.append([])
        for dj, x in zip(d, row):
            if mod is None:
                assert di * x % dj == 0
                out[-1].append(di * x // dj)
            else:
                out[-1].append(di * x * pow(dj, -1, mod) % mod)
    return out


def _at_places(quotient, local):
    """The element of the quotient whose component at each place v is local(v)."""
    return tuple(from_rows(local(v), ring) for v, ring in zip(quotient.places, quotient.rings))


@pytest.mark.parametrize("p, q", [(5, 7), (13, 5)])
def test_method_b_subgroups_are_conjugate_by_gamma_d(p, q):
    # The probe behind ROADMAP item 1: with D = diag(q, 1, 1, 1) and gamma in
    # SL_4(Z) with gamma = 1 at 3 and p and gamma = sigma at q, conjugation by
    # gamma D carries Gamma_1 into Gamma_2 and back.  Checked place by place,
    # so no lift of gamma is built: sigma sends e2, e3, e4 to e1, e2, e3 and
    # e1 to -e4, moving the hyperplane <e2, e3, e4> onto <e1, e2, e3>.
    bundle = method_b_pair(p, q)
    q1, q2 = bundle.quotient1, bundle.quotient2
    sigma = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
    sigma_inv = [list(col) for col in zip(*sigma)]
    d, d_inv = (q, 1, 1, 1), (1, q, q, q)  # d_inv: conjugation by D^(-1), up to scale
    rng = random.Random(p * q)

    # at q the valuations matter, so D acts over Z; elsewhere D is a unit
    def forward(g):
        def local(v):
            if v.p != q:
                return _diag_conj(g, d, v.p)
            return _int_mul(_int_mul(sigma, _diag_conj(g, d)), sigma_inv)

        return local

    def backward(g):
        def local(v):
            if v.p != q:
                return _diag_conj(g, d_inv, v.p)
            return _diag_conj(_int_mul(_int_mul(sigma_inv, g), sigma), d_inv)

        return local

    # Gamma_1: t divisible by 3, and by pq in the first column below the diagonal
    gamma1 = _elementary_words(rng, lambda i, j: 3 * (p * q if j == 0 else 1))
    # Gamma_2: t divisible by 3, by p in the first column below the diagonal
    # and by q in the last row left of the diagonal
    gamma2 = _elementary_words(
        rng, lambda i, j: 3 * (p if j == 0 else 1) * (q if i == 3 else 1)
    )
    for g in gamma1:
        assert q1.member(_at_places(q1, lambda v: g))
        assert q2.member(_at_places(q2, forward(g)))
    for g in gamma2:
        assert q2.member(_at_places(q2, lambda v: g))
        assert q1.member(_at_places(q1, backward(g)))
    # the conjugation does the work: the words alone do not all cross over
    assert not all(q2.member(_at_places(q2, lambda v: g)) for g in gamma1)
    assert not all(q1.member(_at_places(q1, lambda v: g)) for g in gamma2)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: method-b's subgroups are conjugate in GL_4(Q), "
    "yet its fixed-line certificate holds",
)
def test_method_b_certificate_does_not_hold():
    assert not method_b_pair().obstruction.holds


def test_method_c_defaults():
    bundle = method_c_pair(2, 7, 17)
    labels = [v.label for v in bundle.places]
    assert labels == ["p7a", "p7b", "p17a", "p17b"]
    roots = {v.label: v.root for v in bundle.places}
    assert (roots["p7a"], roots["p7b"]) == (3, 4)
    assert (roots["p17a"], roots["p17b"]) == (6, 11)
    conj = bundle.obstruction.data["conjugation"]
    assert conj == {"p7a": "p7b", "p7b": "p7a", "p17a": "p17b", "p17b": "p17a"}
    assert bundle.obstruction.data["shared_places"] == ["p17a"]
    assert bundle.obstruction.holds
    assert bundle.quotient1.order == bundle.quotient2.order


def test_method_c_separating_element():
    bundle = method_c_pair()
    assert bundle.quotient1.member(bundle.separating_element)
    assert not bundle.quotient2.member(bundle.separating_element)


def test_method_c_rejections():
    with pytest.raises(InputError, match="inert"):
        method_c_pair(2, 5, 7)
    with pytest.raises(InputError):
        method_c_pair(1, 7, 17)
    with pytest.raises(InputError):
        method_c_pair(2, 7, 7)
    with pytest.raises(InputError, match="ramified"):
        method_c_pair(7, 7, 17)


def test_s16_defaults():
    bundle = s16_pair(7)
    assert bundle.quotient1.order == 2
    assert bundle.quotient2.order == 2
    assert bundle.obstruction.holds
    assert bundle.params == {"p": 7}


def test_s16_parameter_only_enters_the_record():
    b7 = s16_pair(7)
    b11 = s16_pair(11)
    assert b7.params != b11.params
    assert b7.quotient1.order == b11.quotient1.order
    assert b7.spec1 == b11.spec1 and b7.spec2 == b11.spec2


def test_s16_rejections():
    for p in (2, 3, 5):
        with pytest.raises(InputError):
            s16_pair(p)


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_obstruction_recompute_is_stable(bundle_fn):
    bundle = bundle_fn()
    fresh = obstruction_report(bundle)
    assert fresh.kind == bundle.obstruction.kind
    assert fresh.data == bundle.obstruction.data
    assert fresh.holds == bundle.obstruction.holds


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_narratives_present(bundle_fn):
    bundle = bundle_fn()
    assert len(bundle.obstruction.narrative) >= 2
    assert all(isinstance(line, str) and line for line in bundle.obstruction.narrative)


def test_method_b_certificate_at_large_primes():
    # the eigenspace count does not enumerate the 10^6 lines of P^3(F_101)
    bundle = method_b_pair(p=101, q=103)
    assert bundle.obstruction.holds
    assert bundle.obstruction.data["fixed_lines"] == {
        "p101": {"theta": 1, "theta_image": 0},
        "p103": {"theta": 1, "theta_image": 0},
    }
