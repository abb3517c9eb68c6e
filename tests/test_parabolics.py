import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congwit.errors import InputError
from congwit.matrices import (
    elementary,
    identity,
    mat_inv,
    mat_mul,
    sl_order,
)
from congwit.parabolics import (
    fixed_lines,
    graph_automorphism,
    graph_automorphism_inverse,
    parabolic_generators,
    parabolic_membership,
    parabolic_order,
    root_subset,
)
from congwit.quotients import closure
from congwit.rings import residue_ring

from conftest import KERNEL_RINGS, random_sl
from oracles import borel, longest_weyl, minus_identity, parabolic_full, transpose, weyl_conjugator
from projective import act, lines_of_projective_space

R5 = residue_ring(5, 1)
P1 = root_subset(4, {2, 3})
P2 = root_subset(4, {1, 2})


def test_root_subset_symmetry():
    theta = root_subset(4, {2, 3})
    assert sorted(theta.symmetric_image().members) == [1, 2]
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(1, 4), k) for k in range(4)
    ):
        theta = root_subset(4, members)
        assert theta.symmetric_image().symmetric_image() == theta
    with pytest.raises(InputError):
        root_subset(4, {0})


def test_block_sizes():
    assert root_subset(4, ()).block_sizes() == (1, 1, 1, 1)
    assert root_subset(4, {1, 2, 3}).block_sizes() == (4,)
    assert root_subset(4, {2, 3}).block_sizes() == (1, 3)
    assert root_subset(4, {1, 2}).block_sizes() == (3, 1)
    assert root_subset(4, {1, 3}).block_sizes() == (2, 2)


def test_membership_examples():
    upper = elementary(4, 0, 1, 1, R5)
    for theta in (P1, P2, borel(4), parabolic_full(4)):
        assert parabolic_membership(upper, theta)
    assert not parabolic_membership(elementary(4, 1, 0, 1, R5), P1)
    assert parabolic_membership(elementary(4, 1, 0, 1, R5), P2)
    assert not parabolic_membership(elementary(4, 3, 2, 1, R5), P2)
    assert parabolic_membership(elementary(4, 3, 2, 1, R5), P1)


def test_parabolic_order():
    assert parabolic_order(P1, 5) == 186_000_000
    assert sl_order(4, 5, 1) // parabolic_order(P1, 5) == 156
    assert parabolic_order(parabolic_full(4), 5) == sl_order(4, 5, 1)
    for p in (5, 7):
        assert parabolic_order(P1, p) == parabolic_order(P2, p)


@pytest.mark.parametrize(
    "spec,expected",
    [
        ((borel(2), 5), 20),
        ((borel(2), 3), 6),
        ((parabolic_full(2), 5), 120),
        ((borel(3), 3), 108),
        ((root_subset(3, {2}), 3), 432),
        ((root_subset(3, {1}), 5), 12_000),
    ],
)
def test_parabolic_order_against_closure(spec, expected):
    theta, p = spec
    ring = residue_ring(p, 1)
    assert parabolic_order(theta, p) == expected
    gens = [(g,) for g in parabolic_generators(theta, ring)]
    assert len(closure(gens, (identity(theta.n, ring),), 50_000)) == expected


def test_borel_sl2_f5_generators_match_construction():
    gens = parabolic_generators(borel(2), R5)
    assert [g.entries for g in gens] == [((1, 1), (0, 1)), ((2, 0), (0, 3))]


def test_generators_pass_membership():
    for theta in (P1, P2, borel(4)):
        for g in parabolic_generators(theta, R5):
            assert parabolic_membership(g, theta)


def test_graph_automorphism_examples():
    g = elementary(4, 0, 1, 1, R5)
    expected = mat_inv(elementary(4, 2, 3, 1, R5))  # identity minus E at (2,3)
    assert graph_automorphism(g) == expected
    minus = minus_identity(4, R5)
    assert graph_automorphism(minus) == minus


def test_graph_automorphism_is_multiplicative(rng):
    for ring, n in ((R5, 4), (residue_ring(5, 2), 4), (residue_ring(7, 1), 2)):
        for _ in range(300):
            x = random_sl(n, ring, rng)
            y = random_sl(n, ring, rng)
            assert graph_automorphism(mat_mul(x, y)) == mat_mul(
                graph_automorphism(x), graph_automorphism(y)
            )


def test_graph_automorphism_squares_to_inner(rng):
    for ring, n in ((R5, 4), (residue_ring(7, 1), 2), (residue_ring(5, 1), 3)):
        c = weyl_conjugator(n, ring)
        c_inv = mat_inv(c)
        for _ in range(300):
            x = random_sl(n, ring, rng)
            assert graph_automorphism(graph_automorphism(x)) == mat_mul(mat_mul(c, x), c_inv)


def test_graph_automorphism_inverse_roundtrip(rng):
    for _ in range(200):
        x = random_sl(4, R5, rng)
        assert graph_automorphism_inverse(graph_automorphism(x)) == x
        assert graph_automorphism(graph_automorphism_inverse(x)) == x


def _composite_graph_automorphism(g):
    w0 = longest_weyl(g.n, g.ring)
    return mat_mul(mat_mul(w0, mat_inv(transpose(g))), mat_inv(w0))


def _composite_graph_automorphism_inverse(g):
    w0 = longest_weyl(g.n, g.ring)
    return mat_inv(transpose(mat_mul(mat_mul(mat_inv(w0), g), w0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: f"mod{r.modulus}")
def test_graph_automorphism_matches_composite_definition(ring, n, rng):
    for _ in range(25):
        g = random_sl(n, ring, rng)
        assert graph_automorphism(g) == _composite_graph_automorphism(g)
        assert graph_automorphism_inverse(g) == _composite_graph_automorphism_inverse(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(2, 5),
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_graph_automorphism_matches_the_dense_oracle(n, p, e, seed):
    # the sliced, sign-gated kernel against w0 * (g^T)^(-1) * w0^(-1) built
    # from dense products; n = 2 and 3 need the sign pass, n = 4 and 5 skip it
    ring = residue_ring(p, e)
    g = random_sl(n, ring, random.Random(seed))
    assert graph_automorphism(g) == _composite_graph_automorphism(g)
    assert graph_automorphism_inverse(g) == _composite_graph_automorphism_inverse(g)


def test_longest_weyl_determinant_convention():
    for n in (2, 3, 4, 5):
        w0 = longest_weyl(n, residue_ring(5, 1))  # construction validates det = 1
        assert w0.n == n
        # The sign sits at (0, n-1) exactly when the reversal is odd.
        corner = 4 if (n * (n - 1) // 2) % 2 == 1 else 1
        assert w0.entries == tuple(
            tuple((corner if i == 0 else 1) if j == n - 1 - i else 0 for j in range(n))
            for i in range(n)
        )


def test_graph_automorphism_swaps_parabolics():
    for p in (5, 7):
        ring = residue_ring(p, 1)
        for g in parabolic_generators(P1, ring):
            assert parabolic_membership(graph_automorphism(g), P2)
        for g in parabolic_generators(P2, ring):
            assert parabolic_membership(graph_automorphism(g), P1)
        for g in parabolic_generators(borel(4), ring):
            assert parabolic_membership(graph_automorphism(g), borel(4))


def test_fixed_lines_baselines():
    assert fixed_lines(P1) == 1
    assert fixed_lines(P2) == 0
    assert fixed_lines(borel(2)) == 1
    assert fixed_lines(parabolic_full(2)) == 0


def test_fixed_lines_counts_whole_group_fixers():
    # fixed-by-generators equals fixed-by-group: enumerate the Borel of
    # SL_2(F_3) and check its one counted line against every element
    theta = borel(2)
    ring = residue_ring(3, 1)
    gens = [(g,) for g in parabolic_generators(theta, ring)]
    elements = closure(gens, (identity(2, ring),), 100)
    assert len(elements) == parabolic_order(theta, 3)
    fixed = [
        line
        for line in lines_of_projective_space(2, 3)
        if all(act(g, line) == line for (g,) in elements)
    ]
    assert len(fixed) == fixed_lines(theta) == 1


def test_fixed_lines_invariant_under_conjugation(rng):
    lines = lines_of_projective_space(4, 5)
    for theta, expected in ((P1, 1), (P2, 0)):
        gens = parabolic_generators(theta, R5)
        for _ in range(10):
            h = random_sl(4, R5, rng)
            h_inv = mat_inv(h)
            conjugated = [mat_mul(mat_mul(h, g), h_inv) for g in gens]
            count = sum(
                1 for line in lines if all(act(g, line) == line for g in conjugated)
            )
            assert count == expected


def _root_subsets(n):
    return [
        root_subset(n, members)
        for k in range(n)
        for members in itertools.combinations(range(1, n), k)
    ]


def _below_blocks(theta):
    """The positions (r, c) whose block comes after c's, from the block sizes."""
    blk = []
    for k, b in enumerate(theta.block_sizes()):
        blk.extend([k] * b)
    return [(r, c) for r in range(theta.n) for c in range(theta.n) if blk[r] > blk[c]]


def _block_predicate(g, theta):
    """The per-entry block test parabolic_membership replaced, read mod p."""
    return all(g.entries[r][c] % g.ring.p == 0 for r, c in _below_blocks(theta))


def test_membership_matches_the_block_predicate(rng):
    for n in (2, 3, 4):
        for ring in (residue_ring(p, e) for e in (1, 2) for p in (3, 5)):
            p = ring.p
            for theta in _root_subsets(n):
                gens = parabolic_generators(theta, ring)
                matrices = []
                for _ in range(40):
                    member = identity(n, ring)
                    for _ in range(rng.randint(1, 8)):
                        member = mat_mul(member, rng.choice(gens))
                    matrices += [member, mat_mul(member, random_sl(n, ring, rng, 3))]
                    matrices.append(random_sl(n, ring, rng))
                    if ring.e > 1:
                        # times 1 + p*t*E_ij, which is 1 mod p: a member whose
                        # entries below the blocks need not vanish mod p^2
                        i, j = rng.sample(range(n), 2)
                        kernel = elementary(n, i, j, p * rng.randrange(1, p), ring)
                        matrices.append(mat_mul(member, kernel))
                verdicts = [parabolic_membership(g, theta) for g in matrices]
                assert verdicts == [_block_predicate(g, theta) for g in matrices]
                assert any(verdicts)
                if len(theta.members) < n - 1:
                    assert not all(verdicts)
                    if ring.e > 1:
                        # some member has a nonzero multiple of p below the blocks
                        below = _below_blocks(theta)
                        assert any(
                            v and any(g.entries[r][c] for r, c in below)
                            for v, g in zip(verdicts, matrices)
                        )


def _act_count(theta, p):
    """Fixed lines counted through act and normalize_line."""
    gens = parabolic_generators(theta, residue_ring(p, 1))
    return sum(
        1
        for line in lines_of_projective_space(theta.n, p)
        if all(act(g, line) == line for g in gens)
    )


@pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in (3, 5, 7)] + [(5, 3)])
def test_fixed_lines_matches_the_action_count(n, p):
    for theta in _root_subsets(n):
        assert fixed_lines(theta) == _act_count(theta, p)
