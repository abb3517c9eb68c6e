import copy
import dataclasses
import math
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congwit.errors import InputError
from congwit.kernels import GENERATED_MAX_N
from congwit.matrices import (
    SLMat,
    _bareiss,
    _det_int,
    _minor,
    elementary,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    scalar_mul,
    sl_order,
)
from congwit.parabolics import graph_automorphism, graph_automorphism_inverse
from congwit.quotients import FiniteQuotientGroup, central_element, subgroup_spec
from congwit.rings import rational_place, residue_ring, unit_of_order

from conftest import KERNEL_RINGS, random_sl
from oracles import enumerate_sl2_order, minus_identity, reduce_mat
from projective import ProjPoint, act, lines_of_projective_space

R5 = residue_ring(5, 1)
R25 = residue_ring(5, 2)
R7 = residue_ring(7, 1)


def test_identity_and_unipotent_inverse():
    x = elementary(4, 0, 1, 1, R5)
    assert mat_mul(identity(4, R5), x) == x
    u = elementary(4, 0, 1, 1, R25)
    assert mat_inv(u) == from_rows([[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], R25)


@pytest.mark.parametrize("ring,n", [(R25, 2), (R5, 4), (R7, 3)])
def test_inverse_roundtrip_random(ring, n, rng):
    ident = identity(n, ring)
    for _ in range(1000):
        x = random_sl(n, ring, rng)
        assert mat_mul(x, mat_inv(x)) == ident
        assert mat_mul(mat_inv(x), x) == ident


def test_inverse_for_larger_n(rng):
    ring = residue_ring(3, 2)
    ident = identity(5, ring)
    for _ in range(50):
        x = random_sl(5, ring, rng)
        assert mat_mul(x, mat_inv(x)) == ident


def _reference_mul(x, y):
    mod = x.ring.modulus
    cols = tuple(zip(*y.entries))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % mod for col in cols) for row in x.entries
    )


def _reference_adjugate(x):
    mod = x.ring.modulus
    rows = [list(r) for r in x.entries]

    def cofactor(i, j):  # the empty minor of a 1x1 matrix has determinant 1
        return (-1) ** (i + j) * (_bareiss(_minor(rows, j, i)) if x.n > 1 else 1)

    return tuple(tuple(cofactor(i, j) % mod for j in range(x.n)) for i in range(x.n))


# every generated n, and the first n above the cap, which takes the generic path
@pytest.mark.parametrize("n", range(1, GENERATED_MAX_N + 2))
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: f"mod{r.modulus}")
def test_mul_and_inv_kernels_match_reference(ring, n, rng):
    for _ in range(25 if n <= 5 else 5):
        x = random_sl(n, ring, rng)
        y = random_sl(n, ring, rng)
        assert mat_mul(x, y).entries == _reference_mul(x, y)
        assert mat_inv(x).entries == _reference_adjugate(x)


@pytest.mark.parametrize("n", range(1, GENERATED_MAX_N + 2))
def test_scale_kernel_matches_reference(n, rng):
    for ring in KERNEL_RINGS:
        mod, p = ring.modulus, ring.p
        z = unit_of_order(math.gcd(n, p - 1), p, ring.e)
        x = random_sl(n, ring, rng)
        for c in sorted({pow(z, k, mod) for k in range(n)}):
            assert scalar_mul(c, x).entries == tuple(tuple(c * v % mod for v in row) for row in x.entries)


def _square(n):
    return st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n), min_size=n, max_size=n)


@settings(derandomize=True, database=None, max_examples=400)
@given(st.integers(1, GENERATED_MAX_N + 1).flatmap(_square))
@example([[0, -1], [1, 0]])  # signed reversals, as the selftest feeds them
@example([[0, 0, -1], [0, 1, 0], [1, 0, 0]])
@example([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
@example([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, -3, 2, 7]])  # singular
@example([[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 7, 8], [9, 1, 2, 3]])
@example([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, -8]])
def test_det_int_matches_bareiss(rows):
    assert _det_int(rows) == _bareiss(rows)


def test_reduce_mat_into_own_ring_is_identity(rng):
    x = random_sl(4, R25, rng)
    assert reduce_mat(x, R25) is x
    assert reduce_mat(x, R5).entries == tuple(tuple(v % 5 for v in r) for r in x.entries)


def test_elementary_row_law_and_rejects():
    a = elementary(4, 0, 1, 2, R5)
    b = elementary(4, 0, 1, 4, R5)
    assert mat_mul(a, b) == elementary(4, 0, 1, 6, R5)
    assert elementary(4, 0, 1, 5, R25).entries[0][1] == 5
    with pytest.raises(InputError):
        elementary(4, 2, 2, 1, R5)


def test_det_certification():
    with pytest.raises(InputError):
        from_rows([[2, 0], [0, 1]], R5)
    with pytest.raises(InputError):
        SLMat(R5, ((1, 7), (0, 1)))  # not reduced
    # each of these has determinant 1, so only the range check can fire
    with pytest.raises(InputError, match="canonically reduced"):
        SLMat(R5, ((1, -1), (0, 1)))
    with pytest.raises(InputError, match="canonically reduced"):
        SLMat(R5, ((1, 0), (5, 1)))  # an entry equal to the modulus
    with pytest.raises(InputError, match="square"):
        SLMat(R5, ((1, 0), (0,)))  # ragged
    # shape, then reduction, then determinant
    with pytest.raises(InputError, match="square"):
        SLMat(R5, ((-1, 9), (0,)))
    with pytest.raises(InputError, match="canonically reduced"):
        SLMat(R5, ((2, 5), (0, 1)))
    with pytest.raises(InputError, match="determinant"):
        SLMat(R5, ((2, 4), (0, 1)))
    assert from_rows([[6, 0], [0, 6]], R5).entries == ((1, 0), (0, 1))
    # closed operations keep their contracts: det(c * 1) = c^n, and
    # 2^2 = 4 mod 5, 2^4 = 2 mod 7, while 4^2 = 1 mod 5
    for x in (identity(2, R5), identity(4, R7)):
        with pytest.raises(InputError, match="determinant is not 1 in the ring"):
            scalar_mul(2, x)
    assert scalar_mul(4, identity(2, R5)) == from_rows([[4, 0], [0, 4]], R5)
    with pytest.raises(InputError, match="matching ring"):
        mat_mul(identity(2, R5), identity(2, R7))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 0], [0, 1]], "square"),
        ([(1, 0), (0, 1)], "square"),  # a list would leave the matrix unhashable
        (((1, 0), [0, 1]), "square"),
        (((1, "a"), (0, 1)), "canonically reduced"),
        (((1, 0.0), (0, 1)), "canonically reduced"),
        (((True, 0), (0, 1)), "canonically reduced"),
    ],
)
def test_slmat_refuses_entries_of_other_types(entries, message):
    with pytest.raises(InputError, match=message):
        SLMat(R5, entries)


def test_slmat_layout():
    certified = SLMat(R25, ((1, 7), (0, 1)))
    closed = mat_mul(elementary(2, 0, 1, 3, R25), elementary(2, 0, 1, 4, R25))
    assert closed == certified and hash(closed) == hash(certified) and closed is not certified
    assert not hasattr(closed, "__dict__")
    # pickling and copying rebuild through SLMat(...), which certifies
    for copied in (pickle.loads(pickle.dumps(closed)), copy.deepcopy(closed), copy.copy(closed)):
        assert type(copied) is SLMat and copied == closed and hash(copied) == hash(closed)
    with pytest.raises(InputError, match="determinant is not 1 in the ring"):
        pickle.loads(pickle.dumps(SLMat._closed(R5, ((2, 0), (0, 1)))))
    for name in ("ring", "entries", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(closed, name, None)
    # the identity cache holds its objects weakly
    ident = identity(3, R7)
    assert weakref.ref(ident)() is ident
    # per-layer tracing patches the certification where the class defines it
    assert "__post_init__" in SLMat.__dict__


def test_written_out_from_rows_keeps_both_checks():
    # the generated kernel of each n up to the cap, and the generic path
    # above it and at n = 0, refuse with the same messages
    for n in (1, 2, 3, 4, GENERATED_MAX_N, GENERATED_MAX_N + 1):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        short, long, extra = [r[:] for r in ident], [r[:] for r in ident], ident + [ident[0]]
        short[-1].pop()
        long[0].append(0)
        for rows in (short, long, extra):
            with pytest.raises(InputError, match="^entries must form a square matrix$"):
                from_rows(rows, R5)
        triple = [r[:] for r in ident]
        triple[n // 2][n // 2] = 3
        with pytest.raises(InputError, match="^determinant is not 1 in the ring$"):
            from_rows(triple, R5)
        # every entry is reduced into [0, modulus), as the generic path does
        shifted = [[x + 5 * (i - j) for j, x in enumerate(r)] for i, r in enumerate(ident)]
        assert from_rows(shifted, R5) == identity(n, R5)
    for make in (lambda: from_rows([], R5), lambda: identity(0, R5)):
        with pytest.raises(InputError, match="^entries must form a square matrix$"):
            make()
    for rows in (
        [[-4, 5, 0, 10], [0, 6, 0, 0], [0, 0, 1, -5], [7, 0, 0, 1]],
        [[-4, 12], [0, 6]],
        [[1, 5, -5], [0, 6, 0], [0, 0, 1]],
    ):
        reduced = tuple(tuple(x % 5 for x in r) for r in rows)
        assert from_rows(rows, R5) == SLMat(R5, reduced)


@pytest.mark.parametrize("n", [2, 4, GENERATED_MAX_N, GENERATED_MAX_N + 1])
@pytest.mark.parametrize("bad", [1.0, "a", None], ids=repr)
def test_from_rows_refuses_every_entry_that_is_not_an_int(n, bad):
    # the generated kernels and the generic path above them, before any
    # reduction: "%d" % 5 would reduce a str to one
    for i, j in ((0, 0), (n - 1, n - 2)):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = bad
        with pytest.raises(InputError, match="^entries must be integers$"):
            from_rows(rows, R5)
    rows = [[r == c for c in range(n)] for r in range(n)]  # bools reduce to ints
    assert from_rows(rows, R5) == identity(n, R5)
    assert {type(x) for row in from_rows(rows, R5).entries for x in row} == {int}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(2, 5),
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(0, 11),
)
def test_closed_operations_recertify(n, p, e, seed, pick):
    # the proof obligation of SLMat._closed: each closed operation on
    # certified operands yields what SLMat(...) itself would certify
    ring = residue_ring(p, e)
    rng = random.Random(seed)
    x = SLMat(ring, random_sl(n, ring, rng).entries)
    y = SLMat(ring, random_sl(n, ring, rng).entries)
    orders = [m for m in range(1, n + 1) if n % m == 0 and (p - 1) % m == 0]
    u = unit_of_order(orders[pick % len(orders)], p, e)
    for out in (
        mat_mul(x, y),
        mat_inv(x),
        graph_automorphism(x),
        graph_automorphism_inverse(x),
        scalar_mul(u, x),
    ):
        assert SLMat(out.ring, out.entries) == out


def test_sl_order_formula_vs_enumeration():
    assert sl_order(2, 5, 1) == 120 == enumerate_sl2_order(5)
    assert sl_order(2, 2, 2) == 48 == enumerate_sl2_order(4)
    assert sl_order(4, 5, 1) == 29_016_000_000
    for m in (2, 3, 5, 7):
        assert sl_order(2, m, 1) == m * (m * m - 1) == enumerate_sl2_order(m)
    sl2_mod_6 = FiniteQuotientGroup(subgroup_spec(2, {}), {rational_place(2): 1, rational_place(3): 1})
    assert sl2_mod_6.order == 144 == enumerate_sl2_order(6)


def test_minus_identity():
    assert minus_identity(4, R5).entries[0][0] == 4
    assert minus_identity(2, R7) == from_rows([[6, 0], [0, 6]], R7)
    with pytest.raises(InputError):
        minus_identity(3, R7)


def test_central_scalar_examples():
    def central_scalar(n, ring, m):
        # the central element of a one-place quotient over the ring
        v = rational_place(ring.p)
        (z,) = central_element(FiniteQuotientGroup(subgroup_spec(n, {}), {v: ring.e}), v, m)
        return z

    assert central_scalar(4, R5, 4) == scalar_mul(2, identity(4, R5))
    assert central_scalar(4, R7, 2) == scalar_mul(6, identity(4, R7))
    with pytest.raises(InputError):
        central_scalar(4, R7, 4)  # gcd(4, 6) = 2
    z = central_scalar(4, R25, 2)
    assert z.entries[0][0] == 24


def test_reduction_commutes_with_multiplication(rng):
    for _ in range(1000):
        x = random_sl(4, R25, rng)
        y = random_sl(4, R25, rng)
        assert reduce_mat(mat_mul(x, y), R5) == mat_mul(reduce_mat(x, R5), reduce_mat(y, R5))
    with pytest.raises(InputError):
        reduce_mat(identity(2, R5), R7)


def test_projective_line_enumeration():
    lines = lines_of_projective_space(4, 5)
    assert len(lines) == 156
    assert len(set(lines)) == 156
    assert len(lines_of_projective_space(4, 7)) == 400
    assert len(lines_of_projective_space(2, 3)) == 4
    for line in lines:
        lead = next(c for c in line.coords if c != 0)
        assert lead == 1


def test_action_is_a_group_action(rng):
    lines = lines_of_projective_space(4, 5)
    ident = identity(4, R5)
    for line in lines:
        assert act(ident, line) == line
    for _ in range(200):
        g = random_sl(4, R5, rng)
        h = random_sl(4, R5, rng)
        line = lines[rng.randrange(len(lines))]
        assert act(mat_mul(g, h), line) == act(g, act(h, line))


def test_action_is_transitive_for_the_full_group():
    gens = [elementary(4, i, j, 1, R5) for i in range(4) for j in range(4) if i != j]
    start = ProjPoint(5, (1, 0, 0, 0))
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for line in frontier:
            for g in gens:
                image = act(g, line)
                if image not in orbit:
                    orbit.add(image)
                    nxt.append(image)
        frontier = nxt
    assert len(orbit) == 156


def test_act_requires_level_one():
    with pytest.raises(InputError):
        act(identity(2, R25), ProjPoint(5, (1, 0)))
