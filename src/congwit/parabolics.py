"""Standard parabolic subgroups of SL_n over F_p and the diagram symmetry.

A subset theta of the simple roots {1, ..., n-1} determines the standard
parabolic P_theta of block-upper-triangular matrices whose block sizes are
cut at the complement of theta: theta = everything gives the whole group,
theta = empty set gives the Borel.  A parabolic is its root subset; the
prime comes from the ring of the matrices at hand, or is passed where there
are none.  The type A diagram symmetry s(theta) = {n - i} is realized on
matrices by transpose-inverse conjugated with the longest Weyl permutation,
and P_theta and P_{s(theta)} are told apart by the number of projective
lines each fixes, a count invariant under conjugation in SL_n(F_p).  That
count is read off the first block: P_theta fixes the line <e_1> when the
first block has size 1 and no line otherwise (see fixed_lines).

On matrices the symmetry is one generated kernel per n and direction, a
sign-permuted adjugate with each sign folded into its cofactor (see
kernels.emit_graph).  The longest Weyl element is w0 = S * J, with J the
reversal and S = diag(s) its row signs (s_0 = -1 iff n(n-1)/2 is odd, all
others +1), so w0^(-1) = J * S.  For det g = 1, (g^T)^(-1) = adj(g)^T,
and conjugating by J reverses both indices, hence

    (w0 * (g^T)^(-1) * w0^(-1))[i][j] = s_i * s_j * adj(g)[n-1-j][n-1-i].

The inverse is the same formula with s reversed: w0^(-1) * g * w0 =
D * J * g * J * D for D = diag(s) reversed, whose adjugate is
D * J * adj(g) * J * D, and the inverse is that adjugate transposed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError
from .kernels import Kernels, _weyl_signs, emit_graph, emit_graph_inverse
from .matrices import _ADJ, SLMat
from .rings import ResidueRing, smallest_primitive_root


@dataclass(frozen=True)
class RootSubset:
    """A subset of the simple roots 1..n-1 of SL_n (1-based)."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        if self.n < 2:
            raise InputError("SL_n needs n >= 2")
        if any(not 1 <= i <= self.n - 1 for i in self.members):
            raise InputError(f"roots must lie in 1..{self.n - 1}")

    def symmetric_image(self) -> "RootSubset":
        """Image under the diagram symmetry i -> n - i."""
        return RootSubset(self.n, frozenset(self.n - i for i in self.members))

    def block_sizes(self) -> tuple[int, ...]:
        """Diagonal block sizes of the corresponding standard parabolic."""
        cuts = sorted(set(range(1, self.n)) - self.members)
        bounds = [0] + cuts + [self.n]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    @functools.cached_property
    def below_block(self) -> tuple[tuple[int, int], ...]:
        """The (row, column) positions below P_theta's block diagonal, computed
        at the first membership test; blk[r] is the block holding position r."""
        blk = [k for k, b in enumerate(self.block_sizes()) for _ in range(b)]
        return tuple((r, c) for r in range(self.n) for c in range(self.n) if blk[r] > blk[c])


def root_subset(n: int, members) -> RootSubset:
    return RootSubset(n, frozenset(members))


def parabolic_membership(g: SLMat, theta: RootSubset) -> bool:
    """True iff g mod p lies in P_theta, p the prime of g's ring: every entry
    below the block diagonal vanishes mod p.

    g may live over any ring Z/p^e; its entries are read mod p, with no
    reduced matrix built.  Entry (r, c) lies below the block diagonal when
    the block holding position r comes after the block holding position c;
    theta lists those positions once (RootSubset.below_block).
    """
    e, p = g.entries, g.ring.p
    for r, c in theta.below_block:
        if e[r][c] % p:
            return False
    return True


def gl_order(m: int, p: int) -> int:
    """|GL_m(F_p)|."""
    order = 1
    for i in range(m):
        order *= p**m - p**i
    return order


def parabolic_order(theta: RootSubset, p: int) -> int:
    """|P_theta| from the Levi-unipotent factorization.

    The unipotent radical contributes p per entry above the block diagonal;
    the Levi contributes the block-diagonal GL product cut down to total
    determinant 1, i.e. divided by the (p - 1) determinant choices.
    """
    blocks = theta.block_sizes()
    above = 0
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1 :]:
            above += bi * bj
    levi = 1
    for b in blocks:
        levi *= gl_order(b, p)
    return p**above * (levi // (p - 1))


def parabolic_generators(theta: RootSubset, ring: ResidueRing) -> list[SLMat]:
    """A generating set of P_theta, lifted entrywise into the given ring.

    Root elements: every upper elementary, plus the lower elementaries
    inside the diagonal blocks.  Torus part: for each adjacent pair of
    positions, the diagonal matrix with the canonical generator of the unit
    group at one slot and its inverse at the next; together these exhaust
    the determinant-1 diagonal, which a single balancing element cannot do
    once there are three or more blocks.
    """
    n, mod = theta.n, ring.modulus
    u = smallest_primitive_root(ring.p, ring.e) % mod

    def gen(changed):  # the identity with the given entries changed
        rows = tuple(tuple(changed.get((r, c), int(r == c)) for c in range(n)) for r in range(n))
        return SLMat(ring, rows)

    roots = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in theta.below_block]
    torus = [{(i, i): u, (i + 1, i + 1): pow(u, -1, mod)} for i in range(n - 1)]
    return [gen({ij: 1}) for ij in roots] + [gen(changed) for changed in torus]


# ---------------------------------------------------------------------------
# the diagram symmetry on matrices


def graph_automorphism(g: SLMat) -> SLMat:
    """The outer automorphism of SL_n: g -> w0 * (g^T)^(-1) * w0^(-1).

    Swaps P_theta and P_{s(theta)} and preserves the standard Borel; works
    over Z/p^e for every level e.  It is the signed, index-reversed adjugate
    with w0's row signs (see the module docstring), one kernel per n.
    """
    return SLMat._closed(g.ring, _GRAPH[len(g.entries)](g.entries, g.ring.modulus))


def graph_automorphism_inverse(g: SLMat) -> SLMat:
    """Inverse of graph_automorphism: g -> ((w0^(-1) * g * w0)^T)^(-1), the
    same adjugate with the signs reversed (see the module docstring)."""
    return SLMat._closed(g.ring, _GRAPH_INVERSE[len(g.entries)](g.entries, g.ring.modulus))


def _signed_reversed_adjugate(e, mod, inverse=False):
    """The rows s_i * s_j * adj(e)[n-1-j][n-1-i] for w0's row signs s,
    reversed when `inverse`: the symmetry for any n (see emit_graph)."""
    n, adj = len(e), _ADJ[len(e)](e, mod)
    s = _weyl_signs(n)[:: -1 if inverse else 1]
    return tuple([tuple([s[i] * s[j] * adj[-1 - j][-1 - i] % mod for j in range(n)]) for i in range(n)])


# the diagram symmetry and its inverse by n, generated up to GENERATED_MAX_N (see kernels)
_GRAPH = Kernels(emit_graph, _signed_reversed_adjugate)
_GRAPH_INVERSE = Kernels(emit_graph_inverse, functools.partial(_signed_reversed_adjugate, inverse=True))


def fixed_lines(theta: RootSubset) -> int:
    """Number of projective lines of F_p^n fixed by P_theta: 1 if its first
    block has size 1, else 0.

    The upper elementaries are unipotent, so the only line they all fix is
    <e_1>.  <e_1> is fixed by the diagonal generators, and unless the first
    block has size 1 a lower elementary inside it moves <e_1>.

    The count is invariant under conjugation in SL_n(F_p), so unequal counts
    show that two parabolics are not conjugate there.
    """
    return int(theta.block_sizes()[0] == 1)
