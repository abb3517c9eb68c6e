"""Projective lines over F_p and the left action of SL_n on them.

Test-only oracle: the fixed-line certificate in congwit.parabolics reads
its count off the first block of the parabolic, and these functions count
the same lines by enumerating every line of P^(n-1)(F_p).
"""

from __future__ import annotations

from dataclasses import dataclass

from congwit.errors import InputError
from congwit.matrices import SLMat


@dataclass(frozen=True)
class ProjPoint:
    """A line in F_p^n, normalized so the first nonzero coordinate is 1."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        first = next((c for c in self.coords if c != 0), None)
        if first != 1:
            raise InputError("projective coordinates must lead with 1")


def normalize_line(coords, p: int) -> ProjPoint:
    coords = [c % p for c in coords]
    first = next((c for c in coords if c != 0), None)
    if first is None:
        raise InputError("the zero vector spans no line")
    inv = pow(first, -1, p)
    return ProjPoint(p, tuple(c * inv % p for c in coords))


def lines_of_projective_space(n: int, p: int) -> list[ProjPoint]:
    """All (p^n - 1)/(p - 1) lines of F_p^n, each exactly once."""
    out = []
    for lead in range(n):
        tail = n - lead - 1
        for k in range(p**tail):
            coords = [0] * lead + [1]
            rest = k
            for _ in range(tail):
                coords.append(rest % p)
                rest //= p
            out.append(ProjPoint(p, tuple(coords)))
    return out


def act(g: SLMat, line: ProjPoint) -> ProjPoint:
    """Left action on column vectors: the line spanned by g * v."""
    p = line.p
    if g.ring.modulus != p:
        raise InputError("the projective action is defined at level 1 only")
    image = [sum(a * b for a, b in zip(row, line.coords)) for row in g.entries]
    return normalize_line(image, p)
