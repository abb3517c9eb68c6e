import random

import pytest

from congwit.matrices import elementary, identity, mat_mul
from congwit.rings import residue_ring

# Rings for pinning the unrolled matrix kernels to their references.
KERNEL_RINGS = [residue_ring(p, e) for p, e in ((5, 1), (7, 1), (17, 1), (7, 2))]


def random_sl(n, ring, rng, length=20):
    """Random word of elementary matrices; a cheap member of SL_n(ring).
    SL_1 has no elementary matrices, and only the identity."""
    out = identity(n, ring)
    for _ in range(rng.randint(1, length) if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        out = mat_mul(out, elementary(n, i, j, rng.randrange(ring.modulus), ring))
    return out


@pytest.fixture
def rng():
    return random.Random(20240815)
