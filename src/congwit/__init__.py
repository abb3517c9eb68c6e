"""Finite-level congruence quotient pairs with explicit twist isomorphisms.

The library builds pairs of congruence subgroups of SL_n (over Z or over a
real quadratic ring) whose finite congruence quotients are isomorphic via
an explicit, invertible twist map, verifies that isomorphism exactly or by
seeded sampling, and emits the recomputable certificates (central presence,
fixed projective lines, ring-conjugation orbits) that obstruct any
isomorphism of the subgroups themselves.
"""

from .errors import InputError
from .presets import WitnessBundle, method_a_pair, method_b_pair, method_c_pair, s16_pair
from .serialize import bundle_from_json, bundle_to_json
from .twists import IsoReport, QuotientIso, verify_iso

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "WitnessBundle",
    "method_a_pair",
    "method_b_pair",
    "method_c_pair",
    "s16_pair",
    "bundle_from_json",
    "bundle_to_json",
    "IsoReport",
    "QuotientIso",
    "verify_iso",
]
