"""Built-in check suite: brute-force oracles plus all preset witnesses.

Each check has a stable name; the runner stops at the first failure and
reports it by name.  Fault-injection flags corrupt one specific input on
purpose so the negative path of the pipeline can be demonstrated end to
end: a sign-corrupted reversal matrix must be caught by the determinant
check, and a place swap declared between the central-asymmetry pair must be
refuted by the verifier with nonzero failure counts.
"""

from __future__ import annotations

import sys
import time

from .errors import InputError
from .matrices import _det_int, mat_mul
from .parabolics import _weyl_signs, fixed_lines, graph_automorphism, root_subset
from .presets import PRESETS, builder
from .quotients import FiniteQuotientGroup, enumerate_quotient, subgroup_spec
from .rings import factorize, rational_place
from .twists import PlaceSwap, verify_iso

FAULT_W0_SIGN = "w0-sign"
FAULT_PLACE_SWAP_A = "place-swap-a"
FAULTS = (FAULT_W0_SIGN, FAULT_PLACE_SWAP_A)


class CheckFailure(Exception):
    """A failed check; its message is the detail, the runner adds the name."""


def check_sl2_enumeration_orders():
    """|SL_2(Z/m)| by closure over Full's generators and by Full's order formula."""
    for m, expected in ((2, 6), (3, 24), (4, 48), (5, 120), (6, 144), (7, 336)):
        level = {rational_place(p): e for p, e in factorize(m).items()}
        q = FiniteQuotientGroup(subgroup_spec(2, {}), level)
        counted = len(enumerate_quotient(q))
        if counted != expected or q.order != expected:
            raise CheckFailure(f"mod {m}: enumerated {counted}, formula {q.order}, expected {expected}")


def check_graph_automorphism_determinant(corrupt_sign: bool = False):
    """The reversal conjugator must have determinant 1 under the fixed sign
    convention, and the induced map must be multiplicative.  corrupt_sign
    drops the convention's signs."""
    for n in (2, 3, 4):
        s = (1,) * n if corrupt_sign else _weyl_signs(n)
        det = _det_int([[s[i] if j == n - 1 - i else 0 for j in range(n)] for i in range(n)])
        if det != 1:
            raise CheckFailure(f"reversal conjugator for n={n} has determinant {det}, not 1")
    words = FiniteQuotientGroup(subgroup_spec(4, {}), {rational_place(5): 1})
    for i in range(50):
        (x,), (y,) = words.sample(2 * i), words.sample(2 * i + 1)
        if graph_automorphism(mat_mul(x, y)) != mat_mul(
            graph_automorphism(x), graph_automorphism(y)
        ):
            raise CheckFailure("symmetry is not multiplicative")


def check_fixed_line_baselines():
    cases = (
        (root_subset(4, {2, 3}), 5, 1),
        (root_subset(4, {1, 2}), 5, 0),
        (root_subset(4, {2, 3}), 7, 1),
        (root_subset(4, {1, 2}), 7, 0),
        (root_subset(2, ()), 3, 1),
    )
    for theta, p, expected in cases:
        got = fixed_lines(theta)
        if got != expected:
            raise CheckFailure(f"blocks {theta.block_sizes()} mod {p}: counted {got}, expected {expected}")


def _check_bundle(bundle, samples, seed):
    report = verify_iso(bundle.iso, samples, seed)
    if not report.witnessed:
        raise CheckFailure(
            f"verdict {report.verdict}: membership={report.membership_failures} "
            f"homomorphism={report.homomorphism_failures} inverse={report.inverse_failures} "
            f"order_match={report.order_match}",
        )
    if not bundle.obstruction.holds:
        raise CheckFailure("obstruction certificate does not hold")


def run_selftest(samples: int = 10000, seed: int = 0, inject_fault: str | None = None, out=None) -> int:
    out = out or sys.stdout
    if samples < 1:  # refused before any check prints
        raise InputError("sample_count must be >= 1")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise InputError(f"unknown fault {inject_fault!r}")

    def preset(name):
        def check():
            bundle = builder(name)()
            if name == "method-a" and inject_fault == FAULT_PLACE_SWAP_A:
                broken = PlaceSwap(
                    bundle.quotient1, bundle.quotient2, bundle.places[0], bundle.places[1]
                )
                report = verify_iso(broken, samples, seed)
                raise CheckFailure(
                    f"injected place swap on the central pair: verdict {report.verdict}, "
                    f"membership failures {report.membership_failures}",
                )
            _check_bundle(bundle, samples, seed)

        return check

    checks = [
        ("sl2-enumeration-orders", check_sl2_enumeration_orders),
        (
            "graph-automorphism-determinant",
            lambda: check_graph_automorphism_determinant(inject_fault == FAULT_W0_SIGN),
        ),
        ("fixed-line-baselines", check_fixed_line_baselines),
    ] + [(f"preset-{name}", preset(name)) for name in PRESETS]
    for name, fn in checks:
        start = time.monotonic()
        try:
            fn()
        except CheckFailure as failure:
            print(f"FAIL {name}: {failure}", file=out)
            return 1
        print(f"ok {name} ({time.monotonic() - start:.2f}s)", file=out)
    return 0
