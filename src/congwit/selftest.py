"""Built-in check suite: brute-force oracles plus all preset witnesses.

Each check has a stable name; the runner stops at the first failure and
reports it by name.  Fault-injection flags corrupt one specific input on
purpose so the negative path of the pipeline can be demonstrated end to
end: a sign-corrupted reversal matrix must be caught by the determinant
check, and a place swap declared between the central-asymmetry pair must be
refuted by the verifier with nonzero failure counts.
"""

from __future__ import annotations

import random
import sys
import time

from .matrices import _det_int, enumerate_sl2_order, mat_mul, sl_order_mod
from .parabolics import (
    ParabolicSpec,
    borel,
    fixed_lines,
    graph_automorphism,
    root_subset,
)
from .presets import PRESETS, builder
from .quotients import FULL_WORD_MAX, _random_elementary_word
from .rings import crt_join, crt_split, factorize, hensel_lift_sqrt, residue_ring
from .twists import PlaceSwap, verify_iso

FAULT_W0_SIGN = "w0-sign"
FAULT_PLACE_SWAP_A = "place-swap-a"
FAULTS = (FAULT_W0_SIGN, FAULT_PLACE_SWAP_A)


class CheckFailure(Exception):
    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


def check_sl2_enumeration_orders():
    for m, expected in ((2, 6), (3, 24), (4, 48), (5, 120), (6, 144), (7, 336)):
        counted = enumerate_sl2_order(m)
        if counted != expected or sl_order_mod(2, m) != expected:
            raise CheckFailure(
                "sl2-enumeration-orders",
                f"mod {m}: enumerated {counted}, formula {sl_order_mod(2, m)}, expected {expected}",
            )


def check_crt_roundtrip():
    for m in range(2, 1001):
        moduli = [p**e for p, e in sorted(factorize(m).items())]
        if len(moduli) < 2:
            continue
        seen = set()
        for x in range(m):
            parts = crt_split(x, moduli)
            if crt_join(parts, moduli) != x:
                raise CheckFailure("crt-roundtrip", f"x={x} mod {m} does not round-trip")
            seen.add(parts)
        if len(seen) != m:
            raise CheckFailure("crt-roundtrip", f"split is not injective mod {m}")


def check_hensel_lifts():
    from .rings import splitting_type

    for p in (7, 17, 23):
        kind, roots = splitting_type(p, 2)
        if kind != "split":
            raise CheckFailure("hensel-lifts", f"{p} unexpectedly {kind} for d=2")
        for r in roots:
            for e in range(1, 5):
                lifted = hensel_lift_sqrt(2, p, r, e)
                if (lifted * lifted - 2) % p**e != 0 or lifted % p != r:
                    raise CheckFailure(
                        "hensel-lifts", f"lift of {r} mod {p}^{e} is wrong: {lifted}"
                    )


def check_graph_automorphism_determinant(corrupt_sign: bool = False):
    """The reversal conjugator must have determinant 1 under the fixed sign
    convention, and the induced map must be multiplicative."""
    for n in (2, 3, 4):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][n - 1 - i] = 1
        needs_sign = (n * (n - 1) // 2) % 2 == 1
        if needs_sign and not corrupt_sign:
            rows[0][n - 1] = -1
        det = _det_int(rows)
        if det != 1:
            raise CheckFailure(
                "graph-automorphism-determinant",
                f"reversal conjugator for n={n} has determinant {det}, not 1",
            )
    ring = residue_ring(5, 1)
    rng = random.Random(11)
    for _ in range(50):
        x = _random_elementary_word(rng, 4, ring, FULL_WORD_MAX)
        y = _random_elementary_word(rng, 4, ring, FULL_WORD_MAX)
        if graph_automorphism(mat_mul(x, y)) != mat_mul(
            graph_automorphism(x), graph_automorphism(y)
        ):
            raise CheckFailure(
                "graph-automorphism-determinant", "symmetry is not multiplicative"
            )


def check_fixed_line_baselines():
    cases = (
        (ParabolicSpec(4, 5, root_subset(4, {2, 3})), 1),
        (ParabolicSpec(4, 5, root_subset(4, {1, 2})), 0),
        (ParabolicSpec(4, 7, root_subset(4, {2, 3})), 1),
        (ParabolicSpec(4, 7, root_subset(4, {1, 2})), 0),
        (borel(2, 3), 1),
    )
    for spec, expected in cases:
        got = fixed_lines(spec)
        if got != expected:
            raise CheckFailure(
                "fixed-line-baselines",
                f"blocks {spec.blocks} mod {spec.p}: counted {got}, expected {expected}",
            )


def _check_bundle(name, bundle, samples, seed):
    report = verify_iso(bundle.iso, samples, seed)
    if not report.witnessed:
        raise CheckFailure(
            name,
            f"verdict {report.verdict}: membership={report.membership_failures} "
            f"homomorphism={report.homomorphism_failures} inverse={report.inverse_failures} "
            f"order_match={report.order_match}",
        )
    if not bundle.obstruction.holds:
        raise CheckFailure(name, "obstruction certificate does not hold")


def run_selftest(samples: int = 10000, seed: int = 0, inject_fault: str | None = None, out=None) -> int:
    out = out or sys.stdout
    if inject_fault is not None and inject_fault not in FAULTS:
        raise CheckFailure("selftest", f"unknown fault {inject_fault!r}")

    def preset(name):
        def check():
            bundle = builder(name)()
            if name == "method-a" and inject_fault == FAULT_PLACE_SWAP_A:
                broken = PlaceSwap(
                    bundle.quotient1, bundle.quotient2, bundle.places[0], bundle.places[1]
                )
                report = verify_iso(broken, samples, seed)
                raise CheckFailure(
                    "preset-method-a",
                    f"injected place swap on the central pair: verdict {report.verdict}, "
                    f"membership failures {report.membership_failures}",
                )
            _check_bundle(f"preset-{name}", bundle, samples, seed)

        return check

    checks = [
        ("sl2-enumeration-orders", check_sl2_enumeration_orders),
        ("crt-roundtrip", check_crt_roundtrip),
        ("hensel-lifts", check_hensel_lifts),
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
            print(f"FAIL {failure.name}: {failure.detail}", file=out)
            return 1
        print(f"ok {name} ({time.monotonic() - start:.2f}s)", file=out)
    return 0
