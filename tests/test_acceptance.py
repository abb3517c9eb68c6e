"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The witness commands are
executed once through the CLI entry point and shared across criteria; the
determinism criterion re-runs every command and compares raw bytes.
"""

import io
import json
import re
import time
from contextlib import contextmanager

import pytest

from congwit.cli import main
from congwit.parabolics import (
    graph_automorphism,
    parabolic_generators,
    parabolic_membership,
    root_subset,
)
from congwit.presets import method_a_pair
from congwit.quotients import FiniteQuotientGroup, Full, subgroup_spec
from congwit.rings import factorize, rational_place, residue_ring, splitting_type
from congwit.selftest import run_selftest
from congwit.twists import PlaceSwap, verify_iso

from oracles import crt_join, crt_split, enumerate_sl2_order, hensel_lift_sqrt

WITNESS_COMMANDS = {
    "method-a": [
        "witness", "method-a", "--n", "4", "--p", "5", "--q", "7",
        "--order", "2", "--level", "2", "--samples", "10000", "--seed", "0",
    ],
    "method-b": ["witness", "method-b", "--p", "5", "--q", "7", "--samples", "10000", "--seed", "0"],
    "method-c": [
        "witness", "method-c", "--d", "2", "--p", "7", "--q", "17",
        "--samples", "10000", "--seed", "0",
    ],
    "s16": ["witness", "s16", "--p", "7", "--samples", "10000", "--seed", "0"],
    "search-primes": ["search-primes", "--d", "2", "--count", "3"],
}


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """First execution of every CLI command: bytes, parsed doc, duration, exit."""
    out = {}
    base = tmp_path_factory.mktemp("acceptance")
    for name, argv in WITNESS_COMMANDS.items():
        path = base / f"{name}.json"
        start = time.monotonic()
        code = main(argv + ["--output", str(path)])
        duration = time.monotonic() - start
        blob = path.read_bytes()
        out[name] = {
            "exit": code,
            "bytes": blob,
            "doc": json.loads(blob),
            "duration": duration,
        }
    return out


def test_criterion_1_oracle_suite():
    with criterion(1, "oracle suite"):
        start = time.monotonic()
        for m, expected in ((5, 120), (7, 336), (4, 48), (6, 144), (3, 24), (2, 6)):
            assert enumerate_sl2_order(m) == expected
            level = {rational_place(p): e for p, e in factorize(m).items()}
            assert FiniteQuotientGroup(subgroup_spec(2, {}), level).order == expected
        for modulus in range(2, 1001):
            moduli = [p**e for p, e in sorted(factorize(modulus).items())]
            seen = set()
            for x in range(modulus):
                parts = crt_split(x, moduli)
                assert crt_join(parts, moduli) == x
                seen.add(parts)
            assert len(seen) == modulus
        for p in (7, 17, 23):
            _, roots = splitting_type(p, 2)
            for r in roots:
                for e in range(1, 5):
                    lift = hensel_lift_sqrt(2, p, r, e)
                    assert (lift * lift - 2) % p**e == 0
                    assert lift % p == r
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"oracle suite took {elapsed:.1f}s"


def test_criterion_2_method_a_witness(runs):
    with criterion(2, "method A witness"):
        run = runs["method-a"]
        assert run["exit"] == 0
        report = run["doc"]["iso_report"]
        assert report["verdict"] == "witnessed"
        assert report["membership_failures"] == 0
        assert report["homomorphism_failures"] == 0
        assert report["inverse_failures"] == 0
        assert report["order_match"] is True
        orders = run["doc"]["bundle"]["orders"]
        expected = 2 * 5**15 * 7**15
        assert orders["quotient1"] == expected
        assert orders["quotient2"] == expected
        presence = run["doc"]["bundle"]["obstruction"]["data"]["central_presence"]
        assert presence == {
            "quotient1": {"p5": True, "p7": False},
            "quotient2": {"p5": False, "p7": True},
        }
        assert run["doc"]["obstruction_holds"] is True
        assert run["duration"] < 60, f"method A took {run['duration']:.1f}s"


def test_criterion_3_method_b_witness(runs):
    with criterion(3, "method B witness"):
        run = runs["method-b"]
        assert run["exit"] == 0
        report = run["doc"]["iso_report"]
        assert report["verdict"] == "witnessed"
        assert report["membership_failures"] == 0
        # generator-exact: the symmetry carries every generator of the
        # (1,3)-parabolic into the (3,1)-parabolic, at the twisted prime
        theta = root_subset(4, {2, 3})
        image = theta.symmetric_image()
        ring7 = residue_ring(7, 1)
        for g in parabolic_generators(theta, ring7):
            assert parabolic_membership(graph_automorphism(g), image)
        data = run["doc"]["bundle"]["obstruction"]["data"]
        assert data["fixed_lines"]["p5"] == {"theta": 1, "theta_image": 0}
        assert data["fixed_lines"]["p7"] == {"theta": 1, "theta_image": 0}
        assert data["parabolic_orders"]["p5"] == {
            "theta": 186_000_000,
            "theta_image": 186_000_000,
        }
        assert run["duration"] < 120, f"method B took {run['duration']:.1f}s"


def test_criterion_4_method_c_witness(runs):
    with criterion(4, "method C witness"):
        run = runs["method-c"]
        assert run["exit"] == 0
        places = {p["label"]: p for p in run["doc"]["bundle"]["places"]}
        assert (places["p7a"]["root"], places["p7b"]["root"]) == (3, 4)
        assert (places["p17a"]["root"], places["p17b"]["root"]) == (6, 11)
        data = run["doc"]["bundle"]["obstruction"]["data"]
        assert data["conjugation"] == {
            "p7a": "p7b", "p7b": "p7a", "p17a": "p17b", "p17b": "p17a",
        }
        assert data["involution"] is True
        report = run["doc"]["iso_report"]
        assert report["verdict"] == "witnessed"
        assert report["membership_failures"] == 0
        assert report["homomorphism_failures"] == 0
        assert report["inverse_failures"] == 0
        orders = run["doc"]["bundle"]["orders"]
        assert orders["quotient1"] == orders["quotient2"]
        assert run["duration"] < 30, f"method C took {run['duration']:.1f}s"


def test_criterion_5_s16_preset(runs):
    with criterion(5, "level-15 preset"):
        run = runs["s16"]
        assert run["exit"] == 0
        orders = run["doc"]["bundle"]["orders"]
        assert orders == {"quotient1": 2, "quotient2": 2}
        report = run["doc"]["iso_report"]
        assert report["exhaustive"] is True
        assert report["samples_used"] == 2
        assert report["verdict"] == "witnessed"
        assert report["membership_failures"] == 0
        assert report["homomorphism_failures"] == 0
        assert report["inverse_failures"] == 0
        assert run["duration"] < 5, f"s16 took {run['duration']:.1f}s"


def test_criterion_6_negative_controls(tmp_path, capsys):
    with criterion(6, "negative controls"):
        start = time.monotonic()
        bundle = method_a_pair()
        broken = PlaceSwap(
            bundle.quotient1, bundle.quotient2, bundle.places[0], bundle.places[1]
        )
        report = verify_iso(broken, 500, 0)
        assert report.verdict == "refuted"
        assert report.membership_failures > 0

        log = tmp_path / "swap.log"
        with log.open("w") as fh:
            code = run_selftest(samples=10000, seed=0, inject_fault="place-swap-a", out=fh)
        assert code == 1
        text = log.read_text()
        assert "FAIL preset-method-a" in text
        counts = re.search(r"membership failures (\d+)", text)
        assert counts and int(counts.group(1)) > 0

        log2 = tmp_path / "w0.log"
        with log2.open("w") as fh:
            code = run_selftest(samples=100, seed=0, inject_fault="w0-sign", out=fh)
        assert code == 1
        assert "FAIL graph-automorphism-determinant" in log2.read_text()
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"negative controls took {elapsed:.1f}s"


@pytest.mark.parametrize(
    "name,broken",
    [
        ("generators", lambda generators: lambda self, c: generators(self, c)[:-1]),
        ("local_order", lambda local_order: lambda self, c: local_order(self, c) + 1),
    ],
    ids=["last-generator-dropped", "order-plus-one"],
)
def test_selftest_order_check_reads_the_verdict_path(name, broken, monkeypatch):
    # the check's closure and formula are Full's own, which every verdict reads
    monkeypatch.setattr(Full, name, broken(getattr(Full, name)))
    out = io.StringIO()
    assert run_selftest(50, 0, None, out=out) == 1
    assert out.getvalue().startswith("FAIL sl2-enumeration-orders: ")


def test_criterion_7_byte_identical_reruns(runs, tmp_path):
    with criterion(7, "determinism"):
        for name, argv in WITNESS_COMMANDS.items():
            path = tmp_path / f"{name}.json"
            code = main(argv + ["--output", str(path)])
            assert code == runs[name]["exit"]
            assert path.read_bytes() == runs[name]["bytes"], f"{name} bytes differ"
