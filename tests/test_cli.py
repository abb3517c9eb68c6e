import copy
import functools
import hashlib
import json
import operator
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import congwit
from congwit import cli, presets, selftest
from congwit.cli import build_parser, main
from congwit.errors import InputError
from congwit.presets import method_b_pair, s16_pair
from congwit.serialize import bundle_to_json
from congwit.twists import QuotientIso


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_s16_success(capsys):
    code, out, _ = run_cli(capsys, "witness", "s16", "--p", "7", "--samples", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["config"] == {"command": "witness", "method": "s16", "p": 7, "samples": 50, "seed": 0}
    assert doc["iso_report"]["verdict"] == "witnessed"
    assert doc["iso_report"]["exhaustive"] is True
    assert doc["obstruction_holds"] is True
    assert doc["bundle"]["orders"] == {"quotient1": 2, "quotient2": 2}


def test_witness_method_a_success(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "method-a", "--samples", "60", "--seed", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["iso_report"]["verdict"] == "witnessed"
    assert doc["bundle"]["orders"]["quotient1"] == 2 * 5**15 * 7**15


# Witness inputs refused by a constructor the builder calls: the prime
# tests of rational_place and split_places, the central-order test of
# CentralPrincipal.setup and the depth test of FiniteQuotientGroup (equal
# primes are the builder's own check).  Each exits 2 with no output and one
# error line holding the fragment.
BUILDER_REFUSALS = [
    (("method-b", "--p", "5", "--q", "5"), "distinct"),
    (("method-a", "--p", "2"), ""),
    (("method-a", "--order", "3"), "3 does not divide gcd(n, p-1)"),
    (("method-a", "--order", "4"), "4 does not divide gcd(n, p-1)"),
    (("method-a", "--level", "0"), "level"),
    (("method-a", "--n", "1"), "2 does not divide gcd(n, p-1)"),
    (("method-a", "--p", "9"), "9 is not prime"),
    (("method-b", "--p", "9"), "9 is not prime"),
    (("method-c", "--q", "15"), "15 is not prime"),
]


@pytest.mark.parametrize(
    "argv,fragment", BUILDER_REFUSALS, ids=["".join(argv).replace("--", "-") for argv, _ in BUILDER_REFUSALS]
)
def test_witness_method_b_rejects_equal_primes(argv, fragment, capsys):
    code, out, err = run_cli(capsys, "witness", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


def test_witness_method_c_reports_splitting_evidence(capsys):
    code, _, err = run_cli(capsys, "witness", "method-c", "--d", "2", "--p", "5", "--q", "7")
    assert code == 2
    assert "inert" in err and "x^2 = 2 mod 5" in err


def test_search_primes(capsys):
    code, out, _ = run_cli(capsys, "search-primes", "--d", "2", "--count", "3")
    assert code == 0
    assert json.loads(out)["primes"] == [7, 17, 23]


def test_search_primes_full_center(capsys):
    code, out, _ = run_cli(capsys, "search-primes", "--full-center", "4", "--count", "2")
    assert code == 0
    assert json.loads(out)["primes"] == [5, 13]


def test_search_primes_rejects_zero_count(capsys):
    code, _, err = run_cli(capsys, "search-primes", "--d", "2", "--count", "0")
    assert code == 2
    assert "count" in err


def test_search_primes_needs_some_constraint(capsys):
    code, _, err = run_cli(capsys, "search-primes", "--count", "1")
    assert code == 2


def test_unknown_flags_are_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["witness", "s16", "--frobnicate", "1"])
    assert excinfo.value.code == 2


def test_rank_one_pairs_exit_two(tmp_path, capsys):
    # SL_2 over Z has rank 1, so the superrigidity behind the certificate fails
    code, out, err = run_cli(
        capsys, "witness", "method-a", "--n", "2", "--p", "3", "--q", "5", "--level", "1",
        "--samples", "50",
    )
    assert (code, out) == (2, "")
    assert err == "error: SL_2 has rank 1 in method A; the certificate needs rank >= 2\n"
    doc = bundle_to_json(s16_pair())
    doc["method"] = "A"
    assert_rejected(capsys, tmp_path, doc, "SL_2 has rank 1 in method A")


def test_verify_and_obstruct_round_trip(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "witness", "method-c", "--samples", "40", "--output", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify-iso", str(path), "--samples", "30", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "iso_verification"
    assert doc["iso_report"]["verdict"] == "witnessed"
    code, out, _ = run_cli(capsys, "obstruct", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "obstruction_recompute"
    assert doc["obstruction"]["holds"] is True


def test_verify_iso_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify-iso", "/nonexistent/bundle.json")
    assert code == 2
    assert "cannot read" in err


def test_verify_iso_accepts_bare_bundle_document(tmp_path, capsys):
    path = tmp_path / "full.json"
    assert main(["witness", "s16", "--output", str(path)]) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(path.read_text())["bundle"]))
    code, out, _ = run_cli(capsys, "verify-iso", str(bare), "--samples", "10")
    assert code == 0
    assert json.loads(out)["iso_report"]["verdict"] == "witnessed"


def test_obstruct_refutes_tampered_bundle(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    assert main(["witness", "s16", "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    # identity separates nothing: the recomputed certificate must not hold
    for mat in doc["bundle"]["separating_element"].values():
        mat["rows"] = [[1, 0], [0, 1]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "obstruct", str(tampered))
    assert code == 1
    assert json.loads(out)["obstruction"]["holds"] is False


def test_output_determinism(tmp_path, capsys):
    args = ["witness", "method-a", "--samples", "40", "--seed", "9"]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_selftest_fault_injection_names_the_check(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--samples", "20", "--inject-fault", "w0-sign")
    assert code == 1
    assert "FAIL graph-automorphism-determinant" in out
    code, out, _ = run_cli(
        capsys, "selftest", "--samples", "20", "--inject-fault", "place-swap-a"
    )
    assert code == 1
    assert "FAIL preset-method-a" in out
    assert "membership failures" in out


def test_selftest_refuses_no_samples_before_any_check(capsys):
    code, out, err = run_cli(capsys, "selftest", "--samples", "0")
    assert (code, out, err) == (2, "", "error: sample_count must be >= 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "method-a", "--samples", "0"],
        ["witness", "method-b", "--samples", "-3", "--p", "9"],
        ["verify-iso", "missing.json", "--samples", "0"],
        ["verify-iso", "method-a.json", "--samples", "-3"],
    ],
)
def test_samples_below_one_are_refused_before_any_build(argv, monkeypatch, capsys):
    def called(*args, **kwargs):
        raise AssertionError("built or loaded before the sample count was checked")

    monkeypatch.setattr(presets, "method_a_pair", called)
    monkeypatch.setattr(presets, "method_b_pair", called)
    monkeypatch.setattr(cli, "bundle_from_json", called)
    monkeypatch.setattr(cli, "_load_json", called)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: sample_count must be >= 1\n")


def test_selftest_refuses_an_unknown_fault():
    with pytest.raises(InputError, match="unknown fault 'no-such-fault'"):
        selftest.run_selftest(5, 0, "no-such-fault")


def test_selftest_names_a_failing_baseline_check(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "fixed_lines", lambda theta: 9)
    code, out, _ = run_cli(capsys, "selftest", "--samples", "20")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL fixed-line-baselines: blocks (1, 3) mod 5: counted 9, expected 1"


@pytest.mark.parametrize("target", list(presets.PRESETS))
def test_selftest_names_a_preset_whose_certificate_fails(target, monkeypatch, capsys):
    def builder(name):
        def build():
            bundle = presets.builder(name)()
            if name == target:
                bundle.obstruction.holds = False
            return bundle

        return build

    monkeypatch.setattr(selftest, "builder", builder)
    code, out, _ = run_cli(capsys, "selftest", "--samples", "20")
    assert code == 1
    assert out.splitlines()[-1] == f"FAIL preset-{target}: obstruction certificate does not hold"
    assert len(out.splitlines()) == 4 + list(presets.PRESETS).index(target)


def test_document_config_is_every_parsed_argument_but_output(tmp_path, capsys):
    saved = tmp_path / "saved.json"
    runs = [["witness", name, "--samples", "5"] for name in presets.PRESETS]
    runs[0] += ["--seed", "4", "--output", str(saved)]
    runs.append(["verify-iso", str(saved), "--samples", "7"])
    runs.append(["obstruct", str(saved), "--output", str(tmp_path / "o.json")])
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        args = build_parser().parse_args(argv)
        doc = json.loads(Path(args.output).read_text() if args.output else out)
        assert doc["config"] == {key: value for key, value in vars(args).items() if key != "output"}, argv


def test_prime_search_config_records_the_ring_and_sorted_exclusions(capsys):
    exclude = ["--exclude", "13", "--exclude", "5", "--exclude", "13"]
    code, out, _ = run_cli(capsys, "search-primes", "--full-center", "4", "--count", "2", *exclude)
    assert code == 0
    doc = json.loads(out)
    assert doc["primes"] == [17, 29]
    config = {"command": "search-primes", "d": 1, "count": 2, "exclude": [5, 13, 13], "full_center": 4}
    assert doc["config"] == config


# sha256 of `witness <preset> --samples 50 --seed 0 --output FILE`; any change
# to a draw, a check or the encoding moves these.
WITNESS_SHA256 = {
    "method-a": "a1463c3a7eb3ec0b64ff3a37087cfcfc28fa97a7a2dfa3758b710fc3dde00187",
    "method-b": "65ee6f3de06d490baa1540ed0873335aceb81a68dbafab59b506aebcbeb65bc8",
    "method-c": "ef056c231f577c7823ed443196fa7671bef48de47f330590cc1620771a73e4aa",
    "s16": "1e787fe256663da0e540e1cef0bccb1e6dccb1c12a27d9ad2c72f5fa632d621f",
}


@pytest.mark.parametrize("preset", sorted(WITNESS_SHA256))
def test_witness_bytes_are_pinned(preset, tmp_path):
    path = tmp_path / "witness.json"
    argv = ["witness", preset, "--samples", "50", "--seed", "0", "--output", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WITNESS_SHA256[preset]


@pytest.fixture(scope="module")
def method_a_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "method-a.json"
    assert main(["witness", "method-a", "--samples", "5", "--output", str(path)]) == 0
    return json.loads(path.read_text())


def assert_rejected(capsys, tmp_path, doc, message):
    """Both commands that read a bundle exit 2 with an error line."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for argv in (["obstruct", str(path)], ["verify-iso", str(path), "--samples", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_bundle_without_n_is_rejected(method_a_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(method_a_doc))
    del doc["bundle"]["n"]
    assert_rejected(capsys, tmp_path, doc, "missing n")


def test_bundle_with_non_integer_n_is_rejected(method_a_doc, tmp_path, capsys):
    for bad in ("4", True, 4.0):
        doc = json.loads(json.dumps(method_a_doc))
        doc["bundle"]["n"] = bad
        assert_rejected(capsys, tmp_path, doc, "n must be an integer")


def test_bundle_with_twist_of_another_method_is_rejected(method_a_doc, tmp_path, capsys):
    for iso in (
        {"kind": "graph_automorphism", "place": "p7"},
        {"kind": "place_swap", "from_place": "p5", "to_place": "p7"},
        {"kind": "identity"},
    ):
        doc = json.loads(json.dumps(method_a_doc))
        doc["bundle"]["iso"] = iso
        assert_rejected(capsys, tmp_path, doc, "needs a central_transport twist")


def test_bundle_document_that_is_not_an_object_is_rejected(method_a_doc, tmp_path, capsys):
    assert_rejected(capsys, tmp_path, [method_a_doc], "not a witness bundle document")
    assert_rejected(capsys, tmp_path, [method_a_doc["bundle"]], "not a witness bundle document")


# One malformed nested field per case, applied to a method-a bundle.
MALFORMED = {
    "base-ring-null": (lambda b: b.update(base_ring=None), "base_ring must be an object"),
    "place-without-p": (lambda b: b["places"][0].pop("p"), "p must be an integer"),
    "level-label-unknown": (lambda b: b["level"].update(p9=1), "unknown place label 'p9'"),
    "principal-without-depth": (
        lambda b: b["conditions1"]["p7"].pop("depth"),
        "depth must be an integer",
    ),
    "places-as-string": (lambda b: b.update(places="p5 p7"), "places must be a list"),
    "twist-label-unknown": (
        lambda b: b["iso"].update(from_place="p11"),
        "unknown place label 'p11'",
    ),
    # labels are names only: one place, listed twice or under a second label
    "place-listed-twice": (
        lambda b: b["places"].append(dict(b["places"][0])),
        "places need distinct labels and distinct (p, root)",
    ),
    "place-under-two-labels": (
        lambda b: b["places"].append(dict(b["places"][0], label="five")),
        "places need distinct labels and distinct (p, root)",
    ),
    # p5 holds the central scalar 24 = -1 mod 25 in its (0, 0) entry
    "separating-entry-negative": (
        lambda b: b["separating_element"]["p5"]["rows"][0].__setitem__(0, -1),
        "entries must be canonically reduced",
    ),
    "separating-entry-unreduced": (
        lambda b: b["separating_element"]["p5"]["rows"][0].__setitem__(0, 24 + 25),
        "entries must be canonically reduced",
    ),
    # over Z every place is rational, even one that is only listed
    "inert-place-over-z": (
        lambda b: b["places"].append({"label": "p11", "p": 11, "kind": "inert", "root": None}),
        "place p11 is rational (p = 11, root None), not inert",
    ),
    "ramified-place-over-z": (
        lambda b: b["places"].append({"label": "p3", "p": 3, "kind": "ramified", "root": None}),
        "place p3 is rational (p = 3, root None), not ramified",
    ),
    "scalar-order-float": (
        lambda b: b["iso"].update(scalar_order=2.0),
        "scalar_order must be an integer",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_nested_bundle_field_is_rejected(case, method_a_doc, tmp_path, capsys):
    mutate, message = MALFORMED[case]
    doc = json.loads(json.dumps(method_a_doc))
    mutate(doc["bundle"])
    assert_rejected(capsys, tmp_path, doc, message)


def test_separating_element_off_determinant_one_is_rejected(tmp_path, capsys):
    # reduced and square, so only the determinant check of from_rows fires
    path = tmp_path / "method-b.json"
    assert main(["witness", "method-b", "--samples", "5", "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["bundle"]["separating_element"]["p7"]["rows"] = [
        [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    ]
    assert_rejected(capsys, tmp_path, doc, "determinant is not 1 in the ring")


def test_boolean_list_entries_are_rejected(tmp_path, capsys):
    # JSON true and false are not integers, not even inside a list
    doc = bundle_to_json(method_b_pair())
    doc["conditions2"]["p7"]["theta"] = [True, 2]
    assert_rejected(capsys, tmp_path, doc, "theta must be a list of integers")
    doc = bundle_to_json(s16_pair())
    doc["separating_element"]["p3"]["rows"][0][1] = False
    assert_rejected(capsys, tmp_path, doc, "a row must be a list of integers")


@pytest.mark.parametrize(
    "p,condition",
    [(9, {"kind": "principal", "depth": 1}), (2, {"kind": "parabolic", "theta": [2]})],
    ids=["composite-principal", "two-parabolic"],
)
def test_place_over_a_non_odd_prime_is_rejected(p, condition, method_a_doc, tmp_path, capsys):
    # A well-formed extra place over 9 or 2, conditioned in both specs, with a
    # separating element there: the quotient would compute over Z/9 or Z/2.
    doc = json.loads(json.dumps(method_a_doc))
    bundle, label = doc["bundle"], f"p{p}"
    bundle["places"].append({"label": label, "p": p, "kind": "rational", "root": None})
    bundle["level"][label] = 1
    bundle["conditions1"][label] = bundle["conditions2"][label] = condition
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    bundle["separating_element"][label] = {"modulus": p, "rows": rows}
    assert_rejected(capsys, tmp_path, doc, f"place {label} needs an odd prime p")


# Every node under conditions1 and conditions2 of a preset bundle is replaced
# by each of these values, or deleted, one case at a time.
FUZZ_VALUES = (None, True, -1, 0, 1.5, "x", [], {}, [True], [99])
DELETE = object()
# preset -> (cases, cases that are not rejected)
FUZZ_COUNTS = {"method-a": (176, 2), "method-b": (308, 16), "method-c": (154, 6), "s16": (176, 2)}


def _nodes(value, path):
    """The path of value and of every node below it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _still_well_formed(path, value):
    """The mutations that leave a valid document: a deleted place condition
    (read as full), an empty conditions object, an empty or shortened theta."""
    if value is DELETE:
        return len(path) == 2 or path[2:3] == ("theta",)
    return (len(path) == 1 and value == {}) or (path[2:] == ("theta",) and value == [])


@pytest.mark.parametrize("preset", sorted(FUZZ_COUNTS))
def test_condition_field_fuzz_exits_cleanly(preset, tmp_path, capsys):
    base = bundle_to_json(presets.builder(preset)())
    path = tmp_path / "mutated.json"
    cases = accepted = 0
    for key in ("conditions1", "conditions2"):
        for where in _nodes(base[key], (key,)):
            for value in FUZZ_VALUES + (DELETE,):
                doc = copy.deepcopy(base)
                holder = functools.reduce(operator.getitem, where[:-1], doc)
                if value is DELETE:
                    del holder[where[-1]]
                else:
                    holder[where[-1]] = value
                path.write_text(json.dumps(doc))
                code, out, err = run_cli(capsys, "obstruct", str(path))
                case = (where, value)
                cases += 1
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, case
                else:
                    assert code in (0, 1) and err == "" and _still_well_formed(where, value), case
                    accepted += 1
    assert (cases, accepted) == FUZZ_COUNTS[preset]


@pytest.mark.parametrize(
    "preset,flags",
    [
        ("method-a", {"n": 4, "p": 5, "q": 7, "order": 2, "level": 2}),
        ("method-b", {"p": 5, "q": 7}),
        ("method-c", {"d": 2, "p": 7, "q": 17}),
        ("s16", {"p": 7}),
    ],
)
def test_witness_flags_and_defaults(preset, flags):
    fixed = {"command": "witness", "method": preset, "samples": 10000, "seed": 0, "output": None}
    assert vars(build_parser().parse_args(["witness", preset])) == {**fixed, **flags}
    given = [f"--{name}=3" for name in flags]
    args = build_parser().parse_args(["witness", preset, *given])
    assert vars(args) == {**fixed, **dict.fromkeys(flags, 3)}


def test_parser_is_built_once_and_keeps_no_state():
    parser = build_parser()
    assert build_parser() is parser
    assert parser.parse_args(["witness", "method-a", "--p", "11"]).p == 11
    assert parser.parse_args(["witness", "method-a"]).p == 5


def test_witness_binds_builders_and_verifier_at_call_time(monkeypatch, tmp_path):
    # Per-layer tracing swaps these module attributes while a command runs,
    # so witness must look them up on each call.
    calls = []

    def spy(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "verify_iso", spy(cli.verify_iso))
    for name in presets.PRESETS:
        attr = name.replace("-", "_") + "_pair"
        monkeypatch.setattr(presets, attr, spy(getattr(presets, attr)))
        argv = ["witness", name, "--samples", "1", "--output", str(tmp_path / "w.json")]
        assert main(argv) == 0
        assert calls[-2:] == [attr, "verify_iso"]


def test_twist_types_share_one_apply():
    kinds = QuotientIso.__subclasses__()
    assert {k.kind for k in kinds} == {"central_transport", "place_swap", "graph_automorphism"}
    assert "apply" in QuotientIso.__dict__
    assert not [k for k in kinds if "apply" in k.__dict__]


# Runs one command and appends the seconds it took, import excluded, to stderr.
TIMED_MAIN = """
import sys, time
from congwit.cli import main
start = time.monotonic()
try:
    code = main(sys.argv[1:])
finally:
    sys.stderr.write(f"{time.monotonic() - start}\\n")
sys.exit(code)
"""


def run_isolated(tmp_path, doc, *argv, timeout=20):
    """`congwit <argv[0]> DOC <argv[1:]>` in a fresh interpreter capped at
    1 GB of address space and cut off after `timeout` seconds; returns the
    exit code, stdout, stderr and the command's own seconds."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(congwit.__file__).parents[1]))
    cap = (1 << 30, 1 << 30)
    run = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
    )
    err, _, seconds = run.stderr.rstrip("\n").rpartition("\n")
    return run.returncode, run.stdout, err + "\n" if err else "", float(seconds)


def assert_rejected_fast(tmp_path, doc, message):
    """Both bundle readers exit 2 with one error line within a second; a
    hang fails by the subprocess timeout."""
    for argv in (["obstruct"], ["verify-iso", "--samples", "3"]):
        code, out, err, seconds = run_isolated(tmp_path, doc, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert seconds < 1, (argv, seconds)


@pytest.mark.parametrize("preset,label", [("method-a", "p7"), ("method-c", "p7b")])
def test_absurd_level_exponent_is_refused_before_any_power(preset, label, tmp_path):
    # At p7 the modulus p^e, at p7b the e-step Hensel lift, used to run first.
    doc = bundle_to_json(presets.builder(preset)())
    doc["level"][label] = 10**9
    assert_rejected_fast(tmp_path, doc, f"modulus 7^{10**9} exceeds the 2^31 guard")


@pytest.mark.parametrize(
    "preset,n,message",
    [
        ("method-c", 3, "separating element at p7a must be 3x3"),
        ("method-c", 0, "n must be >= 2, not 0"),
        ("method-a", 2, "separating element at p5 must be 2x2"),
    ],
)
def test_bundle_n_must_match_the_document(preset, n, message, tmp_path, capsys):
    doc = bundle_to_json(presets.builder(preset)())
    doc["n"] = n
    assert_rejected(capsys, tmp_path, doc, message)


@pytest.mark.parametrize("n", [5000, 10**6])
def test_huge_bundle_n_is_refused_before_any_quotient(n, tmp_path):
    doc = bundle_to_json(presets.builder("method-c")())
    doc["n"] = n
    assert_rejected_fast(tmp_path, doc, f"must be {n}x{n}")


# One malformed base ring, place root or place kind per case, applied to
# a method-c bundle (d = 2; p7a carries the root 3 of 2 mod 7, p7b the root 4).
MALFORMED_QUADRATIC = {
    "root-not-a-square-root": (
        lambda b: b["places"][0].update(root=1),
        "place p7a: root 1 is not a square root of d = 2 mod 7",
    ),
    "d-without-these-roots": (
        lambda b: b["base_ring"].update(d=3),
        "place p7a: root 3 is not a square root of d = 3 mod 7",
    ),
    "rational-base-ring": (
        lambda b: b.update(base_ring={"kind": "rational_integers"}),
        "place p7a: a place over Z carries no root, not 3",
    ),
    "d-not-squarefree": (lambda b: b["base_ring"].update(d=8), "d squarefree in [2, 2^31)"),
    "unknown-ring-kind": (lambda b: b["base_ring"].update(kind="gaussian"), "is not Z or Z[sqrt(d)]"),
    "d-without-kind": (lambda b: b["base_ring"].pop("kind"), "is not Z or Z[sqrt(d)]"),
    "two-split-first-places": (
        lambda b: b["places"][1].update(kind="split_first"),
        "place p7b is split_second (p = 7, root 4), not split_first",
    ),
    "split-kinds-swapped": (
        lambda b: [b["places"][0].update(kind="split_second"), b["places"][1].update(kind="split_first")],
        "place p7a is split_first (p = 7, root 3), not split_second",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_QUADRATIC))
def test_base_ring_and_split_roots_must_agree(case, tmp_path, capsys):
    mutate, message = MALFORMED_QUADRATIC[case]
    doc = bundle_to_json(presets.method_c_pair())
    mutate(doc)
    assert_rejected(capsys, tmp_path, doc, message)


@pytest.mark.parametrize("kind,p", [("inert", 5), ("ramified", 3), ("rational", 5)])
@pytest.mark.parametrize("conditioned", [False, True], ids=["level-only", "conditioned"])
def test_inert_and_ramified_places_have_no_ring(kind, p, conditioned, tmp_path, capsys):
    # Over Z[sqrt(3)], 3 ramifies and 5 is inert: x^2 = 3 has no root in
    # (0, p), so neither prime has a place, whatever kind the document names.
    # The place gets a level entry and a separating element, and in one
    # variant a principal condition in both specs; the rational place there
    # used to pass verify-iso and fail obstruct.
    doc = bundle_to_json(presets.method_c_pair(3, 11, 13))
    label = f"p{p}"
    doc["places"].append({"label": label, "p": p, "kind": kind, "root": None})
    doc["level"][label] = 1
    doc["separating_element"][label] = {"modulus": p, "rows": [[1, 0], [0, 1]]}
    if conditioned:
        doc["conditions1"][label] = doc["conditions2"][label] = {"kind": "principal", "depth": 1}
    assert_rejected(capsys, tmp_path, doc, f"place {label}: a place over Z[sqrt(3)] needs a root in (0, {p})")


# case -> (preset, mutation making spec 2 the image of spec 1 under a
# global twist at every place)
GLOBALLY_CONJUGATE = {
    # the diagram symmetry
    "graph-image-at-p5": (
        "method-b",
        lambda b: b["conditions2"].update(p5={"kind": "parabolic", "theta": [1, 2]}),
    ),
    "full-at-p5": ("method-b", lambda b: [b["conditions1"].pop("p5"), b["conditions2"].pop("p5")]),
    # the ring conjugation: p7a <-> p7b and p17a <-> p17b
    "conjugation-image-with-p17b": (
        "method-c",
        lambda b: [
            b[key].update(p17b={"kind": "principal", "depth": 1}) for key in ("conditions1", "conditions2")
        ],
    ),
    # an explicit full condition at p17a constrains nothing there
    "conjugation-image-full-at-p17a": (
        "method-c",
        lambda b: [b[key].update(p17a={"kind": "full"}) for key in ("conditions1", "conditions2")],
    ),
}


@pytest.mark.parametrize("case", sorted(GLOBALLY_CONJUGATE))
def test_certificate_fails_for_globally_conjugate_specs(case, tmp_path, capsys):
    # The subgroups are isomorphic, so no certificate may hold.
    preset, mutate = GLOBALLY_CONJUGATE[case]
    doc = bundle_to_json(presets.builder(preset)())
    mutate(doc)
    path = tmp_path / "conjugate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "obstruct", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out)["obstruction"]["holds"] is False


def test_explicit_full_condition_is_no_condition(tmp_path, capsys):
    # p17a full in both specs of method-c: spec 1 is principal at p7a alone
    # and spec 2 at p7b alone, so no constrained place is shared
    doc = bundle_to_json(presets.method_c_pair())
    for key in ("conditions1", "conditions2"):
        doc[key]["p17a"] = {"kind": "full"}
    path = tmp_path / "full.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "obstruct", str(path))
    assert (code, err) == (1, "")
    obstruction = json.loads(out)["obstruction"]
    assert obstruction["holds"] is False
    assert obstruction["data"]["shared_places"] == []
    # a full entry needs no level entry, as no entry needs none
    doc = bundle_to_json(presets.method_a_pair())
    doc["places"].append({"label": "p11", "p": 11, "kind": "rational", "root": None})
    outputs = []
    for full in (False, True):
        if full:
            doc["conditions1"]["p11"] = {"kind": "full"}
        path.write_text(json.dumps(doc))
        outputs.append(run_cli(capsys, "obstruct", str(path)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def _relabel(value, names):
    """value with every dict key and string equal to a label renamed."""
    if isinstance(value, dict):
        return {names.get(k, k): _relabel(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_relabel(v, names) for v in value]
    return names.get(value, value) if isinstance(value, str) else value


def test_method_c_certificate_does_not_depend_on_label_spelling(tmp_path, capsys):
    names = {"p7a": "u", "p7b": "v", "p17a": "w", "p17b": "z"}
    back = {new: old for old, new in names.items()}
    base = bundle_to_json(presets.method_c_pair())
    outputs = []
    for doc in (base, _relabel(base, names)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "obstruct", str(path))
        assert (code, err) == (0, ""), out
        obstruction = json.loads(out)["obstruction"]
        code, out, err = run_cli(capsys, "verify-iso", str(path), "--samples", "40")
        assert (code, err) == (0, "")
        outputs.append([obstruction, json.loads(out)["iso_report"]])
    assert outputs[1][0]["data"]["conjugation"] == {"u": "v", "v": "u", "w": "z", "z": "w"}
    assert _relabel(outputs[1], back) == outputs[0]


# preset -> (cases, cases that are not rejected) for the fields outside the
# condition maps
DOCUMENT_FUZZ_COUNTS = {
    "method-a": (1111, 337),
    "method-b": (1518, 461),
    "method-c": (1133, 318),
    "s16": (759, 273),
}


def _document_mutation_is_well_formed(base, path, value):
    """The mutations outside the condition maps that leave a valid document:
    any inside params (a free record of the builder's arguments) or inside the
    recomputed orders and obstruction, a value set to what it was, a deleted
    null, a deleted level entry at a place without conditions, and an integer
    entry of a separating element in [0, modulus) (the determinant check
    decides)."""
    if path[0] in ("orders", "obstruction") or path[0] == "params" and len(path) > 1:
        return True
    if path[0] == "params":
        return isinstance(value, dict)
    old = functools.reduce(operator.getitem, path, base)
    if value is DELETE:
        conditioned = {*base["conditions1"], *base["conditions2"]}
        return old is None or (path[0] == "level" and path[1] not in conditioned)
    if type(value) is type(old) and value == old:
        return True
    if path[0] == "separating_element" and len(path) == 5 and type(value) is int:
        return 0 <= value < base["separating_element"][path[1]]["modulus"]
    return False


@pytest.mark.parametrize("preset", sorted(DOCUMENT_FUZZ_COUNTS))
def test_document_field_fuzz_exits_cleanly(preset, monkeypatch, capsys):
    base = bundle_to_json(presets.builder(preset)())
    text = json.dumps(base)
    docs = {}
    # each mutated document is handed over as parsed, without a file
    monkeypatch.setattr(cli, "_load_json", docs.pop)
    cases = accepted = 0
    for key in sorted(set(base) - {"conditions1", "conditions2"}):
        for where in _nodes(base[key], (key,)):
            for value in FUZZ_VALUES + (DELETE,):
                doc = json.loads(text)
                holder = functools.reduce(operator.getitem, where[:-1], doc)
                if value is DELETE:
                    del holder[where[-1]]
                else:
                    holder[where[-1]] = value
                docs["mutated.json"] = doc
                code, out, err = run_cli(capsys, "obstruct", "mutated.json")
                case = (where, value)
                cases += 1
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, case
                else:
                    assert code in (0, 1) and err == "", case
                    assert _document_mutation_is_well_formed(base, where, value), case
                    accepted += 1
    assert (cases, accepted) == DOCUMENT_FUZZ_COUNTS[preset]
