import copy
import functools
import hashlib
import json
import operator

import pytest

from congwit import cli, presets
from congwit.cli import build_parser, main
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


def test_witness_method_b_rejects_equal_primes(capsys):
    code, out, err = run_cli(capsys, "witness", "method-b", "--p", "5", "--q", "5")
    assert code == 2
    assert out == ""
    assert "distinct" in err


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_nested_bundle_field_is_rejected(case, method_a_doc, tmp_path, capsys):
    mutate, message = MALFORMED[case]
    doc = json.loads(json.dumps(method_a_doc))
    mutate(doc["bundle"])
    assert_rejected(capsys, tmp_path, doc, message)


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
    base = bundle_to_json(cli._builder(preset)())
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
    for name in cli.PRESETS:
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
