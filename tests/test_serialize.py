import json

import pytest

from congwit.errors import InputError
from congwit.presets import method_a_pair, method_b_pair, method_c_pair, s16_pair
from congwit.serialize import (
    SCHEMA_VERSION,
    bundle_from_json,
    bundle_to_json,
    dumps_canonical,
    mat_to_json,
)
from congwit.twists import verify_iso


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair, s16_pair])
def test_bundle_round_trip(bundle_fn):
    bundle = bundle_fn()
    doc = bundle_to_json(bundle)
    rebuilt = bundle_from_json(json.loads(dumps_canonical(doc)))
    assert rebuilt.method == bundle.method
    assert rebuilt.quotient1.order == bundle.quotient1.order
    assert rebuilt.quotient2.order == bundle.quotient2.order
    assert rebuilt.iso.kind == bundle.iso.kind
    assert rebuilt.spec1 == bundle.spec1
    assert rebuilt.spec2 == bundle.spec2
    assert rebuilt.separating_element == bundle.separating_element
    assert rebuilt.obstruction.holds
    assert bundle_to_json(rebuilt) == doc


def test_round_trip_preserves_verification():
    bundle = s16_pair()
    rebuilt = bundle_from_json(bundle_to_json(bundle))
    report = verify_iso(rebuilt.iso, 10, 0)
    assert report.verdict == "witnessed"


def test_canonical_dump_shape():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_mat_serialization_has_modulus():
    bundle = s16_pair()
    doc = mat_to_json(bundle.separating_element[0])
    assert doc["modulus"] == 3
    assert doc["rows"] == [[2, 0], [0, 2]]


def test_rejects_wrong_schema_or_kind():
    bundle = s16_pair()
    doc = bundle_to_json(bundle)
    bad = dict(doc, schema_version="0")
    with pytest.raises(InputError):
        bundle_from_json(bad)
    with pytest.raises(InputError):
        bundle_from_json({"kind": "something_else"})


def test_rejects_tampered_separating_modulus():
    bundle = s16_pair()
    doc = json.loads(dumps_canonical(bundle_to_json(bundle)))
    doc["separating_element"]["p3"]["modulus"] = 9
    with pytest.raises(InputError):
        bundle_from_json(doc)


def test_obstruction_is_recomputed_not_trusted():
    bundle = method_a_pair()
    doc = json.loads(dumps_canonical(bundle_to_json(bundle)))
    doc["obstruction"]["holds"] = False
    rebuilt = bundle_from_json(doc)
    assert rebuilt.obstruction.holds  # recomputation overrides the stored claim


def test_schema_version_constant():
    assert SCHEMA_VERSION == "1"
    assert bundle_to_json(s16_pair())["schema_version"] == SCHEMA_VERSION


def test_s16_has_rank_two_where_method_a_at_three_and_five_has_rank_one():
    # SL_2 has rank 2 over Z[1/7] but rank 1 over Z
    with pytest.raises(InputError, match="rank 1"):
        method_a_pair(2, 3, 5, 2, 1)
    assert s16_pair(7).obstruction.holds


def test_rejects_graph_twist_without_parabolic_conditions():
    doc = json.loads(dumps_canonical(bundle_to_json(method_b_pair())))
    doc["conditions2"]["p7"] = {"kind": "full"}
    with pytest.raises(InputError, match="needs parabolic conditions"):
        bundle_from_json(doc)
