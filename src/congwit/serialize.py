"""Canonical JSON encoding of bundles and reports, and the reverse.

One output format: JSON with sorted keys, two-space indent and a trailing
newline, so identical inputs and seeds produce byte-identical documents.
Matrices serialize as row-major integer arrays with a modulus annotation.
Deserialized bundles are rebuilt from their specifications; certificates
are always recomputed, never trusted from the file.
"""

from __future__ import annotations

import json

from .errors import InputError, json_int, json_int_list
from .matrices import SLMat, from_rows
from .presets import TWIST_OF_METHOD, ObstructionReport, WitnessBundle, _bundle
from .quotients import CONDITION_OF_KIND, FiniteQuotientGroup, SubgroupSpec, subgroup_spec
from .rings import MAX_MODULUS, PrimePlace, is_prime, is_squarefree
from .twists import _place

SCHEMA_VERSION = "1"

_BUNDLE_KEYS = (
    "method",
    "params",
    "n",
    "base_ring",
    "places",
    "level",
    "conditions1",
    "conditions2",
    "iso",
    "separating_element",
)


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mat_to_json(m: SLMat) -> dict:
    return {"modulus": m.ring.modulus, "rows": [list(r) for r in m.entries]}


def _object(value, what) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, not {value!r}")
    return value


def place_to_json(v: PrimePlace) -> dict:
    return {"label": v.label, "p": v.p, "kind": v.kind, "root": v.root}


def place_from_json(doc, d: int | None) -> PrimePlace:
    """A place of the base ring Z (d None) or Z[sqrt(d)], checked against it.

    Over Z a place carries no root.  Over Z[sqrt(d)] it carries a root r of
    x^2 = d mod p with 0 < r < p, so p splits; inert and ramified primes
    have no such root.  The document's kind must be the kind the root gives.
    """
    doc = _object(doc, "a place")
    label, kind = doc.get("label"), doc.get("kind")
    if not isinstance(label, str) or not isinstance(kind, str):
        raise InputError(f"a place needs a string label and kind, not {doc!r}")
    p = json_int(doc, "p")
    # the bound keeps trial division short; no ring may reach MAX_MODULUS anyway
    if not (2 < p < MAX_MODULUS and is_prime(p)):
        raise InputError(f"place {label} needs an odd prime p below {MAX_MODULUS}, not {p}")
    root = None if doc.get("root") is None else json_int(doc, "root")
    if d is None and root is not None:
        raise InputError(f"place {label}: a place over Z carries no root, not {root}")
    if d is not None and (root is None or not 0 < root < p):
        raise InputError(f"place {label}: a place over Z[sqrt({d})] needs a root in (0, {p}), not {root}")
    if d is not None and (root * root - d) % p:
        raise InputError(f"place {label}: root {root} is not a square root of d = {d} mod {p}")
    place = PrimePlace(p, root, label)
    if kind != place.kind:
        raise InputError(f"place {label} is {place.kind} (p = {p}, root {root}), not {kind}")
    return place


def _conditions_to_json(spec: SubgroupSpec) -> dict:
    return {place.label: cond.to_json() for place, cond in spec.conditions}


def obstruction_to_json(o: ObstructionReport) -> dict:
    return {"kind": o.kind, "data": o.data, "holds": o.holds, "narrative": list(o.narrative)}


def _base_ring_to_json(d: int | None) -> dict:
    return {"kind": "rational_integers"} if d is None else {"kind": "quadratic_integers", "d": d}


def bundle_to_json(bundle: WitnessBundle) -> dict:
    sep = {
        place.label: mat_to_json(comp)
        for place, comp in zip(bundle.quotient1.places, bundle.separating_element)
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "witness_bundle",
        "method": bundle.method,
        "params": bundle.params,
        "n": bundle.n,
        "base_ring": _base_ring_to_json(bundle.d),
        "places": [place_to_json(p) for p in bundle.quotient1.places],
        "level": {place.label: e for place, e in bundle.level},
        "conditions1": _conditions_to_json(bundle.spec1),
        "conditions2": _conditions_to_json(bundle.spec2),
        "orders": {
            "quotient1": bundle.quotient1.order,
            "quotient2": bundle.quotient2.order,
        },
        "iso": bundle.iso.to_json(),
        "separating_element": sep,
        "obstruction": obstruction_to_json(bundle.obstruction),
    }


def bundle_from_json(doc) -> WitnessBundle:
    """Rebuild a bundle from its serialized form.

    Specifications, level and twist are reconstructed exactly; quotient
    orders and the obstruction certificate are recomputed rather than read
    back, so a tampered file cannot smuggle in stale claims.
    """
    if isinstance(doc, dict) and doc.get("kind") == "witness_run":
        doc = doc.get("bundle")
    if not isinstance(doc, dict) or doc.get("kind") != "witness_bundle":
        raise InputError("not a witness bundle document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {doc.get('schema_version')!r}")
    missing = [key for key in _BUNDLE_KEYS if key not in doc]
    if missing:
        raise InputError(f"bundle is missing {', '.join(missing)}")
    n = json_int(doc, "n")
    if n < 2:
        raise InputError(f"n must be >= 2, not {n}")
    method = doc["method"]
    twist = TWIST_OF_METHOD.get(method) if isinstance(method, str) else None
    if twist is None:
        raise InputError(f"unknown method {method!r}")
    iso_doc = doc["iso"]
    kind = iso_doc.get("kind") if isinstance(iso_doc, dict) else None
    if kind != twist.kind:
        raise InputError(f"method {method} needs a {twist.kind} twist, not {kind!r}")
    base_ring = _object(doc["base_ring"], "base_ring")
    d = json_int(base_ring, "d") if base_ring.get("kind") == "quadratic_integers" else None
    squarefree = d is None or 2 <= d < MAX_MODULUS and is_squarefree(d)  # bounded trial division
    if base_ring != _base_ring_to_json(d) or not squarefree:
        raise InputError(f"base_ring {base_ring!r} is not Z or Z[sqrt(d)], d squarefree in [2, 2^31)")
    if not isinstance(doc["places"], list):
        raise InputError(f"places must be a list, not {doc['places']!r}")
    place_list = tuple(place_from_json(p, d) for p in doc["places"])
    places = {place.label: place for place in place_list}
    if len(places) < len(place_list) or len({(v.p, v.root) for v in place_list}) < len(places):
        raise InputError("places need distinct labels and distinct (p, root)")
    level_doc = _object(doc["level"], "level")
    level = {_place(places, label): json_int(level_doc, label) for label in level_doc}
    # read before any quotient is built, whose size grows with n
    seps = _object(doc["separating_element"], "separating_element")
    sep_rows = {place: _separating_rows(seps.get(place.label), place, n) for place in level}

    def spec_of(key):
        conds = {}
        for label, c in _object(doc[key], key).items():
            place = _place(places, label)
            kind = _object(c, "a condition").get("kind")
            cond_type = CONDITION_OF_KIND.get(kind) if isinstance(kind, str) else None
            if cond_type is None:
                raise InputError(f"unknown condition kind {kind!r}")
            conds[place] = cond_type.from_json(c, n)
        return subgroup_spec(n, conds, d=d)

    spec1, spec2 = spec_of("conditions1"), spec_of("conditions2")
    q1, q2 = FiniteQuotientGroup(spec1, level), FiniteQuotientGroup(spec2, level)
    iso = twist.from_json(iso_doc, q1, q2, places)
    sep = []
    for place, ring in zip(q1.places, q1.rings):
        modulus, rows = sep_rows[place]
        if modulus != ring.modulus:
            raise InputError(f"separating element modulus mismatch at {place.label}")
        sep.append(from_rows(rows, ring))
    return _bundle(method, _object(doc["params"], "params"), place_list, spec1, spec2, iso, sep)


def _separating_rows(doc, place: PrimePlace, n: int) -> tuple[int, list]:
    """The modulus and rows of the separating element at a place, n x n,
    with every entry canonically reduced into [0, modulus)."""
    doc = _object(doc, f"separating element at {place.label}")
    modulus, rows = json_int(doc, "modulus"), doc.get("rows")
    if not isinstance(rows, list):
        raise InputError(f"separating element rows at {place.label} must be a list")
    rows = [json_int_list(r, "a row") for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError(f"separating element at {place.label} must be {n}x{n}")
    if any(not 0 <= x < modulus for r in rows for x in r):
        raise InputError(
            f"separating element at {place.label}: entries must be canonically reduced into [0, {modulus})"
        )
    return modulus, rows
