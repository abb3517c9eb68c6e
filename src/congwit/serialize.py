"""Canonical JSON encoding of bundles and reports, and the reverse.

One output format: JSON with sorted keys, two-space indent and a trailing
newline, so identical inputs and seeds produce byte-identical documents.
Matrices serialize as row-major integer arrays with a modulus annotation.
Deserialized bundles are rebuilt from their specifications; certificates
are always recomputed, never trusted from the file.
"""

from __future__ import annotations

import json

from .errors import InputError
from .matrices import SLMat
from .presets import ObstructionReport, WitnessBundle, obstruction_report
from .quotients import (
    CENTRAL_PRINCIPAL,
    FULL,
    PARABOLIC,
    PRINCIPAL,
    LocalCondition,
    SubgroupSpec,
    central_principal,
    full_condition,
    parabolic_pullback,
    principal,
    quotient_of,
    subgroup_spec,
)
from .parabolics import root_subset
from .rings import PrimePlace
from .twists import (
    CENTRAL_TRANSPORT,
    GRAPH_AUT,
    IDENTITY,
    PLACE_SWAP,
    IsoReport,
    QuotientIso,
    central_transport,
    graph_aut_at_place,
    place_swap,
)

SCHEMA_VERSION = "1"

# The twist kind each preset method is witnessed by.
_ISO_KIND = {"A": CENTRAL_TRANSPORT, "S16": CENTRAL_TRANSPORT, "B": GRAPH_AUT, "C": PLACE_SWAP}
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


def place_to_json(v: PrimePlace) -> dict:
    return {"label": v.label, "p": v.p, "kind": v.kind, "root": v.root}


def place_from_json(doc) -> PrimePlace:
    return PrimePlace(doc["p"], doc["kind"], doc["root"], doc["label"])


def condition_to_json(c: LocalCondition) -> dict:
    if c.kind == FULL:
        return {"kind": FULL}
    if c.kind == PRINCIPAL:
        return {"kind": PRINCIPAL, "depth": c.depth}
    if c.kind == CENTRAL_PRINCIPAL:
        return {"kind": CENTRAL_PRINCIPAL, "order": c.order, "depth": c.depth}
    return {"kind": PARABOLIC, "theta": sorted(c.theta.members)}


def condition_from_json(doc, n: int) -> LocalCondition:
    kind = doc["kind"]
    if kind == FULL:
        return full_condition()
    if kind == PRINCIPAL:
        return principal(doc["depth"])
    if kind == CENTRAL_PRINCIPAL:
        return central_principal(doc["order"], doc["depth"])
    if kind == PARABOLIC:
        return parabolic_pullback(root_subset(n, doc["theta"]))
    raise InputError(f"unknown condition kind {kind!r}")


def _conditions_to_json(spec: SubgroupSpec) -> dict:
    return {place.label: condition_to_json(cond) for place, cond in spec.conditions}


def iso_to_json(iso: QuotientIso) -> dict:
    if iso.kind == CENTRAL_TRANSPORT:
        return {
            "kind": iso.kind,
            "from_place": iso.from_place.label,
            "to_place": iso.to_place.label,
            "scalar_order": iso.scalar_order,
        }
    if iso.kind == PLACE_SWAP:
        return {
            "kind": iso.kind,
            "from_place": iso.from_place.label,
            "to_place": iso.to_place.label,
        }
    if iso.kind == GRAPH_AUT:
        return {"kind": iso.kind, "place": iso.place.label}
    return {"kind": IDENTITY}


def report_to_json(r: IsoReport) -> dict:
    return {
        "samples_used": r.samples_used,
        "homomorphism_failures": r.homomorphism_failures,
        "membership_failures": r.membership_failures,
        "inverse_failures": r.inverse_failures,
        "order_match": r.order_match,
        "verdict": r.verdict,
        "exhaustive": r.exhaustive,
        "master_seed": r.master_seed,
    }


def obstruction_to_json(o: ObstructionReport) -> dict:
    return {"kind": o.kind, "data": o.data, "holds": o.holds, "narrative": list(o.narrative)}


def bundle_to_json(bundle: WitnessBundle) -> dict:
    base_ring = (
        {"kind": "rational_integers"}
        if bundle.d is None
        else {"kind": "quadratic_integers", "d": bundle.d}
    )
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
        "base_ring": base_ring,
        "places": [place_to_json(p) for p in bundle.quotient1.places],
        "level": {place.label: e for place, e in bundle.level},
        "conditions1": _conditions_to_json(bundle.spec1),
        "conditions2": _conditions_to_json(bundle.spec2),
        "orders": {
            "quotient1": bundle.quotient1.order,
            "quotient2": bundle.quotient2.order,
        },
        "iso": iso_to_json(bundle.iso),
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
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n must be an integer, not {n!r}")
    method = doc["method"]
    expected = _ISO_KIND.get(method) if isinstance(method, str) else None
    if expected is None:
        raise InputError(f"unknown method {method!r}")
    iso_doc = doc["iso"]
    kind = iso_doc.get("kind") if isinstance(iso_doc, dict) else None
    if kind != expected:
        raise InputError(f"method {method} needs a {expected} twist, not {kind!r}")
    d = doc["base_ring"].get("d")
    places = {p["label"]: place_from_json(p) for p in doc["places"]}
    level = {places[label]: e for label, e in doc["level"].items()}

    def spec_of(key):
        conds = {
            places[label]: condition_from_json(c, n) for label, c in doc[key].items()
        }
        return subgroup_spec(n, conds, d=d)

    spec1, spec2 = spec_of("conditions1"), spec_of("conditions2")
    q1, q2 = quotient_of(spec1, level), quotient_of(spec2, level)
    if kind == CENTRAL_TRANSPORT:
        iso = central_transport(
            q1, q2, places[iso_doc["from_place"]], places[iso_doc["to_place"]], iso_doc["scalar_order"]
        )
    elif kind == PLACE_SWAP:
        iso = place_swap(q1, q2, places[iso_doc["from_place"]], places[iso_doc["to_place"]])
    else:
        iso = graph_aut_at_place(q1, q2, places[iso_doc["place"]])
    sep = []
    for place, ring in zip(q1.places, q1.rings):
        mdoc = doc["separating_element"][place.label]
        if mdoc["modulus"] != ring.modulus:
            raise InputError(f"separating element modulus mismatch at {place.label}")
        sep.append(SLMat(ring, tuple(tuple(x % ring.modulus for x in r) for r in mdoc["rows"])))
    bundle = WitnessBundle(
        method=method,
        params=doc["params"],
        n=n,
        d=d,
        places=tuple(places[p["label"]] for p in doc["places"]),
        level=q1.level,
        spec1=spec1,
        spec2=spec2,
        quotient1=q1,
        quotient2=q2,
        iso=iso,
        separating_element=tuple(sep),
        obstruction=None,
    )
    bundle.obstruction = obstruction_report(bundle)
    return bundle
