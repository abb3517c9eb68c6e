"""Command-line front end.

Commands: witness {method-a|method-b|method-c|s16}, search-primes,
verify-iso, obstruct, selftest.  All reports are canonical JSON on stdout
(or --output); identical configuration and seed give byte-identical bytes.
Exit codes: 0 every recomputed certificate holds and the verdict is
witnessed, 1 a check refuted something, 2 invalid input, 3 an internal
error (a RuntimeError, such as a worker that ended without a result).

The argument parser is built once per process: the witness flags are read
from the preset builders' signatures then.  The builders and verify_iso
themselves are looked up on each call, so a module attribute swapped at run
time (as per-layer tracing does) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import asdict

from .errors import InputError
from .presets import PRESETS, builder
from .rings import find_split_primes
from .selftest import FAULTS, run_selftest
from .serialize import (
    SCHEMA_VERSION,
    bundle_from_json,
    bundle_to_json,
    dumps_canonical,
    obstruction_to_json,
)
from .twists import verify_iso

DEFAULT_SAMPLES = 10000
DEFAULT_SEED = 0

_FLAG_HELP = {
    "order": "order of the transported central element",
    "level": "level exponent at both places",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congwit",
        description="construct and verify finite-level congruence quotient pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witness = sub.add_parser("witness", help="build a preset pair and verify its twist")
    methods = witness.add_subparsers(dest="method", required=True)

    def common(sp):
        sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--output", default=None, help="write JSON here instead of stdout")

    for name, help_text in PRESETS.items():
        sp = methods.add_parser(name, help=help_text)
        for param in inspect.signature(builder(name)).parameters.values():
            sp.add_argument(
                f"--{param.name}", type=int, default=param.default, help=_FLAG_HELP.get(param.name)
            )
        common(sp)

    sp = sub.add_parser("search-primes", help="ascending split primes, optionally congruence-filtered")
    sp.add_argument("--d", type=int, default=None, help="quadratic ring parameter (1 = rational)")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--exclude", type=int, action="append", default=[])
    sp.add_argument(
        "--full-center",
        type=int,
        default=None,
        metavar="N",
        help="require p = 1 mod N so the full group of N-th roots of unity is residual",
    )
    sp.add_argument("--output", default=None)

    vi = sub.add_parser("verify-iso", help="re-verify the twist of a saved bundle")
    vi.add_argument("bundle", help="path to a witness JSON document")
    vi.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    vi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vi.add_argument("--output", default=None)

    ob = sub.add_parser("obstruct", help="recompute the certificates of a saved bundle")
    ob.add_argument("bundle")
    ob.add_argument("--output", default=None)

    st = sub.add_parser("selftest", help="run the oracle suite and all preset witnesses")
    st.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    st.add_argument("--seed", type=int, default=DEFAULT_SEED)
    st.add_argument("--inject-fault", choices=FAULTS, default=None)
    return parser


def _emit(doc: dict, output: str | None):
    text = dumps_canonical(doc)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_witness(args) -> int:
    build = builder(args.method)
    params = {name: getattr(args, name) for name in inspect.signature(build).parameters}
    bundle = build(**params)
    config = {"command": "witness", "method": args.method, **params}
    config["samples"] = args.samples
    config["seed"] = args.seed
    report = verify_iso(bundle.iso, args.samples, args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "witness_run",
        "config": config,
        "bundle": bundle_to_json(bundle),
        "iso_report": asdict(report),
        "obstruction_holds": bundle.obstruction.holds,
    }
    _emit(doc, args.output)
    return 0 if report.witnessed and bundle.obstruction.holds else 1


def _cmd_search_primes(args) -> int:
    if args.d is None and args.full_center is None:
        raise InputError("give --d and/or --full-center")
    d = args.d if args.d is not None else 1
    congruence = (args.full_center, 1) if args.full_center is not None else None
    primes = find_split_primes(d, args.count, set(args.exclude), congruence)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "prime_search",
        "config": {
            "command": "search-primes",
            "d": d,
            "count": args.count,
            "exclude": sorted(args.exclude),
            "full_center": args.full_center,
        },
        "primes": primes,
    }
    _emit(doc, args.output)
    return 0


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _cmd_verify_iso(args) -> int:
    bundle = bundle_from_json(_load_json(args.bundle))
    report = verify_iso(bundle.iso, args.samples, args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "iso_verification",
        "config": {
            "command": "verify-iso",
            "bundle": args.bundle,
            "samples": args.samples,
            "seed": args.seed,
        },
        "method": bundle.method,
        "iso_report": asdict(report),
    }
    _emit(doc, args.output)
    return 0 if report.witnessed else 1


def _cmd_obstruct(args) -> int:
    bundle = bundle_from_json(_load_json(args.bundle))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "obstruction_recompute",
        "config": {"command": "obstruct", "bundle": args.bundle},
        "method": bundle.method,
        "obstruction": obstruction_to_json(bundle.obstruction),
    }
    _emit(doc, args.output)
    return 0 if bundle.obstruction.holds else 1


COMMANDS = {
    "witness": _cmd_witness,
    "search-primes": _cmd_search_primes,
    "verify-iso": _cmd_verify_iso,
    "obstruct": _cmd_obstruct,
    "selftest": lambda args: run_selftest(args.samples, args.seed, args.inject_fault),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
