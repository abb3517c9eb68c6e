"""congwit benchmark: witness verify-loop throughput and saved-bundle replay.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload witness-b --seed 0 --seconds 25 --trace 0

Run every workload and print every metric with its unit:

    python3 bench/run.py --workload all --seed 0 --trace 0

The harness imports congwit from ``src/`` of the checkout it lives in and
drives it through ``congwit.cli.main`` and the package's public functions,
one operation at a time from one thread.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced operations and reports the per-layer metrics.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
# dataclasses and functools are imported by congwit; loading them here
# keeps their import out of every set-up but the first.
import dataclasses  # noqa: F401
import functools  # noqa: F401
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# Sample pairs per witness call.  The preset CLI defaults are 10,000; these
# budgets keep one call near 1 s on a 2-core x86 sandbox, so that a run
# reports the median of some 25 calls.  That host's speed drifts by up to
# 1.8x in phases lasting seconds to minutes; a single call of about 1 s
# spreads 13-18 % between repeats.
WITNESS = {
    "witness-a": ("method-a", 1000),
    "witness-b": ("method-b", 300),
    "witness-c": ("method-c", 2000),
}
REPLAY_PRESETS = ("method-a", "method-b", "method-c", "s16")
# The obstruct documents do not depend on the verification budget, so the
# replay documents are generated with a small one.
REPLAY_SAMPLES = 50
SETUP_REPEATS = 7
MIN_OPS = 3
OUTPUT = "out.json"
# The reference computation (0.2-0.4 s in all) runs at least every
# REF_INTERVAL_S seconds of a run.
REF_MATRIX = ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3))
REF_ROUNDS = 2000
REF_SIZE = 200_000
REF_INTERVAL_S = 1.5

# Callables predicted not to run on a workload; every other traced callable
# must record calls, or the traced run fails (a missed binding reads as 0).
EXPECTED_ZERO = {
    "witness-a": {
        "matrices.mat_inv",
        "parabolics.graph_automorphism",
        "parabolics.graph_automorphism_inverse",
        "parabolics.fixed_lines",
        "quotients.enumerate_quotient",
        "serialize.bundle_from_json",
    },
    "witness-b": {
        "rings.unit_of_order",
        "matrices.scalar_mul",
        "quotients.enumerate_quotient",
        "serialize.bundle_from_json",
    },
    "witness-c": {
        "rings.unit_of_order",
        "matrices.mat_inv",
        "matrices.scalar_mul",
        "parabolics.graph_automorphism",
        "parabolics.graph_automorphism_inverse",
        "parabolics.fixed_lines",
        "quotients.enumerate_quotient",
        "serialize.bundle_from_json",
    },
    "replay": {
        "matrices.mat_mul",
        "matrices.mat_inv",
        "parabolics.graph_automorphism",
        "parabolics.graph_automorphism_inverse",
        "quotients.sample",
        "quotients.tuple_mul",
        "quotients.enumerate_quotient",
        "twists.apply",
        "twists.child_seed",
        "twists.verify_iso",
        "presets.build",
        "serialize.bundle_to_json",
    },
}

# Fixed-input layer timings: (suffix, n, p, e) for SL_n(Z/p^e).
FIXED_INPUTS = (("n4", 4, 7, 2), ("n2", 2, 17, 1))
FIXED_BATCH = 64
FIXED_SECONDS = 0.2


class BenchError(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# importing congwit from the checkout


def fresh_import():
    """Import congwit from src/ anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "congwit"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("congwit.cli")
    if Path(sys.modules["congwit"].__file__).resolve().parent != SRC / "congwit":
        raise BenchError(f"congwit was not imported from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# operations and their checks


class Checker:
    """Counts operations and checks each emitted document.

    At the recorded seed every document must match its golden sha256.  At
    other seeds the obstruct documents (which do not depend on the seed)
    still must, and every other document must be byte-equal to the first
    copy of it emitted in the run.
    """

    def __init__(self, seed: int, record: bool):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.recorded_seed = golden["seed"]
        self.golden = golden["documents"]
        self.at_recorded_seed = seed == self.recorded_seed
        self.record = record
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, key: str, data: bytes, ok: bool):
        self.attempted += 1
        digest = hashlib.sha256(data).hexdigest()
        if self.record:
            self.golden[key] = digest
        if self.at_recorded_seed or key.startswith("obstruct "):
            want = self.golden.get(key)
        else:
            want = self.seen.setdefault(key, digest)
        if not ok or digest != want:
            self.failed += 1
            print(f"failed: {key} (sha256 {digest}, want {want})", file=sys.stderr)

    def save(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        golden["documents"].update(self.golden)
        golden["documents"] = dict(sorted(golden["documents"].items()))
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


def call_main(argv) -> int | None:
    """One congwit CLI call; None if it raised instead of returning a code."""
    try:
        return sys.modules["congwit.cli"].main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        print(f"congwit {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        return None


def read_output(path: str) -> tuple[bytes, dict | None]:
    try:
        data = Path(path).read_bytes()
        return data, json.loads(data)
    except (OSError, ValueError):
        return b"", None


def witnessed(doc, samples: int, seed: int) -> bool:
    report = doc["iso_report"]
    return (
        report["verdict"] == "witnessed"
        and report["homomorphism_failures"] == 0
        and report["membership_failures"] == 0
        and report["inverse_failures"] == 0
        and report["order_match"] is True
        and report["master_seed"] == seed
        and (report["exhaustive"] or report["samples_used"] == samples)
        and doc["obstruction_holds"] is True
        and doc["bundle"]["obstruction"]["holds"] is True
    )


def witness_argv(preset: str, samples: int, seed: int, output: str):
    return ["witness", preset, "--samples", str(samples), "--seed", str(seed), "--output", output]


def check_witness(checker, argv, rc, samples, seed):
    data, doc = read_output(argv[-1])
    ok = rc == 0 and doc is not None and witnessed(doc, samples, seed)
    checker.check(" ".join(argv[:-2]), data, ok)


def witness_op(checker, preset, samples, seed, verify_times=None) -> float:
    """One `congwit witness` call, checked; returns its wall time.

    With a `verify_times` list, the call's `verify_iso` time is appended.
    """
    argv = witness_argv(preset, samples, seed, OUTPUT)
    Path(OUTPUT).unlink(missing_ok=True)
    cli = sys.modules["congwit.cli"]
    verify_iso = cli.verify_iso

    def timed_verify(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return verify_iso(*args, **kwargs)
        finally:
            verify_times.append(time.perf_counter() - t0)

    if verify_times is not None:
        cli.verify_iso = timed_verify
    start = time.perf_counter()
    try:
        rc = call_main(argv)
    finally:
        elapsed = time.perf_counter() - start
        cli.verify_iso = verify_iso
    check_witness(checker, argv, rc, samples, seed)
    return elapsed


def replay_op(checker) -> float:
    """One cycle of `congwit obstruct` over the four saved documents."""
    outputs = []
    start = time.perf_counter()
    for preset in REPLAY_PRESETS:
        output = f"{preset}.obstruct.json"
        argv = ["obstruct", f"{preset}.json", "--output", output]
        outputs.append((argv, call_main(argv)))
    elapsed = time.perf_counter() - start
    for argv, rc in outputs:
        data, doc = read_output(argv[-1])
        ok = rc == 0 and doc is not None and doc["obstruction"]["holds"] is True
        checker.check(" ".join(argv[:-2]), data, ok)
        Path(argv[-1]).unlink(missing_ok=True)
    return elapsed


# ---------------------------------------------------------------------------
# set-up


def setup_witness(preset: str) -> float:
    """Import plus preset build: specs, quotients, orders, twist, certificate."""
    start = time.perf_counter()
    fresh_import()
    presets = sys.modules["congwit.presets"]
    builder = getattr(presets, preset.replace("-", "_") + "_pair")
    bundle = builder()
    bundle.quotient1.order, bundle.quotient2.order
    return time.perf_counter() - start


def setup_replay(checker, seed: int) -> float:
    """Import plus the four preset witness documents that replay re-reads."""
    start = time.perf_counter()
    fresh_import()
    runs = []
    for preset in REPLAY_PRESETS:
        argv = witness_argv(preset, REPLAY_SAMPLES, seed, f"{preset}.json")
        runs.append((argv, call_main(argv)))
    elapsed = time.perf_counter() - start
    for argv, rc in runs:
        check_witness(checker, argv, rc, REPLAY_SAMPLES, seed)
    return elapsed


# ---------------------------------------------------------------------------
# measurement


def make_setup(workload, seed, checker):
    if workload == "replay":
        return lambda: setup_replay(checker, seed)
    return lambda: setup_witness(WITNESS[workload][0])


def make_op(workload, seed, checker, verify_times=None):
    if workload == "replay":
        return lambda: replay_op(checker)
    preset, samples = WITNESS[workload]
    return lambda: witness_op(checker, preset, samples, seed, verify_times)


def reference_s() -> float:
    """Wall time of a fixed pure-Python computation that shares no code with
    congwit.

    It is the geometric mean of a compute-bound part (products of 4x4
    integer matrices mod 49) and a memory-bound part (shuffling and sorting
    REF_SIZE integers, a working set of several MB).  The host's speed
    phases slow the two parts by different factors, and congwit's slowdown
    lies between them.
    """
    t0 = time.perf_counter()
    acc = REF_MATRIX
    cols = tuple(zip(*REF_MATRIX))
    for _ in range(REF_ROUNDS):
        acc = tuple(tuple(sum(a * b for a, b in zip(row, col)) % 49 for col in cols) for row in acc)
    t1 = time.perf_counter()
    values = list(range(REF_SIZE))
    random.Random(REF_SIZE).shuffle(values)
    values.sort()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def measure_end_to_end(workload, seed, seconds, checker) -> tuple[dict, dict]:
    """Operations back to back for `seconds`; returns (metrics, raw seconds).

    Each operation's time is divided by the mean of the reference times
    taken just before and just after it, so that most of a change of the
    host's speed during or between runs cancels out.  The set-ups are
    spread evenly over the run, because set-ups taken back to back would
    all see one speed phase.
    """
    setup = make_setup(workload, seed, checker)
    verify_times = []
    op = make_op(workload, seed, checker, verify_times)
    setups = [setup()]
    # A first, untimed operation warms the caches.  The process's peak memory
    # is read after it and before the reference computation first runs, so
    # that the reference's own allocation does not count.
    op()
    del verify_times[:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls, ref_before = [], []
    refs = [reference_s()]
    ref_at = start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(walls) >= MIN_OPS and now - start >= seconds:
            break
        if len(setups) < SETUP_REPEATS and now - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
        if time.perf_counter() - ref_at >= REF_INTERVAL_S:
            refs.append(reference_s())
            ref_at = time.perf_counter()
        ref_before.append(len(refs) - 1)
        walls.append(op())
    refs.append(reference_s())
    bracket = [(refs[i] + refs[i + 1]) / 2 for i in ref_before]

    if workload == "replay":
        docs = len(REPLAY_PRESETS)
        call_s = item_s = [c / docs for c in walls]
    else:
        call_s = walls
        item_s = [t / WITNESS[workload][1] for t in verify_times]
    metrics = {
        "setup_s": median(setups),
        "call_cost": median([c / r for c, r in zip(call_s, bracket)]),
        "item_cost": median([c / r for c, r in zip(item_s, bracket)]),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {"call_s": median(call_s), "item_s": median(item_s), "ref_s": median(refs)}
    return metrics, raw


def percentile_us(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def fixed_input_timings(seed: int) -> dict:
    """µs/op of the core matrix kernels on one seeded batch per shape."""
    matrices = sys.modules["congwit.matrices"]
    parabolics = sys.modules["congwit.parabolics"]
    quotients = sys.modules["congwit.quotients"]
    rings = sys.modules["congwit.rings"]
    twists = sys.modules["congwit.twists"]
    out = {}
    for suffix, n, p, e in FIXED_INPUTS:
        place = rings.rational_place(p)
        group = quotients.FiniteQuotientGroup(quotients.subgroup_spec(n, {}), {place: e})
        batch = [group.sample(twists.child_seed(seed, i))[0] for i in range(FIXED_BATCH)]
        pairs = list(zip(batch, batch[1:] + batch[:1]))
        cases = {
            "matrices.SLMat": (matrices.SLMat, [(g.ring, g.entries) for g in batch]),
            "matrices.mat_mul": (matrices.mat_mul, pairs),
            "matrices.mat_inv": (matrices.mat_inv, [(g,) for g in batch]),
            "parabolics.graph_automorphism": (parabolics.graph_automorphism, [(g,) for g in batch]),
        }
        for name, (fn, args_list) in cases.items():
            passes = []
            deadline = time.perf_counter() + FIXED_SECONDS
            while len(passes) < 5 or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                for args in args_list:
                    fn(*args)
                passes.append(time.perf_counter() - t0)
            out[f"{name}.us_op.{suffix}"] = median(passes) / len(args_list) * 1e6
    return out


def measure_traced(workload, seed, seconds, checker) -> tuple[dict, list[str]]:
    """Alternate untraced and traced operations; per-layer metrics per op."""
    from layertrace import Tracer

    metrics = fixed_input_timings(seed)
    op = make_op(workload, seed, checker)
    samples = 0 if workload == "replay" else WITNESS[workload][1]
    tracer = Tracer()
    walls = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while len(walls[True]) < 1 or time.perf_counter() - start < seconds:
        if traced:
            tracer.install()
        try:
            walls[traced].append(op())
        finally:
            tracer.remove()
        traced = not traced

    ops = len(walls[True])
    for prefix, stat in tracer.stats.items():
        metrics[f"{prefix}.count"] = stat.count / ops
        metrics[f"{prefix}.self_s"] = stat.self_s / ops
        if stat.durations is not None:
            metrics[f"{prefix}.us_p50"] = percentile_us(stat.durations, 50)
            metrics[f"{prefix}.us_p99"] = percentile_us(stat.durations, 99)
    metrics["twists.verify_iso.pairs"] = samples
    metrics["matrices.SLMat.per_pair"] = (
        metrics["matrices.SLMat.count"] / samples if samples else 0.0
    )
    metrics["trace.overhead"] = median(walls[True]) / median(walls[False])

    uncovered = [
        prefix
        for prefix, stat in tracer.stats.items()
        if stat.count == 0 and prefix not in EXPECTED_ZERO[workload]
    ]
    return metrics, uncovered


# ---------------------------------------------------------------------------
# run record and entry points


def run_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = {}
    sources = hashlib.sha256()
    for path in sorted((SRC / "congwit").glob("*.py")):
        data = path.read_bytes()
        sources.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown",
        "src_sha256": sources.hexdigest(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    checker = Checker(args.seed, args.record_golden)
    if args.record_golden and not checker.at_recorded_seed:
        raise BenchError(f"golden hashes are recorded at seed {checker.recorded_seed} only")
    work = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        uncovered, raw = [], {}
        if args.trace:
            # Two set-ups, so that the replay documents are emitted twice.
            setup = make_setup(args.workload, args.seed, checker)
            setup()
            setup()
            values, uncovered = measure_traced(args.workload, args.seed, args.seconds, checker)
            listed = spec["per_layer"]
        else:
            values, raw = measure_end_to_end(args.workload, args.seed, args.seconds, checker)
            listed = spec["end_to_end"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    if args.record_golden:
        checker.save()

    mismatch = set(values) ^ {m["name"] for m in listed}
    if mismatch:
        raise BenchError(f"metrics {sorted(mismatch)} disagree with BENCHMARK.json")
    for name in uncovered:
        print(f"coverage: {name} recorded no calls on {args.workload}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    if raw and raw["item_s"]:
        replay = args.workload == "replay"
        call, item = ("obstruct_s", "docs_per_s") if replay else ("witness_s", "pairs_per_s")
        print(f"{args.workload} {call} {raw['call_s']:.6g} s (raw, unbounded)")
        print(f"{args.workload} {item} {1 / raw['item_s']:.6g} 1/s (raw, unbounded)")
        print(f"{args.workload} ref_s {raw['ref_s']:.6g} s (reference computation)")
    print(f"{args.workload} failed_share {checker.failed / checker.attempted:.6g} share")
    print(json.dumps({"run_record": run_record()}, sort_keys=True))
    correct = checker.failed == 0 and not uncovered
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed = True, 0, 0
    for workload in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"]]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        if args.record_golden:
            argv.append("--record-golden")
        child = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        sys.stdout.write(child.stdout)
        try:
            result = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0}
        correct = correct and child.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store the sha256 of every emitted document as golden (recorded seed only)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "congwit" / "__init__.py").is_file():
        print(f"bench: no congwit package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args, spec)
        return run_workload(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
