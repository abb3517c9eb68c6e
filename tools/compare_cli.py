"""Compare the command-line behaviour of this checkout with another one.

    python3 tools/compare_cli.py PARENT_DIR

Runs one fixed set of `congwit` invocations in this checkout and in
PARENT_DIR, each as `python3 -m congwit.cli ...` with PYTHONPATH=<dir>/src
and its own empty working directory, and compares exit codes, stdout,
stderr and the files each run writes.  A run whose stderr holds a Python
traceback on either side counts as differing, even where the two sides
agree.  Every run that differs is printed with its differences; the exit
code is 1 if any run differs, else 0.

The set is 53 runs.  Forty-one compare a change with its parent on
ordinary inputs:
  - `witness` on each preset at --samples 50 --seed 0 (each saved with
    --output) and at --samples 400 --seed 3;
  - six non-default parameter sets;
  - method-a at n = 3, 5, 6 and 9 at --samples 200 --seed 3: generated
    matrix and sampler kernels up to GENERATED_MAX_N = 8, and the generic
    ones at n = 9;
  - method-b at the large primes p = 101, q = 103, whose certificate
    counts fixed lines over F_101 and F_103;
  - `search-primes` four times, once at d = 15 with 7 excluded, which
    skips the ramified primes 3 and 5 and is larger than 11, the first
    prime it finds;
  - `selftest` at --samples 50, which passes every check and exits 0, and
    with each --inject-fault mode, which stop at the second and the fourth
    check;
  - `verify-iso` and `obstruct` on the four saved documents;
  - `verify-iso` (--samples 300 --seed 3) and `obstruct` on the saved
    method-b document re-levelled to 5^2 at p5, the runs in which a
    parabolic condition sits above level 1;
  - `verify-iso` (--samples 400 --seed 3) on the saved method-b document
    with conditions2 = conditions1, where the diagram symmetry at p7 is
    refuted with a membership-failure count that depends on the draws;
  - `verify-iso` (--samples 300 --seed 3) on the saved method-b document
    moved to n = 6, theta = {2, 4, 5} and theta* = {1, 2, 4}, where the
    diagram symmetry's kernel folds in a sign of w0;
  - `verify-iso` (--samples 400 --seed 3) on the saved method-b document
    with p3 full in conditions1 and theta = {2, 3} at p3 in conditions2,
    refuted with a membership-failure count that depends on the n = 4 full
    word's draws;
  - `verify-iso` (--samples 400 --seed 3) on the saved method-a document
    at level 1 with a full place p3, sampled rather than enumerated, where
    the central-principal component sits at depth = e;
  - `verify-iso` on a missing file.
Twelve edge runs follow: nine witness inputs that a constructor refuses,
`obstruct` on two documents derived from the saved ones that hold an
explicit `full` condition, and `obstruct` on the saved method-a document
at central order 4, which the set-up of its central condition at p7
refuses.  The per-check timings of `selftest` are masked;
nothing else is.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PRESETS = ("method-a", "method-b", "method-c", "s16")
TIMING = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)
TRACEBACK = "Traceback (most recent call last)"


def _full_at_p17a(cwd: Path):
    """method-c with p17a full in both specs: no constrained place is shared."""
    doc = json.loads((cwd / "method-c.json").read_text())
    for key in ("conditions1", "conditions2"):
        doc["bundle"][key]["p17a"] = {"kind": "full"}
    (cwd / "full-p17a.json").write_text(json.dumps(doc))


def _full_without_level(cwd: Path):
    """method-a with a place p11 that has no level entry and a full condition."""
    doc = json.loads((cwd / "method-a.json").read_text())
    doc["bundle"]["places"].append({"label": "p11", "p": 11, "kind": "rational", "root": None})
    doc["bundle"]["conditions1"]["p11"] = {"kind": "full"}
    (cwd / "full-p11.json").write_text(json.dumps(doc))


def _method_b_at_25(cwd: Path):
    """method-b with level 2 at p5, so its parabolic condition there is read mod 25."""
    doc = json.loads((cwd / "method-b.json").read_text())
    doc["bundle"]["level"]["p5"] = 2
    doc["bundle"]["separating_element"]["p5"]["modulus"] = 25
    (cwd / "method-b-25.json").write_text(json.dumps(doc))


def _method_b_self_twist(cwd: Path):
    """method-b with conditions2 = conditions1, twisted by the diagram
    symmetry at p7, which carries theta = {2, 3} onto {1, 2}, not onto itself."""
    doc = json.loads((cwd / "method-b.json").read_text())
    doc["bundle"]["conditions2"] = doc["bundle"]["conditions1"]
    doc["bundle"]["iso"] = {"kind": "graph_automorphism", "place": "p7"}
    (cwd / "method-b-self.json").write_text(json.dumps(doc))


def _method_b_at_6(cwd: Path):
    """method-b at n = 6 with theta = {2, 4, 5} and theta* = {1, 2, 4}, where
    w0 has a sign -1 and the diagram symmetry's kernel folds it in."""
    doc = json.loads((cwd / "method-b.json").read_text())
    bundle = doc["bundle"]
    bundle["n"] = 6
    for key in ("conditions1", "conditions2"):
        for label in ("p5", "p7"):
            bundle[key][label]["theta"] = [2, 4, 5]
    bundle["conditions2"]["p7"]["theta"] = [1, 2, 4]
    for label, sep in bundle["separating_element"].items():
        sep["rows"] = [[int(i == j or (label, i, j) == ("p7", 5, 3)) for j in range(6)] for i in range(6)]
    (cwd / "method-b-6.json").write_text(json.dumps(doc))


def _method_b_full_at_3(cwd: Path):
    """method-b with p3 dropped from conditions1, a full SL_4(F_3) component
    sampled as an elementary word, and theta = {2, 3} at p3 in conditions2."""
    doc = json.loads((cwd / "method-b.json").read_text())
    del doc["bundle"]["conditions1"]["p3"]
    doc["bundle"]["conditions2"]["p3"] = {"kind": "parabolic", "theta": [2, 3]}
    (cwd / "method-b-full3.json").write_text(json.dumps(doc))


def _method_a_at_level_1(cwd: Path):
    """method-a at level 1 with a full place p3: too large for the exhaustive
    tier, so the central-principal component at depth = e is sampled."""
    doc = json.loads((cwd / "method-a.json").read_text())
    bundle = doc["bundle"]
    bundle["places"].insert(0, {"label": "p3", "p": 3, "kind": "rational", "root": None})
    bundle["level"] = {"p3": 1, "p5": 1, "p7": 1}
    bundle["separating_element"] = {}
    for label, p in (("p3", 3), ("p5", 5), ("p7", 7)):
        diag = p - 1 if label == "p5" else 1  # -I mod 5, the identity elsewhere
        rows = [[diag * (i == j) for j in range(4)] for i in range(4)]
        bundle["separating_element"][label] = {"modulus": p, "rows": rows}
    (cwd / "method-a-1.json").write_text(json.dumps(doc))


def _method_a_order_4(cwd: Path):
    """method-a with order 4 in both central conditions and in the twist:
    4 divides gcd(4, 5 - 1) at p5 but not gcd(4, 7 - 1) at p7."""
    doc = json.loads((cwd / "method-a.json").read_text())
    bundle = doc["bundle"]
    for key, label in (("conditions1", "p5"), ("conditions2", "p7")):
        bundle[key][label]["order"] = 4
    bundle["iso"]["scalar_order"] = 4
    (cwd / "method-a-4.json").write_text(json.dumps(doc))


def runs() -> list[tuple[str, list[str], object]]:
    """(name, argv, prepare) in run order; prepare(cwd), if any, writes the
    run's input into the side's working directory first."""
    out = []
    for preset in PRESETS:
        argv = ["witness", preset, "--samples", "50", "--seed", "0", "--output", f"{preset}.json"]
        out.append((f"witness {preset} saved", argv, None))
        out.append((f"witness {preset} 400", ["witness", preset, "--samples", "400", "--seed", "3"], None))
    for flags in (
        ["method-a", "--q", "13", "--order", "4", "--level", "1"],
        ["method-a", "--n", "2", "--p", "3", "--q", "5", "--level", "1"],
        ["method-b", "--p", "7", "--q", "11"],
        ["method-b", "--p", "13", "--q", "5"],
        ["method-c", "--q", "23"],
        ["s16", "--p", "11"],
    ):
        out.append(("witness " + " ".join(flags), ["witness", *flags, "--samples", "50"], None))
    for flags in (
        ["method-a", "--n", "3", "--order", "3", "--p", "7", "--q", "13"],
        ["method-a", "--n", "5", "--order", "5", "--p", "11", "--q", "31"],
        ["method-a", "--n", "6", "--order", "3", "--p", "7", "--q", "13"],
        ["method-a", "--n", "9", "--order", "3", "--p", "7", "--q", "13"],
    ):
        argv = ["witness", *flags, "--samples", "200", "--seed", "3"]
        out.append(("witness " + " ".join(flags), argv, None))
    flags = ["method-b", "--p", "101", "--q", "103"]
    out.append(("witness " + " ".join(flags), ["witness", *flags, "--samples", "50"], None))
    for flags in (
        ["--d", "2", "--count", "3"],
        ["--full-center", "4", "--count", "2"],
        ["--d", "5", "--count", "4", "--exclude", "11", "--full-center", "4"],
        ["--d", "15", "--count", "4", "--exclude", "7"],
    ):
        out.append(("search-primes " + " ".join(flags), ["search-primes", *flags], None))
    out.append(("selftest", ["selftest", "--samples", "50"], None))
    for fault in ("w0-sign", "place-swap-a"):
        out.append((f"selftest {fault}", ["selftest", "--samples", "50", "--inject-fault", fault], None))
    for preset in PRESETS:
        doc = f"{preset}.json"
        out.append((f"verify-iso {doc}", ["verify-iso", doc, "--samples", "50"], None))
        out.append((f"obstruct {doc}", ["obstruct", doc], None))
    argv = ["verify-iso", "method-b-25.json", "--samples", "300", "--seed", "3"]
    out.append(("verify-iso method-b-25.json", argv, _method_b_at_25))
    out.append(("obstruct method-b-25.json", ["obstruct", "method-b-25.json"], _method_b_at_25))
    argv = ["verify-iso", "method-b-self.json", "--samples", "400", "--seed", "3"]
    out.append(("verify-iso method-b-self.json", argv, _method_b_self_twist))
    argv = ["verify-iso", "method-b-6.json", "--samples", "300", "--seed", "3"]
    out.append(("verify-iso method-b-6.json", argv, _method_b_at_6))
    argv = ["verify-iso", "method-b-full3.json", "--samples", "400", "--seed", "3"]
    out.append(("verify-iso method-b-full3.json", argv, _method_b_full_at_3))
    argv = ["verify-iso", "method-a-1.json", "--samples", "400", "--seed", "3"]
    out.append(("verify-iso method-a-1.json", argv, _method_a_at_level_1))
    out.append(("verify-iso missing file", ["verify-iso", "missing.json"], None))
    # edge runs
    for flags in (
        ["method-a", "--p", "2"],
        ["method-a", "--order", "3"],
        ["method-a", "--order", "4"],
        ["method-a", "--level", "0"],
        ["method-a", "--n", "1"],
        ["method-a", "--n", "0"],
        ["method-a", "--p", "9"],
        ["method-b", "--p", "9"],
        ["method-c", "--q", "15"],
    ):
        out.append(("witness " + " ".join(flags), ["witness", *flags, "--samples", "50"], None))
    out.append(("obstruct full-p17a.json", ["obstruct", "full-p17a.json"], _full_at_p17a))
    out.append(("obstruct full-p11.json", ["obstruct", "full-p11.json"], _full_without_level))
    out.append(("obstruct method-a-4.json", ["obstruct", "method-a-4.json"], _method_a_order_4))
    return out


def _start(checkout: Path, cwd: Path, argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-m", "congwit.cli", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _outcome(proc: subprocess.Popen, cwd: Path, before: dict, argv: list[str]) -> dict:
    stdout, stderr = proc.communicate()
    if argv[0] == "selftest":
        stdout = TIMING.sub(" (T)", stdout)
    files = {p.name: p.read_bytes() for p in cwd.iterdir()}
    written = {name: data for name, data in files.items() if before.get(name) != data}
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "files": written}


def compare(parent: Path) -> list[tuple[str, dict, dict]]:
    """The runs whose outcomes differ, as (name, parent outcome, outcome here).

    The two sides of each run execute at the same time."""
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = [(parent, Path(tmp) / "parent"), (HERE, Path(tmp) / "change")]
        for _, cwd in sides:
            cwd.mkdir()
        for name, argv, prepare in runs():
            started = []
            for checkout, cwd in sides:
                if prepare is not None:
                    prepare(cwd)
                before = {p.name: p.read_bytes() for p in cwd.iterdir()}
                started.append((_start(checkout, cwd, argv), cwd, before))
            old, new = (_outcome(proc, cwd, before, argv) for proc, cwd, before in started)
            if old != new or any(TRACEBACK in side["stderr"] for side in (old, new)):
                differing.append((name, old, new))
    return differing


def _show(name: str, old: dict, new: dict):
    print(f"DIFFERS: {name}")
    if old["exit"] != new["exit"]:
        print(f"  exit: parent {old['exit']}, change {new['exit']}")
    for side, outcome in (("parent", old), ("change", new)):
        if TRACEBACK in outcome["stderr"]:
            print(f"  traceback in the {side}: {outcome['stderr'].splitlines()[-1]}")
    texts = [(key, old[key], new[key]) for key in ("stdout", "stderr")]
    for fname in sorted(set(old["files"]) | set(new["files"])):
        a, b = (side["files"].get(fname, b"").decode(errors="replace") for side in (old, new))
        texts.append((f"file {fname}", a, b))
    for what, a, b in texts:
        if a != b:
            print(f"  {what}:")
            lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change", n=0, lineterm="")
            for line in list(lines)[2:]:
                print(f"    {line}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "congwit").is_dir():
        print("usage: compare_cli.py PARENT_DIR (a checkout with src/congwit)", file=sys.stderr)
        return 2
    differing = compare(Path(args[0]).resolve())
    for name, old, new in differing:
        _show(name, old, new)
    print(f"{len(runs())} runs, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
