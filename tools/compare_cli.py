"""Compare the command-line behaviour of this checkout with another one.

    python3 tools/compare_cli.py PARENT_DIR

Runs one fixed set of `congwit` invocations in this checkout and in
PARENT_DIR, each as `python3 -m congwit.cli ...` with PYTHONPATH=<dir>/src
and its own empty working directory, and compares exit codes, stdout,
stderr and the files each run writes.  Every run that differs is printed
with its differences; the exit code is 1 if any run differs, else 0.

The set is 43 runs.  Thirty-three compare a change with its parent on
ordinary inputs:
  - `witness` on each preset at --samples 50 --seed 0 (each saved with
    --output) and at --samples 400 --seed 3;
  - six non-default parameter sets;
  - method-a at n = 3 and n = 5, which reach the generic-n matrix and
    sampler branches, at --samples 200 --seed 3;
  - method-b at the large primes p = 101, q = 103, whose certificate
    counts fixed lines over F_101 and F_103;
  - `search-primes` three times;
  - `selftest` with each --inject-fault mode;
  - `verify-iso` and `obstruct` on the four saved documents;
  - `verify-iso` (--samples 300 --seed 3) and `obstruct` on the saved
    method-b document re-levelled to 5^2 at p5, the runs in which a
    parabolic condition sits above level 1;
  - `verify-iso` on a missing file.
Ten edge runs follow: eight witness inputs that a constructor refuses, and
`obstruct` on two documents derived from the saved ones that hold an
explicit `full` condition.  The per-check timings of `selftest` are masked;
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
    ):
        argv = ["witness", *flags, "--samples", "200", "--seed", "3"]
        out.append(("witness " + " ".join(flags), argv, None))
    flags = ["method-b", "--p", "101", "--q", "103"]
    out.append(("witness " + " ".join(flags), ["witness", *flags, "--samples", "50"], None))
    for flags in (
        ["--d", "2", "--count", "3"],
        ["--full-center", "4", "--count", "2"],
        ["--d", "5", "--count", "4", "--exclude", "11", "--full-center", "4"],
    ):
        out.append(("search-primes " + " ".join(flags), ["search-primes", *flags], None))
    for fault in ("w0-sign", "place-swap-a"):
        out.append((f"selftest {fault}", ["selftest", "--samples", "50", "--inject-fault", fault], None))
    for preset in PRESETS:
        doc = f"{preset}.json"
        out.append((f"verify-iso {doc}", ["verify-iso", doc, "--samples", "50"], None))
        out.append((f"obstruct {doc}", ["obstruct", doc], None))
    argv = ["verify-iso", "method-b-25.json", "--samples", "300", "--seed", "3"]
    out.append(("verify-iso method-b-25.json", argv, _method_b_at_25))
    out.append(("obstruct method-b-25.json", ["obstruct", "method-b-25.json"], _method_b_at_25))
    out.append(("verify-iso missing file", ["verify-iso", "missing.json"], None))
    # edge runs
    for flags in (
        ["method-a", "--p", "2"],
        ["method-a", "--order", "3"],
        ["method-a", "--order", "4"],
        ["method-a", "--level", "0"],
        ["method-a", "--n", "1"],
        ["method-a", "--p", "9"],
        ["method-b", "--p", "9"],
        ["method-c", "--q", "15"],
    ):
        out.append(("witness " + " ".join(flags), ["witness", *flags, "--samples", "50"], None))
    out.append(("obstruct full-p17a.json", ["obstruct", "full-p17a.json"], _full_at_p17a))
    out.append(("obstruct full-p11.json", ["obstruct", "full-p11.json"], _full_without_level))
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
            if old != new:
                differing.append((name, old, new))
    return differing


def _show(name: str, old: dict, new: dict):
    print(f"DIFFERS: {name}")
    if old["exit"] != new["exit"]:
        print(f"  exit: parent {old['exit']}, change {new['exit']}")
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
