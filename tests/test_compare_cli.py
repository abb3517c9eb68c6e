import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_cli_finds_no_difference_against_its_own_checkout():
    tool = ROOT / "tools" / "compare_cli.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(ROOT)], capture_output=True, text=True, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    assert proc.stdout == "46 runs, 0 differ\n"


def test_compare_cli_needs_a_checkout():
    tool = ROOT / "tools" / "compare_cli.py"
    proc = subprocess.run([sys.executable, str(tool), str(ROOT / "tests")], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("usage:")
