import importlib.util
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
    assert proc.stdout == "58 runs, 0 differ\n"


def test_compare_cli_needs_a_checkout():
    tool = ROOT / "tools" / "compare_cli.py"
    proc = subprocess.run([sys.executable, str(tool), str(ROOT / "tests")], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("usage:")


def test_compare_cli_counts_a_crash_on_both_sides_as_a_difference(tmp_path, monkeypatch, capsys):
    # both sides are one fake checkout whose cli raises, so they agree
    fake = tmp_path / "fake"
    (fake / "src" / "congwit").mkdir(parents=True)
    (fake / "src" / "congwit" / "__init__.py").write_text("")
    (fake / "src" / "congwit" / "cli.py").write_text('raise RuntimeError("broken cli")\n')
    spec = importlib.util.spec_from_file_location("compare_cli", ROOT / "tools" / "compare_cli.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "HERE", fake)
    monkeypatch.setattr(tool, "runs", lambda: [("witness method-a", ["witness", "method-a"], None)])
    assert tool.main([str(fake)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS: witness method-a\n")
    assert "  traceback in the parent: RuntimeError: broken cli\n" in out
    assert "  traceback in the change: RuntimeError: broken cli\n" in out
    assert out.endswith("1 runs, 1 differ\n")
