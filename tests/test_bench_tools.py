"""The bench/ tools that acceptance checks rely on still load and count
as their docstrings say."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# code lines 5, 8, 10, 11 and 12: the string inside the expression spans
# two lines and counts on both; docstrings, comments and blanks do not
FIXTURE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f():
    """Function docstring."""
    x = ("""first
second""")
    return x
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", BENCH / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_only_and_totals_its_rows(tmp_path, capsys):
    code_lines = _code_lines()
    assert code_lines.code_lines(FIXTURE) == 5
    package = tmp_path / "ffast2d"
    package.mkdir()
    (package / "a.py").write_text(FIXTURE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main(["--src", str(tmp_path)]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert rows == {"a.py": "5", "b.py": "1", "total": "6"}


@pytest.mark.parametrize("tool", ["ab.py", "korder.py", "faults.py",
                                  "decode_digest.py", "code_lines.py"])
def test_bench_tool_loads(tool):
    # --help imports the tool and everything it imports at module level,
    # korder.py's `from ab import ...` among them
    done = subprocess.run([sys.executable, str(BENCH / tool), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
