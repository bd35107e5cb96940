"""Every fenced python block of README.md runs and prints what it says.

A comment line right after a ``print(...)`` line is that print's expected
output, with ``...`` standing for any text. Blocks run in a temporary
working directory, each in a fresh namespace.
"""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.S | re.M)


def expected_output(block):
    lines = block.splitlines()
    return [after.lstrip("# ") for line, after in zip(lines, lines[1:])
            if line.startswith("print(")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    printed = capsys.readouterr().out.splitlines()
    expected = expected_output(block)
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), got
