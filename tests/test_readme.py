"""Every ```python block of README.md runs, and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def expected_outputs(code: str) -> list:
    """The value commented after each print() line of code, or None."""
    return [line.partition("  # ")[2].strip() or None
            for line in code.splitlines() if line.startswith("print(")]


def test_readme_has_the_commented_outputs():
    assert len(BLOCKS) == 3
    assert [v for code in BLOCKS for v in expected_outputs(code) if v] == ["3.5", "0.5310..."]


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = expected_outputs(code)
    assert len(printed) == len(expected)
    for out, want in zip(printed, expected):
        if want is not None and want.endswith("..."):
            assert out.startswith(want[:-3]), (out, want)
        elif want is not None:
            assert out == want
