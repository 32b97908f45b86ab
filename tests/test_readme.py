"""The README's Python example runs as written and prints what its
comments say, and the grammar names the DSL's functions."""

import re
from pathlib import Path

import pytest

from genconvex import funcdsl

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    printed = []
    exec(blocks[0], {"print": printed.append})
    witness, verdict = printed
    assert (witness.x, witness.y, witness.t) == (0.0, 1.0, 0.75)
    assert verdict.status == "pass"
    assert verdict.lhs == pytest.approx(1 / 3, abs=1e-12)
    assert verdict.rhs == pytest.approx(1 / 2, abs=1e-12)


def test_the_grammar_names_the_call_rows_of_the_operator_table():
    calls = sorted(name for name, op in funcdsl._OPS.items() if op.level == 5)
    readme = re.findall(r"^func\s+∈ \{(.*)\}$", _README.read_text(encoding="utf-8"), re.M)
    docstring = re.findall(r"^\s*func\s+in \{(.*)\}$", funcdsl.__doc__, re.M)
    assert len(readme) == len(docstring) == 1
    for names in readme + docstring:
        assert sorted(names.split(", ")) == calls
