"""The README's Python examples run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# `print(...)  # value`: the comment states the printed line
STATED = re.compile(r"^\s*print\(.*\)\s+#\s*(.+?)\s*$")


def test_readme_examples_print_stated_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    stated = [[m.group(1) for m in map(STATED.match, b.splitlines()) if m] for b in blocks]
    assert any(stated), "no `print(...)  # value` line found in the README"
    for block, values in zip(blocks, stated):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        lines = iter(out.getvalue().splitlines())
        # each stated value is a whole output line, in the order stated
        for value in values:
            assert any(line == value for line in lines), f"{value!r} not printed"
