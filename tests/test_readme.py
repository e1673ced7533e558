"""The README's library quick tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    # the block ends in its own strong-duality assert
    exec(compile(blocks[0], "README.md", "exec"), {})
