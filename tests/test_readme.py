"""The README's library example runs as written and re-ranks as it says."""

import re
from pathlib import Path

from trackref.geometry import Box

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_selects_the_consistent_tube():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library example\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["track"] == {1: Box(20, 0, 10, 10), 2: Box(20, 0, 10, 10)}
