"""The README's code runs against the package as it is.

A public name that is retired or renamed while the docs still use it fails
here instead of in a reader's session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick tour'"
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {"__name__": "quick_tour"})
