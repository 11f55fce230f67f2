"""README's fenced Python blocks, run in order in one namespace.

The snippets build on each other (the quickstart's ``a`` and ``ctx`` feed
the later blocks), so a snippet that calls a deleted or renamed API fails
here instead of in a reader's first session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
