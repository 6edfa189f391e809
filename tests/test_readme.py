"""The README's Python examples run as written, and give the values their comments state."""

import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_python_blocks_run_in_order_and_print_what_they_say():
    assert len(BLOCKS) >= 3
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in BLOCKS:
            exec(compile(block, "README.md", "exec"), namespace)  # the blocks' own asserts run here
    assert "# (3, 2, 2) 1.6056509846...\n" in BLOCKS[0]
    assert out.getvalue().startswith("(3, 2, 2) 1.6056509846")
    stated = 'construct(dist, profile, "prune", metric="entropy").sequence   # (2, 3, 2)\n'
    assert any(stated in block for block in BLOCKS)
    assert eval(stated.partition("#")[0], namespace) == (2, 3, 2)
