"""README.md's ``## Library`` example runs as written, and prints the
object map its last comment shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_block() -> str:
    """The first Python block of README.md's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_example_prints_the_obj_map_it_shows():
    code = library_block()
    shown = re.search(r"^print\(eq\.forward\.obj_map\)\s+# (.*)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == shown + "\n"
    assert shown == "{'b0|bot0': 'b0|top0', 'b1|bot1': 'b1|top1'}"
