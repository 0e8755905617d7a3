"""README's library example runs as written, so the docs name no export
that has left vkalex."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for code in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue()
