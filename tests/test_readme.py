"""The README's code samples name what the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from ctxcert import" in block
    exec(compile(block, str(README), "exec"), {})
