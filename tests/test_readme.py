"""The README's library quick tour runs as written: its checks are asserts."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert match, "README.md has no python block under 'Library quick tour'"
    exec(compile(match.group(1), "README.md quick tour", "exec"), {})
