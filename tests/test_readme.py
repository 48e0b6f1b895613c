"""The README's code blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the `## heading` section of the README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    namespace = {}
    exec(compile(readme_block("Library"), f"{README}:Library", "exec"), namespace)
    assert namespace["held"] is True
    assert (namespace["pair"].f1, namespace["pair"].f2) == (5, 7)
