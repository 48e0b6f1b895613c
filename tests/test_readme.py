"""The README's code blocks run as written."""

import re
import shlex
from pathlib import Path

from shorsim.cli import build_parser, main

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


def readme_commands() -> list[str]:
    """The `shorsim ...` lines of the first ```bash block between `## Command
    line` and `## Library`, the lines the workflow runs through the installed
    console script."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## Library\n", 1)[0]
    block = re.search(r"^```bash\n(.*?)^```$", section, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("shorsim ")]


def test_command_line_block_parses_and_runs(tmp_path):
    lines = readme_commands()
    assert lines
    for k, line in enumerate(lines):
        argv = shlex.split(line, comments=True)[1:]
        build_parser().parse_args(argv)
        assert main(argv + ["--output-dir", str(tmp_path / str(k))]) == 0, line
