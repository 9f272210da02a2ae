import re
import shlex
from pathlib import Path

import pytest

from lrdustat.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the python block under "## Library example", run as written
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_cli_examples_parse():
    # every `lrdustat ...` line of the sh block under "## CLI" parses with
    # the current options; none is run
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("lrdustat ")]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `lrdustat {shlex.join(argv)}` does not "
                        "parse")
        assert args.subcommand == argv[0]
