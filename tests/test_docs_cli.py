"""The README's command lines parse as the CLI reads them.

Every `ssag ...` line of the README's CLI block goes through the parser,
and the config overrides of `run` and `verify-bound` are applied to the
README's example config and loaded, so the docs cannot name a flag or a
field the CLI no longer takes.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from ssag.bench import ExperimentConfig, _apply_overrides, _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
CLI_LINES = [line for line in re.search(r"## CLI\n+```\n(.*?)```", TEXT, re.DOTALL)
             .group(1).splitlines() if line.startswith("ssag ")]


def test_cli_block_covers_every_command():
    commands = {shlex.split(line)[1] for line in CLI_LINES}
    assert commands == {"gen-data", "estimate-constants", "run", "compare", "verify-bound",
                        "plot"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_command_line_parses(line):
    args, extras = _build_parser().parse_known_args(shlex.split(line)[1:])
    if args.command not in ("run", "verify-bound"):
        assert extras == []
        return
    example = re.search(r"mirroring `ExperimentConfig`:\n+```json\n(.*?)```", TEXT, re.DOTALL)
    # a retired flag or an unknown field raises ConfigError here
    ExperimentConfig.from_dict(_apply_overrides(json.loads(example.group(1)), extras))
