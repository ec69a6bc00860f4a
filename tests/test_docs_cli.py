"""The README's command lines parse as the CLI reads them.

Every `ssag ...` line of the README's CLI block goes through the parser,
and the config overrides of `run` and `verify-bound` are applied to the
README's example config and loaded, so the docs cannot name a flag or a
field the CLI no longer takes.  The flags the README names as `run`'s and
`verify-bound`'s own are the ones their parsers declare, and the README's
table of section keys is compared with `SECTION_RULES`.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from ssag.bench import SECTION_RULES, ExperimentConfig, _apply_overrides, _build_parser
from ssag.optimizers import SPECS

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


@pytest.mark.parametrize("command", ["run", "verify-bound"])
def test_readme_names_each_declared_flag(command):
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {flag for action in subparsers.choices[command]._actions
                for flag in action.option_strings} - {"-h", "--help"}
    sentence = re.search(rf"`{command}` declares (.*?)\.", " ".join(TEXT.split()))
    assert set(re.findall(r"`(-[-\w]+)`", sentence.group(1))) == declared


def test_readme_section_table_matches_section_rules():
    rows = re.findall(r"^  \| `(\w+)` \| (`[^|]*`) \| ([^|]*) \|$", TEXT, re.MULTILINE)
    seen = set()
    for section, kinds, keys in rows:
        keys = re.sub(r"\([^)]*\)", "", keys)  # drop the notes on allowed values
        listed = re.findall(r"`(\w+)`", keys)
        bold = re.findall(r"\*\*`(\w+)`\*\*", keys)
        for kind in re.findall(r"`(\w+)`", kinds):
            required, rules = SECTION_RULES[section][kind]
            if section == "optimizer":  # the settings the kind reads, besides h
                assert listed == ["h", *SPECS[kind].settings], kind
            else:
                assert listed == list(rules), kind
            assert bold == list(required), kind
            seen.add((section, kind))
    assert seen == {(section, kind) for section, kinds in SECTION_RULES.items()
                    for kind in kinds}
