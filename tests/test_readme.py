"""The README's examples: every json block is a loadable schedule, every python block runs."""

import json
import re
from pathlib import Path

import pytest

from ivasim.schedule import parse_schedule

README = Path(__file__).parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


JSON_BLOCKS = _blocks("json")
PYTHON_BLOCKS = _blocks("python")


def test_readme_has_json_and_python_examples():
    assert JSON_BLOCKS and PYTHON_BLOCKS


@pytest.mark.parametrize("block", JSON_BLOCKS, ids=[f"json{i}" for i in range(len(JSON_BLOCKS))])
def test_readme_json_block_is_a_valid_schedule(block):
    schedule = parse_schedule(json.loads(block))
    assert schedule.categories


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"python{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
