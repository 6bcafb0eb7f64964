"""The README's Python examples run as written, and its scenario
documents load."""

import re
from pathlib import Path

from cloudsched import load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_print_what_they_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "30.0 80.0\n" in out
    assert "(1, 3, 1, 4) (20.0, 40.0, 20.0, 40.0)\n" in out
    assert "73.33 80.0\n" in out


def test_readme_json_blocks_load_as_scenarios():
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        load_scenario(block)
