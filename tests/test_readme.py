"""The README's library example and report schemas agree with the code, so they cannot go stale."""

import re
from pathlib import Path

from test_golden import CASES, GOLDEN, REPORTS, _format_of

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _documented_csv_headers():
    """{command: header} from the ``csv, ...`` lines of the "Report schemas" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Report schemas\n.*?```\n(.*?)```", text, re.S).group(1)
    headers = {}
    for line in block.splitlines():
        if line and not line.startswith(" "):
            command = line.split()[0]
        elif line.lstrip().startswith("csv,"):
            headers[command] = line.split()[-1]
    return headers


def test_report_schemas_match_the_golden_csv_headers():
    headers = _documented_csv_headers()
    csv_cases = {
        name: CASES[name]["argv"][0] for name in REPORTS if _format_of(CASES[name]["argv"]) == "csv"
    }
    assert set(csv_cases.values()) == set(headers)
    for name, command in csv_cases.items():
        emitted = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8").splitlines()[0]
        assert emitted == headers[command], name
