"""README's "Library use" block runs as written, every ``hballs`` command
line in README and in the CLI's usage text parses, and README's thm24 figures
are those of a default report, so the documented API, flags and figures
cannot go stale."""

import re
import shlex
from pathlib import Path

from hballs import cli
from hballs.theorems import HarnessConfig, suite_thm24

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_documented_command_lines_parse():
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    shell = [text for lang, text in fenced if lang != "python"]
    lines = [line.strip() for text in (*shell, cli.__doc__) for line in text.splitlines()]
    commands = [line for line in lines if line.startswith("hballs ")]
    assert len(commands) >= 10   # five in README's CLI block, five in the usage text
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])   # exits 2 on a flag it does not know


def test_thm24_figures_are_the_default_report():
    text = " ".join(README.read_text(encoding="utf-8").split())
    grid, points, pairs = re.search(
        r"the (\d+)-point grid followed by `samples` seeded uniform points with "
        r"\|z\| <= 0\.7 \(([\d,]+) points, ([\d,]+) pairs at the defaults\)", text).groups()
    limits = re.search(r"one per grid point \(([\d,]+) limits at the defaults\)", text).group(1)
    inputs = suite_thm24(HarnessConfig())[0].inputs
    figures = [int(figure.replace(",", "")) for figure in (grid, points, pairs, limits)]
    assert figures == [inputs["grid"], inputs["grid"] + HarnessConfig().samples,
                       inputs["pairs"], inputs["limits"]]
