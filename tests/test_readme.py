"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) > 0.0     # the PPP mean interference, W
    assert printed[1].startswith("OptimizationResult(")
    mean, plus_minus, halfwidth = printed[2].split()
    assert plus_minus == "+/-" and float(mean) > 0.0 and float(halfwidth) > 0.0
