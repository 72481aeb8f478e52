"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library example", "exec"), {"__name__": "readme_example"})
    drift = float(capsys.readouterr().out.strip())
    assert abs(drift) < 1e-10
