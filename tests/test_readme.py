"""The README's examples run against the package as they are written."""

import re
from pathlib import Path

from rotosphere import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library example", "exec"), {"__name__": "readme_example"})
    drift = float(capsys.readouterr().out.strip())
    assert abs(drift) < 1e-10


def test_simulate_config_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    config = re.search(r"A simulation config is a JSON object:\n\n```json\n(.*?)```",
                       text, re.DOTALL).group(1)
    (tmp_path / "sim.json").write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", str(tmp_path / "sim.json"), "--outdir", str(out)]) == 0
    # 628 steps at a stride of 500: the initial state, step 500 and the last step
    assert sorted(p.name for p in out.glob("snapshot_*.shc")) == [
        f"snapshot_{k:06d}.shc" for k in range(3)]
