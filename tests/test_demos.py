"""Demo 05 reproduces the committed ``demo-output/`` byte for byte."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_full_experiment_writes_the_committed_demo_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "05_full_experiment.py"), run_name="__main__")
    written = tmp_path / "demo-output"
    committed = ROOT / "demo-output"
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (committed / name).read_bytes(), name
