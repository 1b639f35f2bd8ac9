"""Demos 01-04 print their committed stdout, and demo 05 reproduces the
committed ``demo-output/`` byte for byte."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_reference_engine", "02_convention_divergence", "03_bucket_stratification", "04_benchmark_suite",
])
def test_demo_prints_its_committed_stdout(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "demos" / "expected" / f"{name}.txt").read_text()


def test_full_experiment_writes_the_committed_demo_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "05_full_experiment.py"), run_name="__main__")
    written = tmp_path / "demo-output"
    committed = ROOT / "demo-output"
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (committed / name).read_bytes(), name
