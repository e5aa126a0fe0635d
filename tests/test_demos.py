"""Smoke test of the narrative scripts in ``demos/``: each runs cleanly, warns
nothing, and a second run prints the same text and writes the same bytes."""

import pathlib
import runpy
import shutil
import warnings

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run(script, capsys):
    """Run a demo as ``__main__``; return its printed text and the bytes of
    each file it wrote to ``out/`` beside it."""
    out = script.with_name("out")
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(script), run_name="__main__")
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return capsys.readouterr().out, files


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_twice_alike(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    text, files = _run(script, capsys)
    assert text
    assert _run(script, capsys) == (text, files)
