"""The package's public surface: what `qss.__all__` promises resolves, and
the README's Python examples run and print what they say."""

import contextlib
import io
import pathlib
import re

import qss

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_once():
    assert len(qss.__all__) == len(set(qss.__all__))
    missing = [name for name in qss.__all__ if not hasattr(qss, name)]
    assert missing == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the two values the quick start prints in its comments
    assert lines[:2] == ["0.853553390593273", "0.85400390625"]
    # the routing example's check_routing(...).ok
    assert lines[-1] == "True"
