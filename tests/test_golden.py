"""The golden output manifest: every recorded command line and demo still
prints its recorded output (see golden.py for the comparison rules)."""

import pytest

from golden import (
    ENTRIES,
    NUMPY,
    PYTHON,
    demo_paths,
    load_manifest,
    recorded,
    run_demo,
    run_entry,
    same_parsed,
    write_inputs,
)

MANIFEST = load_manifest()
SAME_NUMPY = MANIFEST["numpy"] == NUMPY
SAME_PYTHON = MANIFEST["python"] == PYTHON


def assert_recorded(expected, actual):
    if SAME_NUMPY:
        assert actual == expected
    else:
        assert same_parsed(expected, actual), actual


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


def test_manifest_lists_every_entry_and_demo():
    assert {name: entry["argv"] for name, entry in MANIFEST["entries"].items()} == ENTRIES
    assert MANIFEST["demos"] == [path.name for path in demo_paths()]


@pytest.mark.parametrize("name", MANIFEST["entries"])
def test_command_line_output_is_recorded(name, inputs):
    entry = MANIFEST["entries"][name]
    result = run_entry(entry["argv"], inputs)
    assert result["exit"] == entry["exit"]
    if name.startswith("usage-") and not SAME_PYTHON:
        return
    for stream in ("stdout", "stderr", "out"):
        assert_recorded(recorded(name, stream), result[stream])


@pytest.mark.parametrize("path", demo_paths(), ids=lambda path: path.stem)
def test_demo_output_is_recorded(path):
    assert_recorded(recorded(f"demo-{path.stem}", "stdout"), run_demo(path))


def test_parsed_comparison_keeps_integers_and_text_exact():
    text = '{"counts": {"000": 1017}, "p0": 0.85400390625}\nfitted p = 0.009375\n'
    assert same_parsed(text, text.replace("0.85400390625", "0.8540039062500004"))
    assert not same_parsed(text, text.replace("0.85400390625", "0.85400390626"))
    assert not same_parsed(text, text.replace("1017", "1018"))
    assert not same_parsed(text, text.replace("000", "001"))
    assert not same_parsed(text, text.replace("fitted", "fitten"))
    assert not same_parsed(text, text + "\n")
