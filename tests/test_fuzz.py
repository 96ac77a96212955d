"""Property tests of the parsers and the CLI inputs.

The text format and the CLI's word, message and error-weight options take
arbitrary strings.  Whatever they are given, the library either accepts
the input or rejects it with ValueError, and the CLI exits 0, 1 or 3
without a traceback.  Runs are derandomized, so every run draws the same
examples.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitian_mds import code as cc
from hermitian_mds.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

VALID_TEXTS = [cc.to_text(cc.reference_instance())] + [
    cc.to_text(cc.construct_code(q)) for q in (3, 4)]

# small integers hit the canonical ranges of these fields and their edges
value_lists = st.lists(st.integers(-3, 80), min_size=1, max_size=8).map(
    lambda vs: ",".join(map(str, vs)))


@st.composite
def edited_files(draw):
    """A valid instance file with its lines shuffled, dropped or duplicated,
    one entry of a line changed, or a line given another value."""
    lines = draw(st.permutations(draw(st.sampled_from(VALID_TEXTS)).splitlines()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition("=")[0]
        edit = draw(st.sampled_from(["entry", "value", "text", "drop", "duplicate"]))
        if edit == "entry":
            entries = lines[i].partition("=")[2].split(",")
            entries[draw(st.integers(0, len(entries) - 1))] = str(draw(st.integers(-3, 80)))
            lines[i] = key + "=" + ",".join(entries)
        elif edit == "value":
            lines[i] = key + "=" + draw(value_lists)
        elif edit == "text":
            lines[i] = draw(st.text(max_size=20))
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def parses_or_rejects(text):
    try:
        spec = cc.from_text(text)
    except ValueError:
        return
    assert cc.from_text(cc.to_text(spec)) == spec


@FUZZ
@given(st.text())
def test_from_text_arbitrary_text(text):
    parses_or_rejects(text)
    parses_or_rejects(cc.FORMAT_HEADER + "\n" + text)


@FUZZ
@given(edited_files())
def test_from_text_edited_files(text):
    parses_or_rejects(text)


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 3)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def ref_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "q5.code"
    path.write_text(VALID_TEXTS[0], encoding="utf-8")
    return str(path)


# arbitrary text, or comma-separated integers near the valid range
cli_values = st.one_of(st.text(max_size=30), value_lists)


@settings(FUZZ, max_examples=150)
@given(word=cli_values)
def test_cli_decode_word(ref_file, word):
    run_cli(["decode", "--code", ref_file, "--word=" + word])


@settings(FUZZ, max_examples=150)
@given(message=cli_values)
def test_cli_encode_message(ref_file, message):
    run_cli(["encode", "--code", ref_file, "--message=" + message])


@settings(FUZZ, max_examples=150)
@given(errors=st.one_of(st.text(max_size=10), st.integers(-3, 9).map(str)))
def test_cli_simulate_errors(ref_file, errors):
    run_cli(["simulate", "--code", ref_file, "--errors=" + errors, "--trials", "3"])
