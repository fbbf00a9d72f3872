"""The command line's exit contract, checked by property over argument
lists and documents: every run exits 0, 1 or 2 and never with a
traceback, and once the arguments parse, ``--json`` prints exactly one
JSON object on stdout."""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from snckit.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def _slots(node):
    """(container, key) of every value inside a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _slots(child)


# small integers, so a mutated document stays cheap to run, and one
# huge one, which every bound must reject or handle by its bit length
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10 ** 30)
    | st.text("AOBs12 ", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "on", "order", "generators", "2"]), inner,
                      max_size=2),
    max_leaves=5)


@st.composite
def _documents(draw) -> str:
    """A golden document as it is, with up to two values replaced or
    deleted, or cut short."""
    text = GOLDEN.joinpath(draw(st.sampled_from(
        ["rulings.json", "fermat5.json", "swap.json", "coned.json"]))).read_text()
    if draw(st.integers(0, 9)) == 0:
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        if draw(st.booleans()):
            node[key] = draw(_JUNK)
        elif isinstance(node, dict):
            del node[key]
        else:
            node.pop(key)
    return json.dumps(doc)


# each option with values that parse and values that do not
_VALUES = {
    "--ell": ["2", "3", "5", "4", "x"], "--f": ["1", "2", "3", "0"],
    "--sweep": ["1", "2", "4", "0"], "--degree": ["0", "1", "2", "9", "-1"],
    "--coeff": ["z", "z/6", "z/1", "z/0", "q"], "--n": ["2", "3", "5", "1"],
    "--count": ["0", "2"], "--max-vertices": ["1", "6", "9999999"], "--seed": ["7"],
    "--apex0": ["A1", "O"], "--apex1": ["O", "inf"], "--cover": [],
}
_COMMAND_OPTIONS = {
    "validate": [], "dual-complex": [], "homology": ["--degree", "--coeff"],
    "suspend": ["--apex0", "--apex1"], "extend": ["--f"], "norm": ["--f", "--degree", "--coeff"],
    "theta": ["--ell"], "alpha": ["--ell"], "kernel": ["--ell", "--f", "--sweep"],
    "example": ["--n", "--cover"], "oracle-check": ["--count", "--seed", "--max-vertices"],
    "no-such-command": [],
}
_REQUIRED = {"extend": "--f", "norm": "--f", "theta": "--ell", "alpha": "--ell",
             "kernel": "--ell"}


@st.composite
def _argvs(draw, path: str) -> list[str]:
    """A command, its document (or a missing path, or a directory), its
    required option most of the time, up to three more options, each
    its own or any command's, and ``--json`` half of the time."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = [command]
    if command == "example":
        argv.append(draw(st.sampled_from(["rulings", "fermat", "cubic"])))
    elif command != "oracle-check":
        argv.append(draw(st.sampled_from([path, path, path, path + ".missing",
                                          os.path.dirname(path)])))
    options = [_REQUIRED[command]] if command in _REQUIRED and draw(st.integers(0, 9)) else []
    own = _COMMAND_OPTIONS[command] or sorted(_VALUES)
    options += draw(st.lists(st.sampled_from(own) | st.sampled_from(sorted(_VALUES)),
                             max_size=3))
    for option in options:
        argv += [option, *([draw(st.sampled_from(_VALUES[option]))] if _VALUES[option] else [])]
    return argv + (["--json"] if draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def contract_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("contract") / "doc.json")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_exit_contract_holds_for_any_argv_and_document(contract_path, data):
    """Whatever the arguments and the document, a run exits 0, 1 or 2
    and never with a traceback; once the arguments parse, ``--json``
    prints exactly one JSON object on stdout, which for a failed run
    carries its exit status."""
    Path(contract_path).write_text(data.draw(_documents()))
    argv = data.draw(_argvs(contract_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit:
            parsed = None
    assert status in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if parsed is not None and parsed.json:
        report = json.loads(out.getvalue())
        assert isinstance(report, dict), argv
        if status:
            assert report["exit_status"] == status, argv
