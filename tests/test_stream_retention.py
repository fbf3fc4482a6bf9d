"""In-process calls of ``cli.main`` keep no reference to the streams they ran
with.

The test suite and the benchmark call ``main`` many times in one process,
each time with fresh standard streams: ``contextlib.redirect_stdout`` /
``redirect_stderr`` onto ``StringIO``s, or ``CliRunner``'s wrappers.  A
stream that outlives its call is memory that grows with every call.  Each
case below names one way the CLI writes: status lines, a report on stdout, a
failing check's exit, the search's count line with its operators on stdout or
in a file, the help of the group and of a command, and the group's help
when it is called with no arguments.
"""

import contextlib
import gc
import io
import json
import sys
import weakref

import pytest
from click.testing import CliRunner

from rotabaxter.cli import main

AFFINE = {"lie_algebra": {"basis": ["e1", "e2"], "brackets": [
    {"left": "e1", "right": "e2", "value": {"e2": "1"}}]}}
BROKEN = {"lie_algebra": {"basis": ["e1", "e2"], "brackets": [
    {"left": "e1", "right": "e2", "value": {"e1": "1"}},
    {"left": "e2", "right": "e1", "value": {"e1": "1"}}]}}

# name: (arguments with {good}, {bad} and {out} for files, exit status)
CASES = {
    "status-line": (["check-lie", "--algebra", "{good}"], 0),
    "json-report": (["--json-report", "-", "check-lie", "--algebra", "{good}"], 0),
    "fail": (["check-lie", "--algebra", "{bad}"], 1),
    "search-stdout": (["search-rbo", "--algebra", "{good}", "--grid", "0,1"], 0),
    "search-out": (["search-rbo", "--algebra", "{good}", "--grid", "0,1", "--out", "{out}"], 0),
    "help": (["--help"], 0),
    "command-help": (["check-lie", "--help"], 0),
    "no-arguments": ([], 2),
}


def arguments(tmp_path, name):
    files = {"good": tmp_path / "good.json", "bad": tmp_path / "bad.json",
             "out": tmp_path / "out.json"}
    files["good"].write_text(json.dumps(AFFINE))
    files["bad"].write_text(json.dumps(BROKEN))
    return [a.format(**{k: str(v) for k, v in files.items()}) for a in CASES[name][0]]


def exit_status(call) -> int:
    try:
        call()
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_redirected_call_frees_its_streams(tmp_path, name):
    args = arguments(tmp_path, name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = exit_status(lambda: main(args, prog_name="rotabaxter"))
    assert status == CASES[name][1]
    assert out.getvalue() or err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]


class Recording:
    """Stands in for ``main`` in ``CliRunner.invoke``: runs it and keeps a weak
    reference to each stream the call ran with."""

    def __init__(self):
        self.refs = []

    def main(self, *args, **kwargs):
        self.refs += [weakref.ref(sys.stdout), weakref.ref(sys.stderr)]
        return main.main(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_cli_runner_call_frees_its_streams(tmp_path, name):
    args, recording = arguments(tmp_path, name), Recording()
    for _ in range(3):
        res = CliRunner().invoke(recording, args, prog_name="rotabaxter")
        assert res.exit_code == CASES[name][1], res.output
    assert len(recording.refs) == 6
    gc.collect()
    assert [r() for r in recording.refs] == [None] * 6
