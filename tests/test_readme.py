"""README examples run as written: the python block, and every `braidops`
line of the Command line block through the CLI's main."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from braidops.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language, after=""):
    """The first fenced block in language that follows the heading after."""
    start = README.index(after) if after else 0
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


COMMANDS = [line for line in _block("sh", "## Command line").splitlines()
            if line.startswith("braidops ")]


def test_python_example_runs():
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_command_line_block_is_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_runs(line):
    # Exit 1 is a verification failure, which an example may show: the
    # commute example of the Demazure family with itself fails by design.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert code in (0, 1)
    assert out.getvalue()
    assert "Traceback" not in err.getvalue()
