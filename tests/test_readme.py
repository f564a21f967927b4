"""The README's examples print what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from braidkit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# the subcommands whose README comment is their exact output; the comments
# on the others name fields or are absent
SHOWN = {"nf", "rigid", "uss-minimal", "orbit", "root"}


def _block(heading, lang):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples_print_their_comments(capsys):
    seen = set()
    for line in _block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv and argv[0] in SHOWN:
            assert main(argv) == 0, line
            assert capsys.readouterr().out.strip() == comment.strip(), line
            seen.add(argv[0])
    assert seen == SHOWN


def test_library_example_prints_its_comment():
    code = _block("Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    comments = [line.partition("#")[2].strip()
                for line in code.splitlines() if "print(" in line]
    assert out.getvalue().splitlines() == comments
