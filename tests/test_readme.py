"""The README's examples, run as shown.

Every ``$ python3 -m convexmod ...`` line in a ``sh`` block goes
through ``cli.main`` in-process, at a terminal width of 80 columns, in
a fresh directory; a ``$ cat FILE`` line first writes the content the
README shows for it there.  What the command prints must equal the
lines shown after it, line by line, except that a shown line ending in
``...}`` only has to start the printed one.  The ``python`` block is
executed.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from convexmod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```",
                    README.read_text(encoding="utf-8"), re.M | re.S)
PROGRAM = ["python3", "-m", "convexmod"]
ELIDED = "...}"


def _sessions(code: str) -> list[tuple[list[str], list[str]]]:
    """The ``$`` commands of a shell block, each with the lines shown
    after it."""
    sessions: list[tuple[list[str], list[str]]] = []
    for line in code.splitlines():
        if line.startswith("$ "):
            sessions.append((shlex.split(line[2:]), []))
        elif sessions:
            sessions[-1][1].append(line)
    return sessions


SHELL = [s for lang, code in BLOCKS if lang == "sh" and (s := _sessions(code))]
SHELL_IDS = [next(argv[3] for argv, _ in s if argv[:3] == PROGRAM)
             for s in SHELL]


def test_examples_are_found():
    assert SHELL_IDS and [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("sessions", SHELL, ids=SHELL_IDS)
def test_shell_example(sessions, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CONVEXMOD_SEED", raising=False)
    for argv, shown in sessions:
        if argv[0] == "cat" and len(argv) == 2:
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n",
                                            encoding="utf-8")
            continue
        assert argv[:3] == PROGRAM, f"unknown README command {argv}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv[3:])
        printed = out.getvalue().splitlines()
        expected = [line if s.endswith(ELIDED)
                    and line.startswith(s[:-len(ELIDED)]) else s
                    for s, line in zip(shown, printed)]
        assert printed == expected + shown[len(printed):]


def test_library_example():
    [code] = [code for lang, code in BLOCKS if lang == "python"]
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
