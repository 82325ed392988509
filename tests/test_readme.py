"""Every fenced `puosc ...` command in README.md runs as printed.

A command is expected to exit 0 unless a comment line right above it says
"exits N".  Backslash continuations are joined before the command is split.
"""
import os
import re
import shlex

import pytest

from conftest import PKG_ROOT, run_cli


def readme_commands():
    with open(os.path.join(PKG_ROOT, "README.md")) as handle:
        text = handle.read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        comments = []
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif line.startswith("puosc "):
                stated = re.search(r"exits (\d+)", " ".join(comments))
                commands.append((" ".join(line.split()), int(stated.group(1)) if stated else 0))
                comments = []
            else:
                comments = []
    return commands


COMMANDS = readme_commands()


def test_readme_has_commands():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("command, code", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_runs_as_printed(command, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = run_cli(*shlex.split(command)[1:])
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
