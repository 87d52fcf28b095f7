"""README drift check: the library tour runs, and every ``cdcmip`` command line parses."""

import re
import shlex
from pathlib import Path

from cdcmip.cli import make_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def test_readme_python_block_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert "End" in capsys.readouterr().out


def test_readme_command_lines_parse():
    parser = make_parser()
    lines = [
        line.split("#")[0]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("cdcmip ")
    ]
    assert len(lines) >= 8
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
