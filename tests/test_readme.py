"""The README's examples run as written and print what it shows."""
import re
import shlex
from pathlib import Path

from remodyc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def quick_tour_session() -> str:
    """The fenced block of the README's Quick tour that starts with ``$ remodyc``."""
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    (session,) = [b for b in re.findall(r"```\n(.*?)```", tour, re.S) if b.startswith("$ ")]
    return session


def test_quick_tour_session(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    session = quick_tour_session().replace("/tmp/age_demo", str(tmp_path / "age_demo"))
    printed = []
    for command in session.split("\n\n"):
        line, _, expected = command.partition("\n")
        argv = shlex.split(line.removeprefix("$ "))
        assert argv[0] == "remodyc"
        assert main(argv[1:]) == 0
        printed.append(f"{line}\n{capsys.readouterr().out}")
    assert "\n".join(printed) == session
