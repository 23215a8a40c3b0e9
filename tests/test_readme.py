"""The README's examples run as written and print what it shows."""
import re
import shlex
import shutil
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


def library_block() -> str:
    """The Python block of the README's Library use section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_use_block(tmp_path, monkeypatch):
    """Run from a directory that holds ``models/``, the block recomputes
    tick 51 equal to the stored one: values, animats and RNG state."""
    shutil.copytree(ROOT / "models", tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(library_block(), namespace)
    recomputed = namespace["prefix"].load_frame(51)
    recorded = namespace["backend"].load_frame(51)
    assert namespace["prefix"].frame_count() == 51
    assert recomputed.values == recorded.values
    assert recomputed.animats == recorded.animats
    assert recomputed.rng_state == recorded.rng_state
