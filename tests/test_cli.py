"""The command line: exit codes, run directories, replay output."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from remodyc import interp
from remodyc.cli import main

MODEL = """\
Patch with
    grass [kg] = 2 [kg].

Egg is Grasshopper with
    age [day] = 0 [day].

to age is
    my delta age' = delta time.

to expire is
    my die when my age >= 2 [day].

Egg age.
Egg expire.
"""

CONFIG = """\
delta_time = 1 day
steps = 3
seed = 1
world_width = 2 km
world_height = 1 km
patch_size = 1 km
populate 2 Egg
"""


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "model.rmd").write_text(MODEL)
    (tmp_path / "run.cfg").write_text(CONFIG)
    return tmp_path


def invoke(*argv):
    return main([str(a) for a in argv])


class TestCheck:
    def test_clean_model(self, tree, capsys):
        assert invoke("check", tree / "model.rmd") == 0
        assert capsys.readouterr().err == ""

    def test_type_error_lists_diagnostics(self, tree, capsys):
        path = tree / "bad.rmd"
        path.write_text(MODEL.replace("= delta time", "= 1 [kg]"))
        assert invoke("check", path) == 1
        err = capsys.readouterr().err
        assert str(path) in err
        assert "error" in err
        assert "[s]" in err and "[kg]" in err

    def test_warnings_pass(self, tree, capsys):
        path = tree / "warn.rmd"
        path.write_text(
            MODEL + "\nto again is\n    my age' = 1 [day].\n"
            "to more is\n    my age' = 2 [day].\nEgg again.\nEgg more.\n"
        )
        assert invoke("check", path) == 0
        assert "warning" in capsys.readouterr().err

    def test_parse_error(self, tree, capsys):
        path = tree / "broken.rmd"
        path.write_text("Egg is\n")
        assert invoke("check", path) == 1
        assert str(path) in capsys.readouterr().err

    def test_missing_file(self, tree):
        assert invoke("check", tree / "absent.rmd") == 2

    def test_config_cross_checks(self, tree, capsys):
        bad = tree / "bad.cfg"
        bad.write_text(CONFIG + "populate 3 Wolf\n")
        assert invoke("check", tree / "model.rmd", "--config", bad) == 1
        assert "Wolf" in capsys.readouterr().err

    def test_config_syntax_error(self, tree):
        bad = tree / "bad.cfg"
        bad.write_text("delta_time = soon\n")
        assert invoke("check", tree / "model.rmd", "--config", bad) == 1


class TestRun:
    def test_file_backend_writes_run_dir(self, tree, capsys):
        out = tree / "run1"
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["animats.csv", "frames.csv", "meta.txt", "model.rmd", "rng.csv"]
        assert (out / "model.rmd").read_text() == MODEL
        meta = dict(
            line.partition("=")[::2] for line in (out / "meta.txt").read_text().splitlines()
        )
        assert meta["version"] == "1"
        assert meta["seed"] == "1"
        assert meta["delta_time"] == "86400"
        assert meta["steps"] == "3"
        assert meta["patches_x"] == "2"
        assert meta["patches_y"] == "1"
        assert "splitmix64" in meta["rng"]
        summary = capsys.readouterr().out.splitlines()
        assert summary[0] == "tick,stage,count"
        assert summary[1:] == ["1,Egg,2", "2,Egg,2", "3,Egg,2", "4,Egg,0"]

    def test_runs_are_reproducible(self, tree, capsys):
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", tree / "a") == 0
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", tree / "b") == 0
        for name in ("frames.csv", "animats.csv", "rng.csv"):
            assert (tree / "a" / name).read_bytes() == (tree / "b" / name).read_bytes()

    def test_memory_backend_skips_disk(self, tree, capsys):
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--backend", "memory") == 0
        assert capsys.readouterr().out.startswith("tick,stage,count")
        assert not (tree / "run1").exists()

    def test_out_required_for_file_backend(self, tree):
        assert invoke("run", tree / "model.rmd", tree / "run.cfg") == 2

    def test_refuses_nonempty_run_dir(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 2

    def test_type_errors_block_run(self, tree):
        bad = tree / "bad.rmd"
        bad.write_text(MODEL.replace("= delta time", "= 1 [kg]"))
        assert invoke("run", bad, tree / "run.cfg", "--out", tree / "r") == 1

    def test_abort_keeps_frames_and_notes_meta(self, tree, capsys):
        bad = tree / "abort.rmd"
        bad.write_text(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my age' = (1 [day] * 1 [day]) / my age.\n"
            "Egg f.\n"
        )
        out = tree / "aborted"
        assert invoke("run", bad, tree / "run.cfg", "--out", out) == 3
        assert "division by zero" in capsys.readouterr().err
        frames = (out / "frames.csv").read_text().splitlines()
        assert frames[0] == "tick,address,value"
        assert all(line.startswith("1,") for line in frames[1:])
        assert len(frames) > 1
        meta = (out / "meta.txt").read_text()
        assert "abort=division by zero" in meta
        assert "tick 2" in meta


    def test_loglogistic_overflow_aborts_keeping_frames(self, tree, capsys):
        bad = tree / "overflow.rmd"
        bad.write_text(
            "Egg is G with\n    w [].\n"
            "to f is\n    my w' = loglogistic(1, 0.001).\n"
            "Egg f.\n"
        )
        out = tree / "aborted"
        assert invoke("run", bad, tree / "run.cfg", "--out", out) == 3
        assert "loglogistic draw overflows" in capsys.readouterr().err
        assert (out / "rng.csv").read_text().count("\n") > 1
        assert "abort=loglogistic draw overflows" in (out / "meta.txt").read_text()


    def test_animat_ceiling_aborts_keeping_frames(self, tree, capsys, monkeypatch):
        monkeypatch.setattr(interp, "MAX_ANIMATS", 7)
        litter = tree / "litter.rmd"
        litter.write_text(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my spawn Egg' = 2.\n"
            "Egg f.\n"
        )
        out = tree / "aborted"
        assert invoke("run", litter, tree / "run.cfg", "--out", out) == 3
        err = capsys.readouterr().err
        assert "over the ceiling of 7 (tick 3, Egg, line 4)" in err
        assert len((out / "rng.csv").read_text().splitlines()) == 3
        assert "abort=spawn of 2" in (out / "meta.txt").read_text()


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "remodyc", "check", str(root / "models" / "eggs.rmd")],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


class TestReplay:
    @pytest.fixture
    def run_dir(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        return out

    def test_prints_attributes_in_declared_units(self, run_dir, capsys):
        assert invoke("replay", run_dir, 1) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "address,stage,attribute,value"
        assert lines[1] == "1,Patch,grass,2 kg"
        assert lines[2] == "2,Patch,grass,2 kg"
        assert lines[3].startswith("3,Egg,x,") and lines[3].endswith(" m")
        assert lines[5] == "5,Egg,age,0 day"
        assert lines[8] == "8,Egg,age,0 day"

    def test_later_tick_shows_updates(self, run_dir, capsys):
        assert invoke("replay", run_dir, 3) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "5,Egg,age,2 day" in lines

    def test_tick_out_of_range(self, run_dir, capsys):
        assert invoke("replay", run_dir, 9) == 1

    def test_version_gate(self, run_dir, capsys):
        meta = run_dir / "meta.txt"
        meta.write_text(meta.read_text().replace("version=1", "version=99"))
        assert invoke("replay", run_dir, 1) == 1
        assert "version" in capsys.readouterr().err

    def test_rejects_non_run_dir(self, tree):
        assert invoke("replay", tree, 1) == 2


class TestChart:
    def test_counts_include_zero_ticks(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        assert invoke("chart", out, "Egg") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["tick,count", "1,2", "2,2", "3,2", "4,0"]

    def test_torn_tail_is_left_out_and_left_alone(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        invoke("replay", out, 4)
        capsys.readouterr()
        # Tick 5 rows without their rng.csv row, then a torn line.
        with open(out / "frames.csv", "a") as handle:
            handle.write("5,1,2\n5,2,2\n5,99,")
        with open(out / "animats.csv", "a") as handle:
            handle.write("5,1,Patch,1\n5,2,Patch,2\n5,9,Egg,3\n5,12,E")
        trace = {name: (out / name).read_bytes() for name in ("frames.csv", "animats.csv")}
        assert invoke("chart", out, "Egg") == 0
        assert capsys.readouterr().out.splitlines() == [
            "tick,count", "1,2", "2,2", "3,2", "4,0"
        ]
        assert invoke("replay", out, 4) == 0
        assert capsys.readouterr().out.splitlines() == [
            "address,stage,attribute,value", "1,Patch,grass,2 kg", "2,Patch,grass,2 kg"
        ]
        assert invoke("replay", out, 5) == 1
        assert "no frame 5 (have 4)" in capsys.readouterr().err
        assert trace == {name: (out / name).read_bytes() for name in trace}

    def test_unknown_stage(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        assert invoke("chart", out, "Wolf") == 1
        assert invoke("chart", out, "Patch") == 1


class TestFmt:
    def test_rewrites_canonically(self, tree):
        messy = tree / "messy.rmd"
        messy.write_text(
            "# layout comment\nEgg is Grasshopper with\n      age   [day].\n"
            "to age is\n    my delta age'=delta time.\nEgg   age.\n"
        )
        assert invoke("fmt", messy) == 0
        text = messy.read_text()
        assert "#" not in text
        assert "my delta age' = delta time." in text
        before = text
        assert invoke("fmt", messy) == 0
        assert messy.read_text() == before

    def test_unparseable_left_untouched(self, tree, capsys):
        broken = tree / "broken.rmd"
        original = "Egg is\n"
        broken.write_text(original)
        assert invoke("fmt", broken) == 1
        assert broken.read_text() == original
