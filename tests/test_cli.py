"""The command line: exit codes, run directories, replay output."""
import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from remodyc import cli, interp
from remodyc.cli import main
from remodyc.memory import FileBackend

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

    def test_meta_holds_every_populate_line_in_order(self, tree, capsys):
        cfg = tree / "two.cfg"
        cfg.write_text(CONFIG + "populate 1 Egg\n")
        assert invoke("run", tree / "model.rmd", cfg, "--out", tree / "run2") == 0
        lines = (tree / "run2" / "meta.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("populate")] == [
            "populate=2 Egg",
            "populate=1 Egg",
        ]

    def test_runs_are_reproducible(self, tree, capsys):
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", tree / "a") == 0
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", tree / "b") == 0
        for name in ("frames.csv", "animats.csv", "rng.csv"):
            assert (tree / "a" / name).read_bytes() == (tree / "b" / name).read_bytes()

    def test_memory_backend_skips_disk(self, tree, capsys):
        assert invoke("run", tree / "model.rmd", tree / "run.cfg") == 0
        assert capsys.readouterr().out.startswith("tick,stage,count")
        assert not (tree / "run1").exists()

    @pytest.mark.parametrize(
        "setting, line",
        [
            ("world_width = inf km", 4),
            ("world_width = nan km", 4),
            ("delta_time = nan day", 1),
            ("delta_time = 1e308 day", 1),
        ],
    )
    def test_non_finite_quantity_exits_1(self, tree, capsys, setting, line):
        key = setting.split()[0]
        lines = [setting if text.startswith(key) else text for text in CONFIG.splitlines()]
        bad = tree / "bad.cfg"
        bad.write_text("\n".join(lines) + "\n")
        out = tree / "run1"
        assert invoke("run", tree / "model.rmd", bad, "--out", out) == 1
        value = setting.partition("= ")[2]
        assert capsys.readouterr().err == (
            f"{bad}: line {line}: {value!r} is not a finite quantity\n"
        )
        assert not out.exists()

    def test_without_out_nothing_is_written_and_backend_is_no_option(self, tree, capsys):
        before = sorted(tree.iterdir())
        assert invoke("run", tree / "model.rmd", tree / "run.cfg") == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,Egg,2", "2,Egg,2", "3,Egg,2", "4,Egg,0"]
        assert sorted(tree.iterdir()) == before
        with pytest.raises(SystemExit) as exited:
            invoke("run", tree / "model.rmd", tree / "run.cfg", "--backend", "memory")
        assert exited.value.code == 2

    def test_refuses_nonempty_run_dir(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 2

    def test_out_below_a_regular_file_exits_2(self, tree, capsys):
        out = tree / "run.cfg" / "sub"
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 2
        assert capsys.readouterr().err == f"cannot prepare {out}: Not a directory\n"

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
        assert meta.splitlines()[-1] == "abort_at=tick=2 stage=Egg index=1 base=1 attribute=age"


    def test_census_streams_the_ticks_an_abort_keeps(self, tree, capsys):
        bad = tree / "late.rmd"
        bad.write_text(
            "Egg is G with\n    age [day] = 0 [day]\n    w [].\n"
            "to age is\n    my delta age' = delta time.\n"
            "to f is\n    my w' = 1 [day] / (my age - 3 [day]).\n"
            "Egg age.\nEgg f.\n"
        )
        config = tree / "long.cfg"
        config.write_text(CONFIG.replace("steps = 3", "steps = 6"))
        out = tree / "aborted"
        assert invoke("run", bad, config, "--out", out) == 3
        captured = capsys.readouterr()
        assert "division by zero (tick 5, Egg, line 7)" in captured.err
        assert captured.out.splitlines() == [
            "tick,stage,count", "1,Egg,2", "2,Egg,2", "3,Egg,2", "4,Egg,2",
        ]
        assert (out / "rng.csv").read_text().splitlines()[-1].startswith("4,")

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
        meta = (out / "meta.txt").read_text()
        assert "abort=spawn of 2" in meta
        assert meta.splitlines()[-1] == "abort_at=tick=3 stage=Egg index=1 base=1"

    def test_patch_grid_over_the_ceiling_exits_1(self, tree, capsys):
        tiny = tree / "tiny.cfg"
        tiny.write_text(CONFIG.replace("patch_size = 1 km", "patch_size = 1e-300 km"))
        assert invoke("check", tree / "model.rmd", "--config", tiny) == 1
        assert "patches, over the ceiling of 1000000 animats" in capsys.readouterr().err
        out = tree / "run1"
        assert invoke("run", tree / "model.rmd", tiny, "--out", out) == 1
        assert "patches, over the ceiling of 1000000 animats" in capsys.readouterr().err
        assert not out.exists()
        # Without a Patch the grid is never built, and the model runs.
        plain = tree / "plain.rmd"
        plain.write_text(MODEL.split("\n\n", 1)[1])
        assert invoke("run", plain, tiny, "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "4,Egg,0"

    def test_populations_over_the_ceiling_exit_1(self, tree, capsys):
        crowded = tree / "crowded.cfg"
        crowded.write_text(CONFIG.replace("populate 2 Egg", "populate 1000001 Egg"))
        message = "setup needs 1000003 animats, over the ceiling of 1000000"
        assert invoke("check", tree / "model.rmd", "--config", crowded) == 1
        assert message in capsys.readouterr().err
        out = tree / "run1"
        assert invoke("run", tree / "model.rmd", crowded, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


# A Patch model whose Egg moves far past an edge, then reads the patch under
# it and adds to that patch's grass: a 10 x 10 grid of 1 mm patches.
FAR = """\
Patch with
    grass [kg] = 0 [kg].

Egg is Grasshopper with
    seen [kg]
    h [rad].

to stray is
    my x' = {x} [m]
    {read}
    here's delta grass' = 1 [kg].

Egg stray.
"""

FAR_CONFIG = """\
delta_time = 1 day
steps = 4
seed = 1
world_width = 10 mm
world_height = 10 mm
patch_size = 1 mm
populate 1 Egg
"""


@pytest.mark.parametrize(
    "x, read, column",
    [("1e308", "my seen' = here's grass", 9), ("-1e308", "my h' = direction neighbor's grass", 0)],
    ids=["here-past-right-edge", "direction-past-left-edge"],
)
def test_position_past_an_edge_is_on_the_edge_cell(tree, capsys, x, read, column):
    model, config, out = tree / "far.rmd", tree / "far.cfg", tree / "far"
    model.write_text(FAR.format(x=x, read=read))
    config.write_text(FAR_CONFIG)
    assert invoke("check", model, "--config", config) == 0
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "remodyc", "run", str(model), str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert invoke("replay", out, 5) == 0
    grass = [
        float(line.split(",")[3].split()[0])
        for line in capsys.readouterr().out.splitlines()
        if ",Patch,grass," in line
    ]
    # Tick 1 adds at the drawn position; ticks 2-4 add on the edge cell.
    assert sum(grass) == 4
    assert sum(grass[column::10]) >= 3


def test_census_reader_gone_lets_the_run_finish(tmp_path):
    """Closing the census pipe after two lines stops the census, not the
    run: exit 0, nothing on stderr, every frame committed."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "eggs"
    argv = ["run", str(root / "models" / "eggs.rmd"), str(root / "models" / "eggs.cfg"), "--out", str(out)]
    with subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "remodyc", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert [child.stdout.readline() for _ in range(2)] == [b"tick,stage,count\n", b"1,Egg,20\n"]
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
    assert (child.returncode, stderr) == (0, b"")
    assert FileBackend(out).frame_count() == 201
    assert "abort=" not in (out / "meta.txt").read_text()


@pytest.mark.parametrize("stdout, message", [
    ("> /dev/full", b"cannot write the census to stdout: No space left on device\n"),
    (">&-", b"stdout is closed\n"),
], ids=["full", "closed"])
def test_census_stdout_failure_lets_the_run_finish_with_exit_2(tmp_path, stdout, message):
    """A stdout that refuses the census, or that is closed from the start,
    stops the census, not the run: every frame committed, no ``abort=``,
    and exit 2 with one stderr line naming the error."""
    if "/dev/full" in stdout and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "eggs"
    argv = ["run", str(root / "models" / "eggs.rmd"), str(root / "models" / "eggs.cfg"), "--out", str(out)]
    done = subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {stdout}', sys.executable, "-X", "dev", "-W", "error",
         "-m", "remodyc", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stderr=subprocess.PIPE,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, message)
    assert FileBackend(out).frame_count() == 201
    assert "abort=" not in (out / "meta.txt").read_text()


def test_a_run_without_out_keeps_no_frame(tmp_path):
    """Without ``--out`` no frame is kept: a 16-step run of 20,000 animats
    peaks within a few MB of a 2-step one, where one frame takes ~3.5 MB."""
    root = Path(__file__).resolve().parent.parent
    code = ("import resource, sys\nfrom remodyc import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
    peaks = []
    for steps in (2, 16):
        config = tmp_path / f"{steps}.cfg"
        config.write_text(f"delta_time = 1 day\nsteps = {steps}\nseed = 1\npopulate 20000 Adult\n")
        done = subprocess.run(
            [sys.executable, "-c", code, "run", str(root / "models" / "age.rmd"), str(config)],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        peaks.append(int(done.stderr))
    assert peaks[1] - peaks[0] < 4096, peaks  # ru_maxrss is in KiB on Linux


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

    def test_value_past_the_declared_unit_prints_in_si(self, tree, capsys):
        """1e308 m is finite, but inf in [mm]; 5e-324 m is not 0, but 0 in
        [km]: each prints as stored, in [m].  A stored 0 prints in the
        declared unit."""
        for unit, stored, printed in [("mm", "1e308", "1e+308 m"), ("km", "5e-324", "5e-324 m")]:
            (tree / f"{unit}.rmd").write_text(
                f"Egg is G with\n    len [{unit}].\n\n"
                f"to grow is\n    my len' = {stored} [m].\n\nEgg grow.\n"
            )
            out = tree / unit
            assert invoke("run", tree / f"{unit}.rmd", tree / "run.cfg", "--out", out) == 0
            capsys.readouterr()
            assert invoke("replay", out, 1) == 0
            assert capsys.readouterr().out.splitlines()[3::3] == [
                f"3,Egg,len,0 {unit}", f"6,Egg,len,0 {unit}"
            ]
            assert invoke("replay", out, 2) == 0
            assert capsys.readouterr().out.splitlines()[3::3] == [
                f"3,Egg,len,{printed}", f"6,Egg,len,{printed}"
            ]

    def test_tick_out_of_range(self, run_dir, capsys):
        assert invoke("replay", run_dir, 9) == 1

    def test_version_gate(self, run_dir, capsys):
        meta = run_dir / "meta.txt"
        meta.write_text(meta.read_text().replace("version=1", "version=99"))
        assert invoke("replay", run_dir, 1) == 1
        assert "version" in capsys.readouterr().err

    def test_rejects_non_run_dir(self, tree):
        assert invoke("replay", tree, 1) == 2

    @pytest.mark.parametrize("name, row, replacement, message", [
        ("frames.csv", "3,3,", "", "tick 3: no value at address 3"),
        ("animats.csv", "3,3,Egg,", "3,3,Larva,1\n", "tick 3: unknown stage 'Larva' at address 3"),
    ], ids=["missing address", "unknown stage"])
    def test_frame_the_model_does_not_fit_prints_nothing(
            self, run_dir, capsys, name, row, replacement, message):
        """A frame is checked against ``model.rmd`` before its first row is
        printed; one that does not fit exits 1 with one line naming it."""
        path = run_dir / name
        lines = path.read_text().splitlines(keepends=True)
        assert sum(line.startswith(row) for line in lines) == 1
        path.write_text("".join(replacement if line.startswith(row) else line for line in lines))
        assert invoke("replay", run_dir, 3) == 1
        assert capsys.readouterr() == ("", message + "\n")


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


@pytest.mark.parametrize("state", ["finished", "torn rng.csv header", "set-up aborted"])
def test_replay_and_chart_write_nothing(tree, capsys, monkeypatch, state):
    """Each only reads, whatever the run directory holds; a directory with
    no committed frame has no frame 1 and charts no tick."""
    out = tree / "run1"
    if state == "set-up aborted":  # before any trace file is written
        TestRunFailures.fail_at_tick(monkeypatch, 1, MemoryError())
    invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
    monkeypatch.undo()
    if state == "torn rng.csv header":
        (out / "rng.csv").write_bytes(b"tick,st")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    replayed, charted = invoke("replay", out, 1), invoke("chart", out, "Egg")
    captured = capsys.readouterr()
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    if state == "finished":
        assert (replayed, charted) == (0, 0)
        assert captured.out.splitlines()[-5:] == ["tick,count", "1,2", "2,2", "3,2", "4,0"]
    else:
        assert (replayed, charted) == (1, 0)
        assert captured.err == "no frame 1 (have 0)\n"
        assert captured.out == "tick,count\n"
    if state == "set-up aborted":
        assert sorted(before) == ["meta.txt", "model.rmd"]


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


MODELS = Path(__file__).resolve().parent.parent / "models"


class TestRunFailures:
    """A failure outside the model's own evaluation (a write the operating
    system refuses, or memory running out) ends a run the way an abort
    does: exit 3, the committed frames kept, ``abort=`` and ``abort_at=``
    in meta.txt, and one line on stderr."""

    @staticmethod
    def fail_at_tick(monkeypatch, tick, error):
        """Make the append of ``tick`` raise ``error``."""
        append = FileBackend.append_frame

        def failing(backend, frame):
            if backend.frame_count() + 1 == tick:
                raise error
            append(backend, frame)

        monkeypatch.setattr(FileBackend, "append_frame", failing)

    def test_disk_full_mid_run_exits_3_keeping_frames(self, tmp_path, capsys, monkeypatch):
        self.fail_at_tick(monkeypatch, 3, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        out = tmp_path / "full"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 3
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"aborted: {os.strerror(errno.ENOSPC)} (tick 3)"]
        assert captured.out.splitlines() == ["tick,stage,count", "1,Adult,1", "2,Adult,1"]
        assert FileBackend(out).frame_count() == 2
        assert FileBackend(out).load_frame(2).values[3] == 86400.0
        meta = (out / "meta.txt").read_text().splitlines()
        assert meta[-2:] == [f"abort={os.strerror(errno.ENOSPC)} (tick 3)", "abort_at=tick=3"]

    def test_memory_running_out_in_set_up_exits_3(self, tmp_path, capsys, monkeypatch):
        self.fail_at_tick(monkeypatch, 1, MemoryError())
        out = tmp_path / "oom"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 3
        monkeypatch.undo()
        assert capsys.readouterr().err.splitlines() == ["aborted: out of memory (tick 1)"]
        assert FileBackend(out).frame_count() == 0
        assert (out / "meta.txt").read_text().splitlines()[-1] == "abort_at=tick=1"

    def test_unwritable_meta_still_exits_3(self, tmp_path, capsys, monkeypatch):
        self.fail_at_tick(monkeypatch, 2, OSError(errno.EIO, os.strerror(errno.EIO)))

        def no_meta(path, *args, **kwargs):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS))

        monkeypatch.setattr(cli, "open", no_meta, raising=False)
        out = tmp_path / "ro"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 3
        monkeypatch.undo()
        assert capsys.readouterr().err.splitlines() == [f"aborted: {os.strerror(errno.EIO)} (tick 2)"]
        assert "abort=" not in (out / "meta.txt").read_text()
        assert FileBackend(out).frame_count() == 1

    def test_replay_and_chart_refuse_a_damaged_trace_file(self, tree, capsys):
        out = tree / "run"
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 0
        (out / "animats.csv").write_text((out / "animats.csv").read_text()[1:])
        capsys.readouterr()
        assert invoke("replay", out, 1) == 1
        assert invoke("chart", out, "Egg") == 1
        assert capsys.readouterr().err.count("does not start with 'tick,base_address") == 2
