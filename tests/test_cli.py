"""The command line: exit codes, run directories, replay output."""
import errno
import functools
import gc
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from remodyc import cli, compiler, interp, memory, rng
from remodyc.cli import main
from remodyc.interp import parse_config
from remodyc.memory import FileBackend, InMemoryBackend
from remodyc.parser import format_number, parse_model
from remodyc.typecheck import check_model, errors_only

import test_abort_texts
from test_memory import NON_CANONICAL

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

    def test_out_a_regular_file_exits_2(self, tree, capsys):
        out = tree / "run.cfg"
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 2
        assert capsys.readouterr() == ("", f"cannot prepare {out}: Not a directory\n")
        assert out.read_text() == CONFIG

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
        # Under the same ceiling, a step of tick 2 aborts as recorded.
        assert invoke("verify", out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "the abort recomputed as recorded: spawn of 2 would hold 8 animats, "
            "over the ceiling of 7 (tick 3, Egg, line 4)")

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


@pytest.mark.parametrize("terms", [202, 400])
@pytest.mark.parametrize("op", ["+", "-", "*", "unary -"])
def test_a_long_chain_that_check_accepts_runs(tmp_path, capsys, op, terms):
    """A left-deep chain of ``terms`` operands nests a parenthesis per
    operation in the source an engine compiles, where Python refuses more
    than 200; ``check`` accepts the model, an engine builds, and ``run``
    commits the chain's left fold, its operations in their order."""
    size = 1.001
    if op == "unary -":
        chain, value = "- " * terms + "my size", functools.reduce(lambda x, _: -x, range(terms), size)
    else:
        chain = f" {op} ".join(["my size"] * terms)
        value = functools.reduce({"+": operator.add, "-": operator.sub, "*": operator.mul}[op], [size] * terms)
    model = f"Egg is Grasshopper with\n    size [] = {size} [].\n\nto grow is\n    my size' = {chain}.\n\nEgg grow.\n"
    config = CONFIG.replace("steps = 3", "steps = 1").replace("populate 2", "populate 1")
    (tmp_path / "chain.rmd").write_text(model)
    (tmp_path / "run.cfg").write_text(config)
    assert invoke("check", tmp_path / "chain.rmd") == 0
    interp.Engine(parse_model(model), parse_config(config), InMemoryBackend())
    assert invoke("run", tmp_path / "chain.rmd", tmp_path / "run.cfg", "--out", tmp_path / "run") == 0
    capsys.readouterr()
    assert invoke("replay", tmp_path / "run", 2) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines() if ",Egg,size," in line]
    assert row.endswith(f",Egg,size,{format_number(value)}")


def test_a_second_call_of_main_leaves_no_cyclic_garbage(capsys):
    """The command line's parser is built once per process, so a call of
    ``main`` after the first leaves nothing for the cycle collector."""
    argv = ["check", str(MODELS / "eggs.rmd")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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

    # Each fault as a row of a trace file of tick {t}, what replaces it and
    # the text naming it, on a run of ``MODEL`` with a World and one Patch:
    # the World at address 1, the Patch at 2 and Eggs at 3 and 6, each of x,
    # y and age.
    @pytest.mark.parametrize("name, row, replacement, message", [
        ("frames.csv", "{t},3,", "", "tick {t}: no value at address 3"),
        ("animats.csv", "{t},3,Egg,", "{t},3,Larva,1\n", "tick {t}: unknown stage 'Larva' at address 3"),
        ("animats.csv", "{t},1,World,", "", "tick {t}: 0 World blocks, the model has 1"),
        ("animats.csv", "{t},2,Patch,", "", "tick {t}: 0 Patch blocks, the model has 1"),
        ("animats.csv", "{t},6,Egg,", "{t},5,Egg,2\n",
         "tick {t}: the block at address 5 overlaps the one at address 3"),
        ("animats.csv", "{t},6,Egg,", "", "tick {t}: the value at address 6 is in no block"),
        ("frames.csv", "{t},5,", "{t},5,-0\n", "tick {t}: the value at address 5 is -0"),
    ], ids=["missing address", "unknown stage", "no World", "a Patch missing", "overlapping blocks",
            "a value in no block", "negative zero"])
    def test_frame_the_model_does_not_fit_prints_nothing(
            self, tree, capsys, name, row, replacement, message):
        """A frame is checked against ``model.rmd`` before its first row is
        printed; one that does not fit exits 1 with one line naming it.
        ``verify`` exits 1 with that line, for a fault in the first tick and
        in the last, and ``resume`` raises it, changing nothing."""
        model = "World with\n    warmth [] = 1 [].\n\n" + MODEL
        (tree / "world.rmd").write_text(model)
        config = CONFIG.replace("steps = 3", "steps = 2").replace("world_width = 2 km", "world_width = 1 km")
        (tree / "world.cfg").write_text(config)
        clean = tree / "clean"
        assert invoke("run", tree / "world.rmd", tree / "world.cfg", "--out", clean) == 0
        capsys.readouterr()
        for tick in (1, 3):
            out = tree / f"tick{tick}"
            shutil.copytree(clean, out)
            TestVerify.edit(out / name, row.format(t=tick), replacement.format(t=tick))
            text = message.format(t=tick)
            assert invoke("replay", out, tick) == 1
            assert capsys.readouterr() == ("", text + "\n")
            assert invoke("verify", out) == 1
            assert capsys.readouterr() == ("", text + "\n")
            engine = interp.Engine(parse_model(model), parse_config(config), FileBackend(out))
            with pytest.raises(ValueError) as refused:
                engine.resume(tick)
            assert str(refused.value) == text
            assert (engine.image.vals, engine.image.ticks, engine.rng_state) == ({}, 0, rng.seed_state(1))


# The abort entries that ``remodyc run`` runs to their abort: all but the
# three utility cycles, which ``check_model`` refuses before any frame.
RUN_ABORTS = {
    name: entry for name, entry in test_abort_texts.ABORTS.items()
    if not errors_only(check_model(parse_model(entry[0]), parse_config(test_abort_texts.CONFIG)))
}


class TestVerify:
    @pytest.fixture
    def run_dir(self, tree, capsys):
        out = tree / "run1"
        invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out)
        capsys.readouterr()
        return out

    @staticmethod
    def edit(path, row, replacement):
        lines = path.read_text().splitlines(keepends=True)
        assert sum(line.startswith(row) for line in lines) == 1
        path.write_text("".join(replacement if line.startswith(row) else line for line in lines))

    @staticmethod
    def count_refusals(monkeypatch) -> list:
        """The ticks ``frame_refusal`` is asked about from here on, in order,
        by ``interp`` and ``cli`` alike."""
        ticks, refusal = [], interp.frame_refusal
        def counting(model, config, frame, tick):
            ticks.append(tick)
            return refusal(model, config, frame, tick)
        for module in (interp, cli):
            monkeypatch.setattr(module, "frame_refusal", counting)
        return ticks

    @pytest.mark.parametrize("name, config", [
        ("age", "age"), ("eggs", "eggs"), ("memo", "memo"), ("move", "move"), ("move_delta", "move"),
    ])
    def test_every_model_recomputes_as_stored_from_one_compile(self, tmp_path, capsys, monkeypatch,
                                                               name, config):
        """One engine, compiled once, checks each stored frame once; the
        run directory is only read."""
        out = tmp_path / name
        assert invoke("run", MODELS / f"{name}.rmd", MODELS / f"{config}.cfg", "--out", out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        frames = FileBackend(out).frame_count()
        capsys.readouterr()
        compiler._code.cache_clear()
        checked = self.count_refusals(monkeypatch)
        assert invoke("verify", out) == 0
        assert capsys.readouterr() == (f"{frames - 1} ticks recomputed as stored\n", "")
        info = compiler._code.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        assert checked == list(range(1, frames + 1))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_changed_value_is_named_by_its_tick(self, run_dir, capsys):
        self.edit(run_dir / "frames.csv", "3,5,", "3,5,1\n")
        assert invoke("verify", run_dir) == 1
        assert capsys.readouterr() == ("", "tick 3 differs from a step of tick 2\n")

    def test_the_config_is_read_from_meta(self, run_dir, capsys):
        """A delta_time edited in meta.txt recomputes tick 2 otherwise; one
        that is not a number is refused on its meta.txt line, by ``verify``,
        ``replay`` and ``chart`` alike."""
        meta = run_dir / "meta.txt"
        self.edit(meta, "delta_time=", "delta_time=3600\n")
        assert invoke("verify", run_dir) == 1
        assert capsys.readouterr() == ("", "tick 2 differs from a step of tick 1\n")
        self.edit(meta, "delta_time=", "delta_time=x\n")
        for command in (("verify",), ("replay", 1), ("chart", "Egg")):
            assert invoke(command[0], run_dir, *command[1:]) == 1
            assert capsys.readouterr() == ("", f"{meta}: line 3: bad number 'x'\n")

    def test_a_recomputation_that_aborts_is_named_by_its_tick(self, run_dir, capsys):
        model = run_dir / "model.rmd"
        model.write_text(model.read_text().replace(
            "my delta age' = delta time.", "my delta age' = delta time * (my age / my age)."))
        assert invoke("verify", run_dir) == 1
        assert capsys.readouterr() == (
            "", "tick 2 is not recomputed: aborted: division by zero (tick 2, Egg, line 8)\n")

    def test_a_frame_that_does_not_load_is_refused(self, run_dir, capsys):
        self.edit(run_dir / "rng.csv", "3,", "")
        assert invoke("verify", run_dir) == 1
        assert capsys.readouterr() == ("", "frame 3 missing from rng.csv\n")

    @pytest.mark.parametrize("name", RUN_ABORTS)
    def test_a_recorded_abort_is_recomputed(self, tmp_path, capsys, monkeypatch, name):
        """A step of the last stored tick aborts as ``abort=`` and
        ``abort_at=`` say, each stored frame checked once; either edited,
        ``verify`` names it and what the step gives, and exits 1."""
        model, message, frames = RUN_ABORTS[name]
        (tmp_path / "m.rmd").write_text(model)
        (tmp_path / "run.cfg").write_text(test_abort_texts.CONFIG)
        out = tmp_path / "run"
        assert invoke("run", tmp_path / "m.rmd", tmp_path / "run.cfg", "--out", out) == 3
        capsys.readouterr()
        meta = out / "meta.txt"
        at = meta.read_text().splitlines()[-1].partition("=")[2]
        checked = self.count_refusals(monkeypatch)
        assert invoke("verify", out) == 0
        assert capsys.readouterr() == (
            f"{frames - 1} ticks recomputed as stored\nthe abort recomputed as recorded: {message}\n", "")
        assert checked == list(range(1, frames + 1))
        self.edit(meta, "abort=", "abort=nonsense\n")
        assert invoke("verify", out) == 1
        assert capsys.readouterr() == ("", f"{meta}: abort= is not what a step of tick {frames} gives: {message}\n")
        self.edit(meta, "abort=", f"abort={message}\n")
        self.edit(meta, "abort_at=", f"abort_at={at.replace(' index=', ' index=9')}\n")
        assert invoke("verify", out) == 1
        assert capsys.readouterr() == ("", f"{meta}: abort_at= is not what a step of tick {frames} gives: {at}\n")

    def test_a_recorded_abort_that_a_step_does_not_give_is_refused(self, run_dir, capsys):
        with open(run_dir / "meta.txt", "a") as handle:
            handle.write("abort=division by zero (tick 5, Egg, line 8)\n"
                         "abort_at=tick=5 stage=Egg index=1 base=1 attribute=age\n")
        assert invoke("verify", run_dir) == 1
        assert capsys.readouterr() == ("", f"{run_dir / 'meta.txt'}: a step of tick 4 does not abort\n")


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

    @pytest.mark.parametrize("row", ["3,1,Adult", "3,1,Adult,1,x", "3"])
    def test_a_row_of_the_wrong_width_is_refused(self, tmp_path, capsys, row):
        out = tmp_path / "age"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
        lines = (out / "animats.csv").read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("3,")) + 1
        (out / "animats.csv").write_text("".join(lines[:at] + [row + "\n"] + lines[at:]))
        capsys.readouterr()
        assert invoke("chart", out, "Adult") == 1
        fields = row.count(",") + 1
        assert capsys.readouterr() == ("", f"animats.csv: tick 3 has a row of {fields} fields, not 4\n")


@pytest.mark.parametrize("name, column, field, what", [
    ("animats.csv", 3, "x", "an integer"),
    ("frames.csv", 2, "abc", "a finite number"),
    ("frames.csv", 2, "1e999", "a finite number"),
    ("rng.csv", 1, "zzzzzzzzzzzzzzzz", "a state of 16 hex digits"),
])
def test_a_field_its_column_cannot_hold_is_refused(tmp_path, capsys, name, column, field, what):
    """``replay``, ``verify`` and, for ``animats.csv``, the only file it
    reads, ``chart`` exit 1 with one line naming the file, the tick and the
    field, not Python's text."""
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    lines = (out / name).read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("3,"))
    fields = lines[at][:-1].split(",")
    fields[column] = field
    lines[at] = ",".join(fields) + "\n"
    (out / name).write_text("".join(lines))
    capsys.readouterr()
    text = f"{name}: tick 3 has a field {field!r} that is not {what}\n"
    assert invoke("replay", out, 3) == 1
    assert capsys.readouterr() == ("", text)
    assert invoke("verify", out) == 1
    assert capsys.readouterr() == ("", text)
    assert invoke("chart", out, "Adult") == (1 if name == "animats.csv" else 0)
    assert capsys.readouterr().err == (text if name == "animats.csv" else "")


def test_a_last_rng_row_whose_tick_is_not_an_integer_is_refused(tmp_path, capsys):
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    rng = out / "rng.csv"
    rng.write_text(rng.read_text().replace("\n5,", "\nx,"))
    capsys.readouterr()
    for command in (("replay", out, 3), ("verify", out), ("chart", out, "Adult")):
        assert invoke(*command) == 1
        assert capsys.readouterr() == ("", "rng.csv: a row has a tick 'x' that is not an integer\n")


@pytest.mark.parametrize("tick, text", [
    ("x", "frames.csv: a row has a tick 'x' that is not an integer"),
    ("4", "frames.csv: tick 3 has a row whose tick is '4'"),
])
def test_a_middle_row_of_another_tick_is_refused(tmp_path, capsys, tick, text):
    """The middle row of tick 3's three in ``frames.csv``: ``replay 3`` and
    ``verify`` exit 1 with one line naming the file and the tick, and
    ``chart``, which reads ``animats.csv`` alone, charts the run."""
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    path = out / "frames.csv"
    path.write_text(path.read_text().replace("\n3,2,", f"\n{tick},2,"))
    capsys.readouterr()
    for command in (("replay", out, 3), ("verify", out)):
        assert invoke(*command) == 1
        assert capsys.readouterr() == ("", text + "\n")
    assert invoke("chart", out, "Adult") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, row, text", [
    ("frames.csv", "3,3,999", "frames.csv: tick 3 has two rows of address 3"),
    ("animats.csv", "3,1,Adult,1", "animats.csv: tick 3 has two rows of base 1"),
])
def test_a_second_row_of_one_address_or_base_is_refused(tmp_path, capsys, name, row, text):
    """``row`` after tick 3's last row: ``replay 3`` and ``verify`` exit 1
    with one line naming the file, the tick and the address (or base), as
    ``chart`` does for ``animats.csv``, the one file it reads; ``chart``
    charts the run otherwise."""
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    last = max(at for at, line in enumerate(lines) if line.startswith("3,"))
    assert lines[last].split(",")[1] == row.split(",")[1]
    path.write_text("".join(lines[:last + 1] + [row + "\n"] + lines[last + 1:]))
    capsys.readouterr()
    for command in (("replay", out, 3), ("verify", out)):
        assert invoke(*command) == 1
        assert capsys.readouterr() == ("", text + "\n")
    if name == "animats.csv":
        assert invoke("chart", out, "Adult") == 1
        assert capsys.readouterr() == ("", text + "\n")
    else:
        assert invoke("chart", out, "Adult") == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, row, edited, text", [
    ("frames.csv", "3,1,566.5615751722809\n3,2,745.7817572627011", "3,2,745.7817572627011\n3,1,566.5615751722809",
     "frames.csv: tick 3 has a row of address 1 after one of address 2"),
    ("rng.csv", "3,3c6ef372fe94f82b", "3,3c6ef372fe94f82b\n3,0000000000000000",
     "rng.csv: tick 3 has a second row"),
])
def test_rows_out_of_order_and_a_second_rng_row_are_refused(tmp_path, capsys, name, row, edited, text):
    """Tick 3's first two ``frames.csv`` rows swapped, or a second
    ``rng.csv`` row after its own: ``replay 3`` and ``verify`` exit 1 with
    one line naming the file and the tick, and ``chart``, which reads
    ``animats.csv`` alone, charts the run."""
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    path = out / name
    path.write_text(path.read_text().replace(f"\n{row}\n", f"\n{edited}\n"))
    capsys.readouterr()
    for command in (("replay", out, 3), ("verify", out)):
        assert invoke(*command) == 1
        assert capsys.readouterr() == ("", text + "\n")
    assert invoke("chart", out, "Adult") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, row, spelled", NON_CANONICAL)
def test_verify_refuses_a_row_not_spelled_as_written(tmp_path, capsys, name, row, spelled):
    """A row of tick 3 spelled otherwise than the writer writes it loads
    as written, so ``replay 3`` and ``chart`` read the run as before; only
    ``verify`` exits 1, naming the file and the tick."""
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    capsys.readouterr()
    assert invoke("replay", out, 3) == 0
    before = capsys.readouterr().out
    path = out / name
    text = path.read_text()
    assert f"\n{row}\n" in text
    path.write_text(text.replace(f"\n{row}\n", f"\n{spelled}\n"))
    assert invoke("replay", out, 3) == 0
    assert capsys.readouterr() == (before, "")
    assert invoke("chart", out, "Adult") == 0
    assert capsys.readouterr().err == ""
    assert invoke("verify", out) == 1
    assert capsys.readouterr() == ("", f"{name}: tick 3 is not in its canonical form\n")


@pytest.mark.parametrize("tick", [0, -5])
def test_a_last_rng_row_whose_tick_is_not_positive_is_refused(tmp_path, capsys, tick):
    out = tmp_path / "age"
    assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    rng = out / "rng.csv"
    rng.write_text(rng.read_text().replace("\n5,", f"\n{tick},"))
    capsys.readouterr()
    for command in (("replay", out, 3), ("verify", out), ("chart", out, "Adult")):
        assert invoke(*command) == 1
        assert capsys.readouterr() == ("", f"rng.csv: the last row has a tick {tick} that is not positive\n")


def test_chart_counts_what_the_census_counts(tmp_path, capsys):
    """Each stage of the eggs reference run, on each of its 201 ticks."""
    out = tmp_path / "eggs"
    assert invoke("run", MODELS / "eggs.rmd", MODELS / "eggs.cfg", "--out", out) == 0
    census = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    for stage in ("Egg", "Adult"):
        assert invoke("chart", out, stage) == 0
        charted = capsys.readouterr().out.splitlines()
        assert len(charted) == 202
        assert charted == ["tick,count"] + [f"{t},{count}" for t, kind, count in census if kind == stage]


def test_verify_and_chart_read_each_trace_file_once_forward(tmp_path, capsys, monkeypatch):
    """On the eggs reference run, ``verify`` opens each trace file once and
    searches it once, for tick 1, as ``chart`` does ``animats.csv``; each
    also opens ``rng.csv`` once to count the frames, reading it from the
    end."""
    out = tmp_path / "eggs"
    assert invoke("run", MODELS / "eggs.rmd", MODELS / "eggs.cfg", "--out", out) == 0
    opened, searched = [], []

    def counting_open(path, mode="r"):
        opened.append(Path(path).name)
        return open(path, mode)

    def counting_search(handle, tick, name):
        searched.append((name, tick))
        return first_row_at(handle, tick, name)

    first_row_at = memory._first_row_at
    monkeypatch.setattr(memory, "open", counting_open, raising=False)
    monkeypatch.setattr(memory, "_first_row_at", counting_search)
    capsys.readouterr()
    for command, files in ((("verify",), ["frames.csv", "animats.csv", "rng.csv"]),
                           (("chart", "Adult"), ["animats.csv"])):
        opened.clear()
        searched.clear()
        assert invoke(command[0], out, *command[1:]) == 0
        assert capsys.readouterr().err == ""
        assert opened == ["rng.csv"] + files
        assert searched == [(name, 1) for name in files]


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


@pytest.mark.parametrize("command", ["check", "run", "fmt", "replay", "chart", "verify"])
def test_a_file_that_is_not_utf8_exits_1_in_one_line(tree, capsys, command):
    """A model, a config or a run directory's ``model.rmd`` or ``meta.txt``
    whose bytes are not UTF-8 is read, and refused on one line that names
    it and the first byte that is not, with exit 1; ``fmt`` leaves it as
    it was."""
    out = tree / "run1"
    assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 0
    argv = {
        "check": [tree / "model.rmd", "--config", tree / "run.cfg"],
        "run": [tree / "model.rmd", tree / "run.cfg"],
        "fmt": [tree / "model.rmd"],
        "replay": [out, 1], "chart": [out, "Egg"], "verify": [out],
    }[command]
    files = [arg for arg in argv if isinstance(arg, Path) and arg.is_file()]
    for path in files or [out / "meta.txt", out / "model.rmd"]:
        text = path.read_bytes()
        path.write_bytes(text + b"# caf\xe9\n")
        capsys.readouterr()
        assert invoke(command, *argv) == 1
        assert capsys.readouterr() == ("", f"{path}: byte {len(text) + 5} is not UTF-8 text\n")
        assert path.read_bytes() == text + b"# caf\xe9\n"
        path.write_bytes(text)


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

    def test_an_overflowing_literal_stays_a_number(self, tree, capsys):
        """``1e400`` reads as an infinity; fmt writes a number that reads
        as one again, in an initializer and in an expression, so check
        still reports the initializer rather than a syntax error."""
        path = tree / "overflow.rmd"
        path.write_text(
            "Egg is Grasshopper with\n    e [kg] = 1e400 [kg].\n\n"
            "to grow is\n    my e' = my e + 1e400 [kg] * 2.\n\nEgg grow.\n"
        )
        pinned = f"{path}:2:5: error: initializer of 'e' is not finite\n"
        assert invoke("check", path) == 1
        assert capsys.readouterr().err == pinned
        assert invoke("fmt", path) == 0
        text = path.read_text()
        assert "e [kg] = 1e309 [kg]." in text
        assert "my e' = my e + 1e309 [kg] * 2." in text
        assert invoke("fmt", path) == 0
        assert path.read_text() == text
        assert invoke("check", path) == 1
        assert capsys.readouterr().err == pinned

    def test_a_failed_write_exits_2_and_leaves_the_file(self, tree, capsys, monkeypatch):
        messy = tree / "messy.rmd"
        messy.write_text("Egg is Grasshopper with\n      age   [day].\n")

        def read_only(path, *args, **kwargs):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS))

        monkeypatch.setattr(Path, "write_text", read_only)
        assert invoke("fmt", messy) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", f"cannot write {messy}: {os.strerror(errno.EROFS)}\n")
        assert messy.read_text() == "Egg is Grasshopper with\n      age   [day].\n"

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
        # ``verify`` cannot make the disk fill again, so it does not
        # recompute an abort that names no stage, and says so.
        assert invoke("verify", out) == 0
        assert capsys.readouterr() == (
            "1 ticks recomputed as stored\n"
            f"the abort names no stage, so it is not recomputed: {os.strerror(errno.ENOSPC)} (tick 3)\n", "")

    def test_memory_running_out_in_set_up_exits_3(self, tmp_path, capsys, monkeypatch):
        self.fail_at_tick(monkeypatch, 1, MemoryError())
        out = tmp_path / "oom"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 3
        monkeypatch.undo()
        assert capsys.readouterr().err.splitlines() == ["aborted: out of memory (tick 1)"]
        assert FileBackend(out).frame_count() == 0
        assert (out / "meta.txt").read_text().splitlines()[-1] == "abort_at=tick=1"
        assert invoke("verify", out) == 0
        assert capsys.readouterr() == (
            "0 ticks recomputed as stored\n"
            "the abort names no stage, so it is not recomputed: out of memory (tick 1)\n", "")
        meta = out / "meta.txt"
        meta.write_text(meta.read_text().replace("abort_at=tick=1", "abort_at=tick=1 stage=Adult"))
        assert invoke("verify", out) == 1
        assert capsys.readouterr() == ("", f"{meta}: abort_at= names a stage, but no frame is stored\n")

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

    @pytest.mark.parametrize("name, command", [
        ("frames.csv", ("replay", 1)), ("frames.csv", ("verify",)),
        ("rng.csv", ("replay", 1)), ("rng.csv", ("verify",)), ("rng.csv", ("chart", "Egg")),
    ], ids=["frames-replay", "frames-verify", "rng-replay", "rng-verify", "rng-chart"])
    def test_a_trace_file_that_cannot_be_read_exits_2(self, tree, capsys, name, command):
        """A trace file that is a directory: ``frames.csv`` fails a load on
        its ``open``, and ``rng.csv`` opening the run directory, which reads
        its last row."""
        out = tree / "run"
        assert invoke("run", tree / "model.rmd", tree / "run.cfg", "--out", out) == 0
        (out / name).unlink()
        (out / name).mkdir()
        capsys.readouterr()
        assert invoke(command[0], out, *command[1:]) == 2
        assert capsys.readouterr() == ("", f"cannot read {out / name}: {os.strerror(errno.EISDIR)}\n")

    @pytest.mark.parametrize(
        "name, row, text",
        [
            ("frames.csv", "2,99", "frames.csv: tick 2 has a row of 2 fields, not 3"),
            ("animats.csv", "2,7,Adult", "animats.csv: tick 2 has a row of 3 fields, not 4"),
            ("rng.csv", "2,00,1", "rng.csv: tick 2 has a row of 3 fields, not 2"),
        ],
    )
    def test_replay_refuses_a_row_of_the_wrong_width(self, tmp_path, capsys, name, row, text):
        out = tmp_path / "age"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
        lines = (out / name).read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("2,")) + 1
        (out / name).write_text("".join(lines[:at] + [row + "\n"] + lines[at:]))
        capsys.readouterr()
        assert invoke("replay", out, 2) == 1
        assert capsys.readouterr() == ("", text + "\n")
        assert invoke("replay", out, 3) == 0

    def test_replay_of_a_tick_without_its_rng_row(self, tmp_path, capsys):
        out = tmp_path / "age"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
        lines = (out / "rng.csv").read_text().splitlines(keepends=True)
        (out / "rng.csv").write_text("".join(line for line in lines if not line.startswith("3,")))
        capsys.readouterr()
        assert invoke("replay", out, 3) == 1
        assert capsys.readouterr() == ("", "frame 3 missing from rng.csv\n")
        assert invoke("replay", out, 4) == 0

    @pytest.mark.parametrize(
        "name, width", [("frames.csv", 3), ("animats.csv", 4), ("rng.csv", 2)]
    )
    def test_replay_refuses_a_row_of_one_field_at_and_after_its_tick(
        self, tmp_path, capsys, name, width
    ):
        out = tmp_path / "age"
        assert invoke("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
        lines = (out / name).read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("2,")) + 1
        (out / name).write_text("".join(lines[:at] + ["2\n"] + lines[at:]))
        text = f"{name}: tick 2 has a row of 1 fields, not {width}\n"
        for tick in (2, 3):
            capsys.readouterr()
            assert invoke("replay", out, tick) == 1
            assert capsys.readouterr() == ("", text)
