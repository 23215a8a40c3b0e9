"""Command line front end.

Exit codes: 0 success, 1 model or configuration errors (and a run
directory that does not hold what it should, a stored frame that does
not fit its model, a tick that ``verify`` does not recompute as stored or
finds in a form the writer does not write, and a recorded abort it does
not recompute as recorded included), 2 I/O problems (a failed census
stdout, after which the run still keeps every frame, and a trace file
that cannot be read included), 3 a run aborted mid-simulation (completed
frames are kept on disk).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import closing, contextmanager, suppress
from itertools import chain
from pathlib import Path

from . import TRACE_FORMAT_VERSION, ast
from .interp import ConfigError, Engine, RuntimeAbort, SimulationConfig, frame_refusal, parse_config
from .memory import CountingBackend, FileBackend, StorageBackend, TraceFrame
from .parser import SourceError, format_number, parse_model, pretty_print
from .typecheck import check_model, errors_only
from .units import format_unit


class _Failure(Exception):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="remodyc",
        description="Agent-based models with measurement units and full-trace replay.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="parse and unit-check a model")
    check.add_argument("model")
    check.add_argument("--config", help="also validate a run configuration")

    run = commands.add_parser("run", help="simulate a model deterministically")
    run.add_argument("model")
    run.add_argument("config")
    run.add_argument("--out", help="run directory for the trace; without it no frame is kept")

    replay = commands.add_parser("replay", help="print one stored tick")
    replay.add_argument("run_dir")
    replay.add_argument("tick", type=int)

    verify = commands.add_parser(
        "verify", help="recompute each stored tick from the one before it, and a recorded abort")
    verify.add_argument("run_dir")

    chart = commands.add_parser("chart", help="population counts per tick")
    chart.add_argument("run_dir")
    chart.add_argument("stage")

    fmt = commands.add_parser("fmt", help="rewrite a model canonically")
    fmt.add_argument("model")

    args = parser.parse_args(argv)
    handler = {
        "check": _check,
        "run": _run,
        "replay": _replay,
        "verify": _verify,
        "chart": _chart,
        "fmt": _fmt,
    }[args.command]
    try:
        return handler(args)
    except _Failure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise _Failure(2, f"cannot read {path}: {err.strerror}")


def _parse_model_file(path: str) -> tuple[str, ast.Model]:
    """The text of the model file at ``path`` and the model it holds."""
    text = _read_text(path)
    try:
        return text, parse_model(text)
    except SourceError as err:
        raise _Failure(1, f"{path}:{err}")


def _parse_config_file(path: str):
    try:
        return parse_config(_read_text(path))
    except ConfigError as err:
        raise _Failure(1, f"{path}: {err}")


def _diagnose(model: ast.Model, path: str, config=None) -> None:
    diagnostics = check_model(model, config)
    for diagnostic in diagnostics:
        print(diagnostic.render(path), file=sys.stderr)
    if errors_only(diagnostics):
        raise _Failure(1)


def _check(args) -> int:
    _, model = _parse_model_file(args.model)
    config = _parse_config_file(args.config) if args.config else None
    _diagnose(model, args.model, config)
    return 0


# The configuration settings ``meta.txt`` records, in its order, as
# ``parse_config`` reads them; ``populate`` lines follow the other keys.
_SETTINGS = ("seed", "delta_time", "steps", "world_width", "world_height", "patch_size")


def _meta_lines(config) -> list[str]:
    return [
        f"version={TRACE_FORMAT_VERSION}",
        *(f"{key}={format_number(getattr(config, key))}" for key in _SETTINGS),
        f"patches_x={config.patches_x}",
        f"patches_y={config.patches_y}",
        "rng=splitmix64, one global stream consumed in task and animat order",
    ] + [f"populate={count} {stage}" for count, stage in config.populations]


def _run(args) -> int:
    model_text, model = _parse_model_file(args.model)
    config = _parse_config_file(args.config)
    _diagnose(model, args.model, config)

    meta_path, backend = None, CountingBackend()
    if args.out:
        run_dir = Path(args.out)
        try:
            if run_dir.exists() and any(run_dir.iterdir()):
                raise _Failure(2, f"run directory {run_dir} is not empty")
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "model.rmd").write_text(model_text)
            meta_path = run_dir / "meta.txt"
            meta_path.write_text("\n".join(_meta_lines(config)) + "\n")
            backend = FileBackend(run_dir)
        except OSError as err:
            raise _Failure(2, f"cannot prepare {run_dir}: {err.strerror}")

    # The header, then each tick's census rows as that tick commits, so an
    # aborted run still shows every tick it kept.  The census is not part of
    # the run: if stdout fails, the rest of it goes to the null device (a
    # closed stdout prints nothing) and the run goes on, to exit 2 unless
    # the failure was only that the reader had gone.
    failure = "stdout is closed" if sys.stdout is None else None
    census = chain([[("tick", "stage", "count")]], Engine(model, config, backend).census())
    try:
        for rows in census:
            try:
                for row in rows:
                    print(*row, sep=",")
                if sys.stdout is not None:
                    sys.stdout.flush()
            except OSError as err:
                if not isinstance(err, BrokenPipeError):
                    failure = f"cannot write the census to stdout: {err.strerror or err}"
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
    except RuntimeAbort as abort:
        if meta_path is not None:
            with suppress(OSError), open(meta_path, "a") as handle:
                handle.write(f"abort={abort.render()}\nabort_at={_abort_at(abort)}\n")
        print(f"aborted: {abort.render()}", file=sys.stderr)
        return 3
    if failure:
        raise _Failure(2, failure)
    return 0


def _abort_at(abort: RuntimeAbort) -> str:
    """Where ``abort`` happened, as ``key=value`` fields; a field that is not
    known is left out."""
    fields = {"tick": abort.tick, "stage": abort.stage, "index": abort.index,
              "base": abort.base, "attribute": abort.attribute}
    return " ".join(f"{key}={value}" for key, value in fields.items() if value is not None)


@contextmanager
def _reading():
    """A trace that the reader refuses (``ValueError``) exits 1 with its
    text, and one that cannot be read (``OSError``) exits 2, naming it."""
    try:
        yield
    except ValueError as err:
        raise _Failure(1, str(err))
    except OSError as err:
        raise _Failure(2, f"cannot read {err.filename}: {err.strerror}")


def _open_run_dir(path: str) -> tuple[FileBackend, ast.Model, SimulationConfig, dict[str, str]]:
    """The trace, the model, the config and the ``meta.txt`` lines, by key,
    of the run directory at ``path``; the config is read back from
    ``meta.txt``, and one that does not parse is refused on its line."""
    run_dir = Path(path)
    meta_path = run_dir / "meta.txt"
    if not meta_path.exists():  # written before any trace file
        raise _Failure(2, f"{path} is not a run directory")
    lines = [line.partition("=")[::2] for line in _read_text(meta_path).splitlines()]
    meta = dict(lines)
    if meta.get("version") != TRACE_FORMAT_VERSION:
        raise _Failure(
            1,
            f"trace version {meta.get('version')!r} is not supported "
            f"(expected {TRACE_FORMAT_VERSION})",
        )
    _, model = _parse_model_file(str(run_dir / "model.rmd"))
    # One config line per meta.txt line, so that a refusal names its line.
    text = "\n".join(f"{key} = {value}" if key in _SETTINGS
                     else f"populate {value}" if key == "populate" else ""
                     for key, value in lines)
    try:
        config = parse_config(text)
    except ConfigError as err:
        raise _Failure(1, f"{meta_path}: {err}")
    with _reading():  # the last rng.csv row, which counts the frames
        return FileBackend(run_dir), model, config, meta


def _replay(args) -> int:
    backend, model, config, _ = _open_run_dir(args.run_dir)
    with _reading():
        frame = backend.load_frame(args.tick)
    # The frame is checked against the model before anything is printed.
    if refusal := frame_refusal(model, config, frame, args.tick):
        raise _Failure(1, refusal)
    print("address,stage,attribute,value")
    for base, (kind, _) in frame.animats.items():
        for slot, declaration in enumerate(model.agent_named(kind).all_attributes):
            stored, unit = frame.values[base + slot], declaration.unit
            value, label = stored / unit.scale, unit.label or ""
            # Past the declared unit's range (inf, or 0 from a stored nonzero): SI
            if not math.isfinite(value) or (value == 0 and stored != 0):
                value, label = stored, format_unit(unit)[1:-1]
            rendered = format_number(value)
            if label:
                rendered += f" {label}"
            print(f"{base + slot},{kind},{declaration.identifier},{rendered}")
    return 0


class _OneTick(StorageBackend):
    """Serves the stored frame it is pointed at to ``Engine.resume`` and
    answers that frame's tick as the frame count, so that the engine may
    commit the next tick, which ``step`` returns and nothing keeps."""

    frame: TraceFrame
    tick = 0

    def load_frame(self, tick: int) -> TraceFrame:
        return self.frame

    def frame_count(self) -> int:
        return self.tick

    def append_frame(self, frame: TraceFrame) -> None:
        pass


def _verify(args) -> int:
    """Resume one engine from each stored tick in turn, which checks it
    against the model (``frame_refusal``), after stepping it from the
    stored tick before, if any: each tick after the first must be that
    step.  A step depends on the frame it resumed from alone, as
    ``resume`` loads the whole image and the RNG state.  Each stored
    tick's rows must also be, byte for byte, what the writer writes for
    the frame loaded.  An abort that ``meta.txt`` records with a stage is
    recomputed too: a step of the last stored tick must abort as
    ``abort=`` and ``abort_at=`` say.  One without a stage (the set-up
    ceiling, an I/O or a memory failure) is not."""
    backend, model, config, recorded = _open_run_dir(args.run_dir)
    meta_path = Path(args.run_dir) / "meta.txt"
    _diagnose(model, str(Path(args.run_dir) / "model.rmd"), config)
    frames = backend.frame_count()
    stored = _OneTick()
    engine = Engine(model, config, stored)
    with _reading(), closing(backend.written(map(backend.load_frame, range(1, frames + 1)))) as loaded:
        for tick, frame in enumerate(loaded, 1):
            aborted = None  # a step of the tick before, reported once this tick is checked
            try:
                recomputed = engine.step() if tick > 1 else frame
            except RuntimeAbort as abort:
                aborted = abort.render()
            stored.frame, stored.tick = frame, tick
            engine.resume(tick)
            if aborted:
                raise _Failure(1, f"tick {tick} is not recomputed: aborted: {aborted}")
            if recomputed != frame:
                raise _Failure(1, f"tick {tick} differs from a step of tick {tick - 1}")
        at = dict(field.partition("=")[::2] for field in recorded.get("abort_at", "").split())
        if "stage" in at:
            if not frames:
                raise _Failure(1, f"{meta_path}: abort_at= names a stage, but no frame is stored")
            try:
                engine.step()
            except RuntimeAbort as abort:
                for key, text in (("abort", abort.render()), ("abort_at", _abort_at(abort))):
                    if recorded.get(key) != text:
                        raise _Failure(1, f"{meta_path}: {key}= is not what a step of tick {frames} gives: {text}")
            else:
                raise _Failure(1, f"{meta_path}: a step of tick {frames} does not abort")
    print(f"{max(frames - 1, 0)} ticks recomputed as stored")
    if "stage" in at:
        print(f"the abort recomputed as recorded: {recorded['abort']}")
    elif "abort" in recorded or "abort_at" in recorded:
        print(f"the abort names no stage, so it is not recomputed: {recorded.get('abort', '')}")
    return 0


def _chart(args) -> int:
    backend, model, _, _ = _open_run_dir(args.run_dir)
    stage = model.agent_named(args.stage)
    if not isinstance(stage, ast.StageDefinition):
        raise _Failure(1, f"unknown stage {args.stage!r}")
    with _reading():  # a trace file without its header, or a row it cannot hold
        counts = [[kind for kind, _ in backend.load_animats(tick).values()].count(args.stage)
                  for tick in range(1, backend.frame_count() + 1)]
    print("tick,count")
    for tick, count in enumerate(counts, 1):
        print(f"{tick},{count}")
    return 0


def _fmt(args) -> int:
    text, model = _parse_model_file(args.model)
    canonical = pretty_print(model)
    if canonical != text:
        try:
            Path(args.model).write_text(canonical)
        except OSError as err:
            raise _Failure(2, f"cannot write {args.model}: {err.strerror}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
