"""Command line front end.

Exit codes: 0 success, 1 model or configuration errors, 2 I/O problems
(a failed census stdout included: the run still keeps every frame), 3 a
run aborted mid-simulation (completed frames are kept on disk).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from contextlib import suppress
from itertools import chain
from pathlib import Path

from . import TRACE_FORMAT_VERSION, ast
from .interp import ConfigError, Engine, RuntimeAbort, parse_config
from .memory import CountingBackend, FileBackend
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


def _meta_lines(config) -> list[str]:
    return [
        f"version={TRACE_FORMAT_VERSION}",
        f"seed={config.seed}",
        f"delta_time={format_number(config.delta_time)}",
        f"steps={config.steps}",
        f"world_width={format_number(config.world_width)}",
        f"world_height={format_number(config.world_height)}",
        f"patch_size={format_number(config.patch_size)}",
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
        if run_dir.exists() and any(run_dir.iterdir()):
            raise _Failure(2, f"run directory {run_dir} is not empty")
        try:
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


def _open_run_dir(path: str) -> tuple[FileBackend, ast.Model]:
    run_dir = Path(path)
    if not (run_dir / "meta.txt").exists():  # written before any trace file
        raise _Failure(2, f"{path} is not a run directory")
    meta = {}
    for line in _read_text(run_dir / "meta.txt").splitlines():
        key, _, value = line.partition("=")
        meta[key] = value
    if meta.get("version") != TRACE_FORMAT_VERSION:
        raise _Failure(
            1,
            f"trace version {meta.get('version')!r} is not supported "
            f"(expected {TRACE_FORMAT_VERSION})",
        )
    _, model = _parse_model_file(str(run_dir / "model.rmd"))
    return FileBackend(run_dir), model


def _replay(args) -> int:
    backend, model = _open_run_dir(args.run_dir)
    try:
        frame = backend.load_frame(args.tick)
    except ValueError as err:
        raise _Failure(1, str(err))
    # The frame is checked against the model before anything is printed.
    rows = []
    for base, (kind, _) in sorted(frame.animats.items()):
        if (agent := model.agent_named(kind)) is None:
            raise _Failure(1, f"tick {args.tick}: unknown stage {kind!r} at address {base}")
        for slot, declaration in enumerate(agent.all_attributes):
            if base + slot not in frame.values:
                raise _Failure(1, f"tick {args.tick}: no value at address {base + slot}")
            rows.append((base + slot, kind, declaration))
    print("address,stage,attribute,value")
    for address, kind, declaration in rows:
        stored, unit = frame.values[address], declaration.unit
        value, label = stored / unit.scale, unit.label or ""
        # Past the declared unit's range (inf, or 0 from a stored nonzero): SI
        if not math.isfinite(value) or (value == 0 and stored != 0):
            value, label = stored, format_unit(unit)[1:-1]
        rendered = format_number(value)
        if label:
            rendered += f" {label}"
        print(f"{address},{kind},{declaration.identifier},{rendered}")
    return 0


def _chart(args) -> int:
    backend, model = _open_run_dir(args.run_dir)
    stage = model.agent_named(args.stage)
    if not isinstance(stage, ast.StageDefinition):
        raise _Failure(1, f"unknown stage {args.stage!r}")
    try:
        counts = Counter(tick for tick, _, kind, _ in backend.animat_rows() if kind == args.stage)
    except ValueError as err:  # a trace file without its header
        raise _Failure(1, str(err))
    print("tick,count")
    for tick in range(1, backend.frame_count() + 1):
        print(f"{tick},{counts.get(tick, 0)}")
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
