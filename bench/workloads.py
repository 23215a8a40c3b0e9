"""The benchmark's workloads, driven through the library API.

Every workload is a sequence of passes over the same inputs.  A pass
starts with the workload's set-up (timed on its own) and then performs
its operations one by one, each under its own timer and each preceded by
a timed calibration loop (``calibrate``) that measures how fast the core
runs Python at that moment; outputs are checked against
``data/goldens.json`` after each timer stops.  Library calls go
through module attributes (``parser.parse_model``) so that the tracer's
wrappers see them.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import shutil
import statistics
import tempfile
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from remodyc import interp, memory, parser, rng, typecheck

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = BENCH_DIR / "data"
MODELS = ROOT / "models"

REPLAY_LOADS = 4
REPLAY_RESUMES = 1
CORPUS_SAMPLE = 500
CORPUS_SEPARATOR = re.compile(r"^# model (\d+)\n", re.MULTILINE)
# The repository's models at the time the goldens were recorded; all check
# clean.  Named here so that a model added later does not change the corpus.
REPOSITORY_MODELS = ("age.rmd", "eggs.rmd", "memo.rmd", "move.rmd", "move_delta.rmd")

# One calibration chunk: a fixed pure-Python loop of dict lookups,
# attribute loads, calls and float arithmetic that allocates no object the
# cyclic collector tracks.  Calibrated times are given at the speed at
# which one chunk takes CALIBRATION_MS; the Xeon host the benchmark was
# written on runs a chunk in 1.0-1.1 ms in its fast state.
CALIBRATION_ITERATIONS = 7000
CALIBRATION_MS = 1.0


class _Scale:
    __slots__ = ("factor", "offset")

    def __init__(self):
        self.factor = 0.5
        self.offset = 1.25


_CALIBRATION_TABLE = {i: float(i) for i in range(64)}
_CALIBRATION_SCALE = _Scale()


def _mix(x: float, scale: _Scale) -> float:
    return x * scale.factor + scale.offset


def calibrate(chunks: int) -> float:
    """Runs ``chunks`` calibration chunks; returns ms per chunk."""
    table, scale = _CALIBRATION_TABLE, _CALIBRATION_SCALE
    acc = 0.0
    start = time.perf_counter_ns()
    for i in range(chunks * CALIBRATION_ITERATIONS):
        x = table[i & 63]
        if i & 1:
            acc += _mix(x, scale)
        else:
            acc -= x * scale.factor
    return (time.perf_counter_ns() - start) / 1e6 / chunks


class BenchError(Exception):
    """The workload cannot run at all (missing inputs, rejected model)."""


@dataclass
class Pass:
    ops_ms: array = field(default_factory=lambda: array("d"))
    resume_step_ms: array = field(default_factory=lambda: array("d"))
    # ms per calibration chunk, measured before each operation and once
    # after the last, so that every operation has one on either side.
    calibration_ms: array = field(default_factory=lambda: array("d"))
    # The full collection that starts the pass (``guarded_pass``).
    collect_ms: float = 0.0
    # Counts that depend only on the inputs: every pass must reproduce
    # the values derived from the goldens exactly.
    counts: dict[str, int] = field(default_factory=dict)
    # The outputs compared with the goldens; recording keeps them, a
    # measured run drops them once compared (``guarded_pass``).
    observed: dict = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    aborted: bool = False

    @property
    def attempted(self) -> int:
        return len(self.ops_ms) + len(self.resume_step_ms) or int(self.aborted)

    @property
    def slowdown(self) -> float:
        """How much slower than the calibration speed the core ran
        during this pass, on average."""
        return statistics.fmean(self.calibration_ms) / CALIBRATION_MS

    @property
    def raw_ms(self) -> float:
        return self.collect_ms + sum(self.ops_ms) + sum(self.resume_step_ms)

    def calibrated(self) -> tuple[list[float], list[float]]:
        """The calibrated times of the operations and of the resume+step
        probes: each time divided by the slowdown around it, the mean of
        the chunks just before and just after it."""
        cal = self.calibration_ms
        times = [
            ms * 2 * CALIBRATION_MS / (cal[i] + cal[i + 1])
            for i, ms in enumerate(self.ops_ms + self.resume_step_ms)
        ]
        return times[:len(self.ops_ms)], times[len(self.ops_ms):]

    @property
    def calibrated_ms(self) -> float:
        """The pass's calibrated time: its opening collection and all its
        timed operations."""
        ops, probes = self.calibrated()
        return self.collect_ms * CALIBRATION_MS / self.calibration_ms[0] + sum(ops) + sum(probes)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def frame_digest(frame: memory.TraceFrame) -> str:
    """Digest of a frame's values, animat table and RNG state.  ``repr``
    round-trips floats, so a frame read back from CSV digests the same
    as the one the engine committed."""
    lines = [f"{a},{frame.values[a]!r}" for a in sorted(frame.values)]
    lines += [f"{b},{s},{i}" for b, (s, i) in sorted(frame.animats.items())]
    lines.append(rng.format_state(frame.rng_state))
    return sha256_hex("\n".join(lines).encode())[:32]


def activations(model, frame: memory.TraceFrame) -> int:
    """Action activations of the step that starts from ``frame``: every
    task runs once for each live animat of its kind."""
    live = Counter(kind for kind, _ in frame.animats.values())
    return sum(live[task.agent] for task in model.tasks)


def mismatches(observed: dict, golden: dict) -> list[str]:
    return [
        f"{key}: got {observed.get(key)!r}, golden {golden.get(key)!r}"
        for key in sorted(set(observed) | set(golden))
        if observed.get(key) != golden.get(key)
    ]


def load_goldens() -> dict:
    return json.loads(_read(DATA / "goldens.json"))


class WorkDir:
    """Fresh directories under the checkout's ignored ``.bench_work``."""

    def __init__(self):
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._serial = 0

    def fresh(self, stem: str) -> Path:
        self._serial += 1
        return self.path / f"{stem}-{self._serial}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def _read(path: Path) -> str:
    if not path.is_file():
        raise BenchError(f"missing input {path.relative_to(ROOT)}")
    return path.read_text()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


class RunWorkload:
    """A whole run: set-up is parse, check, ``Engine()`` and ``setup()``;
    the operations are the ``step()`` calls, one per tick."""

    op_name = "tick"

    def __init__(self, name, model_path, config_path, on_disk, work, golden, chunks=1):
        self.name = name
        # Calibration chunks before each tick, about a tenth of its time.
        self.chunks = chunks
        self.model_text = _read(model_path)
        self.config_text = _read(config_path)
        self.on_disk = on_disk
        self.work = work
        self.golden = golden

    def setup(self):
        model = parser.parse_model(self.model_text)
        config = interp.parse_config(self.config_text)
        errors = typecheck.errors_only(typecheck.check_model(model, config))
        if errors:
            raise BenchError(f"{self.name}: model does not check: {errors[0].message}")
        run_dir = None
        if self.on_disk:
            run_dir = self.work.fresh(self.name)
            backend = memory.FileBackend(run_dir)
        else:
            backend = memory.InMemoryBackend()
        engine = interp.Engine(model, config, backend)
        return engine, engine.setup(), run_dir

    def discard(self, state) -> None:
        run_dir = state[2]
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    def run_pass(self, state) -> Pass:
        engine, frame, run_dir = state
        model, config = engine.model, engine.config
        result = Pass()
        census = hashlib.sha256()

        def count(tick, frame):
            live = Counter(kind for kind, _ in frame.animats.values())
            for stage in model.stages:
                census.update(f"{tick},{stage.name},{live[stage.name]}\n".encode())

        count(1, frame)
        work = 0
        clock = time.perf_counter_ns
        for tick in range(2, config.steps + 2):
            work += activations(model, frame)
            result.calibration_ms.append(calibrate(self.chunks))
            start = clock()
            frame = engine.step()
            result.ops_ms.append((clock() - start) / 1e6)
            count(tick, frame)
        result.calibration_ms.append(calibrate(self.chunks))
        result.counts = {
            "rng.draws": rng.draws_between(rng.seed_state(config.seed), frame.rng_state),
            "interp.activations": work,
        }
        observed = {"census": census.hexdigest()}
        if run_dir is not None:
            for name in ("frames.csv", "animats.csv", "rng.csv"):
                observed[name] = sha256_hex((run_dir / name).read_bytes())
            headers = len("tick,address,value\ntick,base_address,stage,index\ntick,state_hex\n")
            result.counts["trace_bytes"] = _dir_bytes(run_dir)
            result.counts["memory.append_bytes"] = result.counts["trace_bytes"] - headers
        else:
            observed["final_frame"] = frame_digest(frame)
            observed["rng_state"] = rng.format_state(frame.rng_state)
        result.observed = observed
        if self.golden is not None:
            result.problems += mismatches(observed, self.golden["outputs"])
        return result

    def expected_counts(self) -> dict[str, int] | None:
        return self.golden["counts"] if self.golden else None


class _ResumeProbe(memory.StorageBackend):
    """Serves one stored tick to ``Engine.resume`` and keeps the frame the
    following ``step`` appends instead of writing it.

    ``frame_count`` answers the resumed tick so that the image may append
    the next one: resuming on the finished ``FileBackend`` itself raises
    ``ValueError: image at tick t cannot append frame N+1``.
    """

    def __init__(self, trace: memory.FileBackend, tick: int):
        self.trace = trace
        self.tick = tick
        self.loaded = None
        self.appended = None

    def load_frame(self, tick: int) -> memory.TraceFrame:
        self.loaded = self.trace.load_frame(tick)
        return self.loaded

    def frame_count(self) -> int:
        return self.tick

    def append_frame(self, frame: memory.TraceFrame) -> None:
        self.appended = frame


class ReplayWorkload:
    """Reopens the eggs reference trace: seeded ``load_frame`` calls, then
    seeded ``resume(t)`` + ``step()`` probes.  Set-up opens the run
    directory (model parse and check, ``FileBackend``)."""

    op_name = "load"
    chunks = 8

    def __init__(self, seed, work, goldens):
        self.model_text = _read(MODELS / "eggs.rmd")
        self.config_text = _read(MODELS / "eggs.cfg")
        self.work = work
        self.reference = goldens.get("eggs_file")
        self.stored = goldens.get("reference_ticks")
        steps = interp.parse_config(self.config_text).steps
        sampler = random.Random(seed)
        self.load_ticks = sampler.sample(range(1, steps + 2), REPLAY_LOADS)
        self.resume_ticks = sampler.sample(range(1, steps + 1), REPLAY_RESUMES)
        self.run_dir = None
        self.write_problems: list[str] = []
        self.trace_bytes = 0

    def write_trace(self) -> None:
        """Writes the reference trace with the code under test; this cost
        is not measured here (``eggs_file`` measures it)."""
        writer = RunWorkload(
            "replay-trace", MODELS / "eggs.rmd", MODELS / "eggs.cfg", True, self.work,
            self.reference,
        )
        state = writer.setup()
        written = writer.run_pass(state)
        self.run_dir = state[2]
        self.trace_bytes = written.counts["trace_bytes"]
        self.write_problems = [f"reference trace {p}" for p in written.problems]

    def setup(self):
        model = parser.parse_model(self.model_text)
        config = interp.parse_config(self.config_text)
        if typecheck.errors_only(typecheck.check_model(model, config)):
            raise BenchError("replay: eggs.rmd does not check")
        return model, config, memory.FileBackend(self.run_dir)

    def discard(self, state) -> None:
        pass

    def run_pass(self, state) -> Pass:
        model, config, trace = state
        result = Pass(problems=list(self.write_problems))
        clock = time.perf_counter_ns
        for tick in self.load_ticks:
            result.calibration_ms.append(calibrate(self.chunks))
            start = clock()
            frame = trace.load_frame(tick)
            result.ops_ms.append((clock() - start) / 1e6)
            if self.stored is not None and frame_digest(frame) != self.stored[tick - 1][0]:
                result.failed += 1
                result.problems.append(f"load_frame({tick}) differs from the stored frame")
        draws = work = 0
        for tick in self.resume_ticks:
            probe = _ResumeProbe(trace, tick)
            engine = interp.Engine(model, config, probe)
            result.calibration_ms.append(calibrate(self.chunks))
            start = clock()
            engine.resume(tick)
            engine.step()
            result.resume_step_ms.append((clock() - start) / 1e6)
            draws += rng.draws_between(probe.loaded.rng_state, probe.appended.rng_state)
            work += activations(model, probe.loaded)
            if self.stored is not None and frame_digest(probe.appended) != self.stored[tick][0]:
                result.failed += 1
                result.problems.append(f"resume({tick}) + step() differs from stored tick {tick + 1}")
        result.calibration_ms.append(calibrate(self.chunks))
        result.counts = {
            "rng.draws": draws,
            "interp.activations": work,
            "trace_bytes": self.trace_bytes,
        }
        return result

    def expected_counts(self) -> dict[str, int] | None:
        if self.stored is None or self.reference is None:
            return None
        return {
            "rng.draws": sum(self.stored[t - 1][1] for t in self.resume_ticks),
            "interp.activations": sum(self.stored[t - 1][2] for t in self.resume_ticks),
            "trace_bytes": self.reference["counts"]["trace_bytes"],
        }


def read_corpus() -> list[tuple[str, str]]:
    """The frozen generated models plus the repository's own models."""
    pieces = CORPUS_SEPARATOR.split(_read(DATA / "corpus.rmd"))
    entries = [(f"gen:{n}", text) for n, text in zip(pieces[1::2], pieces[2::2])]
    for name in REPOSITORY_MODELS:
        entries.append((f"models/{name}", _read(MODELS / name)))
    return entries


class CorpusWorkload:
    """``remodyc check`` plus ``fmt`` over a seeded sample of the frozen
    corpus and every repository model; one operation is parse, check and
    print of one model.  Set-up reads the corpus, draws the sample, and
    parses and checks the repository models, which must be clean."""

    op_name = "check"
    chunks = 1

    def __init__(self, seed, goldens, sample=CORPUS_SAMPLE):
        self.seed = seed
        self.sample = sample
        self.golden = goldens.get("corpus")

    def setup(self):
        entries = read_corpus()
        generated = [e for e in entries if e[0].startswith("gen:")]
        if len(generated) < self.sample:
            raise BenchError("check_corpus: corpus smaller than the sample")
        chosen = random.Random(self.seed).sample(generated, self.sample)
        repository = [e for e in entries if not e[0].startswith("gen:")]
        for key, text in repository:
            if typecheck.errors_only(typecheck.check_model(parser.parse_model(text), None)):
                raise BenchError(f"check_corpus: {key} does not check")
        return chosen + repository

    def discard(self, state) -> None:
        pass

    def run_pass(self, entries) -> Pass:
        result = Pass()
        clock = time.perf_counter_ns
        diagnostics = 0
        for key, text in entries:
            result.calibration_ms.append(calibrate(self.chunks))
            start = clock()
            model = parser.parse_model(text)
            found = typecheck.check_model(model, None)
            printed = parser.pretty_print(model)
            result.ops_ms.append((clock() - start) / 1e6)
            diagnostics += len(found)
            rendered = "\n".join(d.render(key) for d in found)
            observed = [len(found), sha256_hex(rendered.encode())[:16],
                        sha256_hex(printed.encode())[:16]]
            result.observed[key] = observed
            if self.golden is not None and observed != self.golden.get(key):
                result.failed += 1
                result.problems.append(f"{key}: diagnostics or printed form differ")
        result.calibration_ms.append(calibrate(self.chunks))
        result.counts = {"typecheck.diagnostics": diagnostics}
        return result

    def expected_counts(self) -> dict[str, int] | None:
        if self.golden is None:
            return None
        keys = [key for key, _ in self.setup()]
        return {"typecheck.diagnostics": sum(self.golden[k][0] for k in keys)}


def guarded_pass(workload, state, expected: dict | None) -> Pass:
    """One pass with failures recorded instead of raised; a mismatch in a
    golden output or an exact count fails every operation of the pass
    that cannot be blamed on a single one.

    The pass starts with a timed full collection.  Its operations then
    run from the same collector state in every pass, so each collection
    they trigger lands on the same operation every time, and the garbage
    earlier passes left is collected under a timer too.
    """
    start = time.perf_counter_ns()
    gc.collect()
    collect_ms = (time.perf_counter_ns() - start) / 1e6
    try:
        result = workload.run_pass(state)
    except Exception:  # a failing pass is reported, and the run goes on
        return Pass(failed=1, problems=[traceback.format_exc()], aborted=True)
    result.collect_ms = collect_ms
    if expected is not None:
        for key, value in expected.items():
            if result.counts.get(key) != value:
                result.problems.append(
                    f"exact-count guard: {key} = {result.counts.get(key)}, expected {value}"
                )
    if result.problems and result.failed == 0:
        result.failed = result.attempted
    # Kept for every pass, the outputs would make peak RSS grow with the
    # number of passes, and so with the speed of the code.
    result.observed = {}
    return result
