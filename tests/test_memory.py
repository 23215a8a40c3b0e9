"""Memory image semantics and trace storage."""
import errno
import functools
import io
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from remodyc import memory
from remodyc.interp import Engine, RuntimeAbort, parse_config
from remodyc.memory import (
    AddressError,
    CountingBackend,
    FileBackend,
    InMemoryBackend,
    MemoryImage,
    TraceFrame,
)
from remodyc.parser import format_number, parse_model

TRACE_FILES = ("frames.csv", "animats.csv", "rng.csv")
MODELS = Path(__file__).resolve().parent.parent / "models"


def image_with_block(stage="Egg", size=3):
    image = MemoryImage()
    base = image.allocate(stage, size)
    return image, base


class TestImageBasics:
    def test_allocation_is_contiguous_and_zeroed(self):
        image = MemoryImage()
        first = image.allocate("Egg", 3)
        second = image.allocate("Egg", 3)
        assert (first, second) == (1, 4)
        assert all(image.read(a) == 0.0 for a in range(1, 7))
        assert image.animats == {1: ("Egg", 1), 4: ("Egg", 2)}

    def test_instance_indices_count_per_stage(self):
        image = MemoryImage()
        image.allocate("Egg", 2)
        image.allocate("Adult", 2)
        image.allocate("Egg", 2)
        assert [image.animats[b] for b in sorted(image.animats)] == [
            ("Egg", 1),
            ("Adult", 1),
            ("Egg", 2),
        ]

    def test_empty_block_still_occupies_an_address(self):
        image = MemoryImage()
        first = image.allocate("World", 0)
        second = image.allocate("Patch", 0)
        assert first != second

    def test_reads_guarded(self):
        image, _ = image_with_block()
        with pytest.raises(AddressError):
            image.read(99)

    def test_writes_guarded(self):
        image, _ = image_with_block()
        with pytest.raises(AddressError):
            image.write(99, 1.0)
        with pytest.raises(AddressError):
            image.write_delta(0, 1.0)

    # writes before the last, the last write, the text of its ValueError
    @pytest.mark.parametrize(
        "before, last, text",
        [
            ([], ("write", math.inf), "inf"),
            ([], ("write", -math.inf), "-inf"),
            ([], ("write", math.nan), "nan"),
            ([], ("write_delta", math.nan), "nan"),
            ([("write_delta", 1e308)], ("write_delta", 1e308), "inf"),
            ([("write", 1e308)], ("write_delta", 1e308), "inf"),
            ([("write_delta", -1e308)], ("write", -1e308), "-inf"),
        ],
        ids=["assign-inf", "assign-minus-inf", "assign-nan", "delta-nan",
             "delta-twice", "delta-over-assign", "assign-over-delta"],
    )
    def test_non_finite_commit_raises_its_value_and_changes_nothing(self, before, last, text):
        image, base = image_with_block()
        for method, value in before:
            getattr(image, method)(base, value)
        pending = (dict(image.next), dict(image.assigned), dict(image.delta))
        method, value = last
        with pytest.raises(ValueError) as err:
            getattr(image, method)(base, value)
        assert str(err.value) == text
        assert (image.next, image.assigned, image.delta) == pending
        with pytest.raises(AddressError):
            getattr(image, method)(99, value)

    def test_writes_invisible_until_commit(self):
        image, base = image_with_block()
        image.write(base, 5.0)
        image.write_delta(base + 1, 2.0)
        assert image.read(base) == 0.0
        assert image.read(base + 1) == 0.0

    def test_deltas_accumulate(self):
        image, base = image_with_block()
        image.write_delta(base, 1.25)
        image.write_delta(base, 2.5)
        frame = image.store(InMemoryBackend(), 0)
        assert frame.values[base] == 3.75


class TestStore:
    def test_commit_folds_next_plus_delta(self):
        image, base = image_with_block()
        image.write(base, 5.0)
        image.write_delta(base, 0.5)
        image.write_delta(base + 1, 2.0)
        frame = image.store(InMemoryBackend(), 7)
        assert frame.values == {base: 5.5, base + 1: 2.0, base + 2: 0.0}
        assert frame.rng_state == 7

    def test_killed_blocks_dropped_but_readable_before(self):
        image = MemoryImage()
        egg = image.allocate("Egg", 2)
        adult = image.allocate("Adult", 2)
        image.write(egg, 9.0)
        image.kill(egg)
        assert image.read(egg) == 0.0
        image.kill(egg)
        frame = image.store(InMemoryBackend(), 0)
        assert set(frame.values) == {adult, adult + 1}
        assert frame.animats == {adult: ("Adult", 1)}

    def test_kill_unknown_base(self):
        image, base = image_with_block()
        with pytest.raises(AddressError):
            image.kill(base + 1)

    def test_store_requires_backend_in_step(self):
        image, _ = image_with_block()
        backend = InMemoryBackend()
        image.store(backend, 0)
        with pytest.raises(ValueError, match=r"^image at tick 0 cannot append frame 2$"):
            image.store(backend, 0)


class TestApplyAndLoad:
    def test_round_trip(self):
        backend = InMemoryBackend()
        image, base = image_with_block()
        image.write(base, 1.5)
        frame = image.store(backend, 11)
        image.apply_frame(frame, 1)
        assert image.read(base) == 1.5
        # No address of the frame carries a pending delta into the next commit.
        assert all(image.delta.get(a, 0.0) == 0.0 for a in frame.values)
        assert image.ticks == 1
        assert image.next_free == base + 3

    def test_load_restores_any_stored_tick(self):
        backend = InMemoryBackend()
        image, base = image_with_block()
        for tick, value in enumerate([1.0, 2.0, 3.0], start=1):
            image.write(base, value)
            image.apply_frame(image.store(backend, tick * 100), tick)
        fresh = MemoryImage()
        assert fresh.load(backend, 2) == 200
        assert fresh.read(base) == 2.0
        assert fresh.animats == image.animats

    def test_allocation_continues_after_load(self):
        backend = InMemoryBackend()
        image, _ = image_with_block()
        image.apply_frame(image.store(backend, 0), 1)
        fresh = MemoryImage()
        fresh.load(backend, 1)
        assert fresh.allocate("Egg", 3) == 4
        assert fresh.animats[4] == ("Egg", 2)

    def test_kill_works_after_load(self):
        backend = InMemoryBackend()
        image = MemoryImage()
        egg = image.allocate("Egg", 2)
        adult = image.allocate("Adult", 2)
        image.apply_frame(image.store(backend, 0), 1)
        fresh = MemoryImage()
        fresh.load(backend, 1)
        fresh.kill(egg)
        frame = fresh.store(backend, 0)
        assert set(frame.values) == {adult, adult + 1}

    def test_a_block_reaches_up_to_the_next_live_base(self):
        backend = InMemoryBackend()
        image = MemoryImage()
        low = image.allocate("Egg", 2)  # addresses 1-2
        middle = image.allocate("Egg", 3)  # 3-5
        high = image.allocate("Egg", 2)  # 6-7
        top = image.allocate("Adult", 4)  # 8-11
        for base in (low, middle, high, top):
            image.write(base, float(base))
        image.kill(middle)
        image.kill(top)
        frame = image.store(backend, 0)
        assert frame.values == {low: 1.0, low + 1: 0.0, high: 6.0, high + 1: 0.0}
        image.apply_frame(frame, 1)
        # The dead middle block leaves a gap below the high one.
        assert sorted(image.animats) == [low, high]
        # The addresses of the dead top block go to the next allocation, and
        # so does its instance index, the highest of its stage.
        assert image.next_free == top
        assert image.allocate("Adult", 4) == top
        assert image.animats[top] == ("Adult", 1)
        # The low block still holds only its own values, and a kill of the
        # high one drops the high one's.
        image.write(low + 1, 9.0)
        image.kill(high)
        frame = image.store(backend, 0)
        assert frame.values == {low: 1.0, low + 1: 9.0, 8: 0.0, 9: 0.0, 10: 0.0, 11: 0.0}
        image.apply_frame(frame, 2)
        assert sorted(image.animats) == [low, top]
        assert image.next_free == top + 4


class TestInMemoryBackend:
    def test_stores_the_frame_it_is_given(self):
        backend, frame = InMemoryBackend(), TraceFrame({1: 1.0}, {1: ("Egg", 1)}, 0)
        backend.append_frame(frame)
        assert backend.load_frame(1) is frame

    def test_range_checks(self):
        backend = InMemoryBackend()
        with pytest.raises(ValueError):
            backend.load_frame(1)


def test_counting_backend_counts_and_keeps_no_frame():
    backend = CountingBackend()
    for _ in range(3):
        backend.append_frame(TraceFrame({1: 1.0}, {1: ("Egg", 1)}, 0))
    assert backend.frame_count() == 3
    with pytest.raises(ValueError, match=r"^no frame 3 is kept$"):
        backend.load_frame(3)


class TestFileBackend:
    def fill(self, path):
        backend = FileBackend(path)
        image = MemoryImage()
        base = image.allocate("Egg", 3)
        image.write(base, 2.5)
        image.write_delta(base + 1, 0.5)
        image.apply_frame(image.store(backend, 0xE220A8397B1DCDAF), 1)
        image.write(base, 86400.0)
        image.apply_frame(image.store(backend, 0x1B39896A51A8749B), 2)
        return backend, image, base

    def test_exact_file_contents(self, tmp_path):
        self.fill(tmp_path)
        assert (tmp_path / "frames.csv").read_text() == (
            "tick,address,value\n"
            "1,1,2.5\n1,2,0.5\n1,3,0\n"
            "2,1,86400\n2,2,0.5\n2,3,0\n"
        )
        assert (tmp_path / "animats.csv").read_text() == (
            "tick,base_address,stage,index\n1,1,Egg,1\n2,1,Egg,1\n"
        )
        assert (tmp_path / "rng.csv").read_text() == (
            "tick,state_hex\n1,e220a8397b1dcdaf\n2,1b39896a51a8749b\n"
        )

    def test_load_frame_round_trips(self, tmp_path):
        backend, image, base = self.fill(tmp_path)
        frame = backend.load_frame(1)
        assert frame.values == {base: 2.5, base + 1: 0.5, base + 2: 0.0}
        assert frame.animats == {base: ("Egg", 1)}
        assert frame.rng_state == 0xE220A8397B1DCDAF

    def test_reopen_resumes_numbering(self, tmp_path):
        _, image, base = self.fill(tmp_path)
        reopened = FileBackend(tmp_path)
        assert reopened.frame_count() == 2
        image.write(base, 7.0)
        image.apply_frame(image.store(reopened, 3), 3)
        assert reopened.load_frame(3).values[base] == 7.0

    def test_matches_in_memory_backend(self, tmp_path):
        _, image, base = self.fill(tmp_path)
        memory_backend = InMemoryBackend()
        replay = MemoryImage()
        replay.allocate("Egg", 3)
        replay.write(base, 2.5)
        replay.write_delta(base + 1, 0.5)
        replay.apply_frame(replay.store(memory_backend, 0xE220A8397B1DCDAF), 1)
        replay.write(base, 86400.0)
        replay.apply_frame(replay.store(memory_backend, 0x1B39896A51A8749B), 2)
        disk = FileBackend(tmp_path)
        for tick in (1, 2):
            assert disk.load_frame(tick) == memory_backend.load_frame(tick)

    def test_range_check(self, tmp_path):
        backend, _, _ = self.fill(tmp_path)
        with pytest.raises(ValueError):
            backend.load_frame(3)

    @staticmethod
    def contents(path):
        return {name: (path / name).read_bytes() for name in TRACE_FILES}

    def test_uncommitted_rows_are_ignored_then_cut(self, tmp_path):
        clean = tmp_path / "clean"
        _, image, base = self.fill(clean)
        image.write(base, 7.0)
        image.apply_frame(image.store(FileBackend(clean), 3), 3)

        crashed = tmp_path / "crashed"
        _, image, base = self.fill(crashed)
        # A crash after tick 3's frames.csv and animats.csv rows, before
        # its rng.csv row: address 4 is not part of the real tick 3.
        with open(crashed / "frames.csv", "a") as handle:
            handle.write("3,1,7\n3,2,0.5\n3,3,0\n3,4,99.0\n")
        with open(crashed / "animats.csv", "a") as handle:
            handle.write("3,1,Egg,1\n3,4,Egg,2\n")
        before = self.contents(crashed)
        reopened = FileBackend(crashed)
        assert reopened.frame_count() == 2
        assert reopened.load_frame(2).values == {base: 86400.0, base + 1: 0.5, base + 2: 0.0}
        with pytest.raises(ValueError, match="no frame 3"):
            reopened.load_frame(3)
        assert self.contents(crashed) == before
        image.write(base, 7.0)
        image.apply_frame(image.store(reopened, 3), 3)
        assert reopened.load_frame(3).values == {base: 7.0, base + 1: 0.5, base + 2: 0.0}
        assert reopened.load_frame(3).animats == {base: ("Egg", 1)}
        assert self.contents(crashed) == self.contents(clean)

    @pytest.mark.parametrize("name", TRACE_FILES)
    # The last is longer than the 64 bytes ``_last_tick`` reads first.
    @pytest.mark.parametrize("torn", ["3,1,8", "1", "3," + "8" * 80])
    def test_torn_last_line_is_ignored_then_cut(self, tmp_path, name, torn):
        clean = tmp_path / "clean"
        _, image, base = self.fill(clean)
        image.write(base, 7.0)
        image.apply_frame(image.store(FileBackend(clean), 3), 3)

        run = tmp_path / "torn"
        backend, image, base = self.fill(run)
        expected = [backend.load_frame(tick) for tick in (1, 2)]
        with open(run / name, "a") as handle:
            handle.write(torn)
        reopened = FileBackend(run)
        assert reopened.frame_count() == 2
        assert [reopened.load_frame(tick) for tick in (1, 2)] == expected
        image.write(base, 7.0)
        image.apply_frame(image.store(reopened, 3), 3)
        assert self.contents(run) == self.contents(clean)

    def test_reopen_reads_only_the_end_of_rng_csv(self, tmp_path, monkeypatch):
        self.fill(tmp_path)
        with open(tmp_path / "rng.csv", "a") as handle:
            for tick in range(3, 5000):
                handle.write(f"{tick},{tick:016x}\n")
        read = count_reads(monkeypatch)
        assert FileBackend(tmp_path).frame_count() == 4999
        assert list(read) == ["rng.csv"]
        assert 0 < read["rng.csv"] < 1024

    def test_exact_value_text(self, tmp_path):
        values = [-0.0, 0.0, 1e16, 9999999999999998.0, 1e-05, 5e-324, -3.0, 1e22, 0.5]
        backend = FileBackend(tmp_path)
        backend.append_frame(TraceFrame(dict(enumerate(values, 1)), {1: ("Egg", 1)}, 7))
        assert (tmp_path / "frames.csv").read_text() == (
            "tick,address,value\n"
            "1,1,-0\n1,2,0\n1,3,1e+16\n1,4,9999999999999998\n1,5,1e-05\n"
            "1,6,5e-324\n1,7,-3\n1,8,1e+22\n1,9,0.5\n"
        )

    def test_empty_frame_appends_only_its_rng_row(self, tmp_path):
        backend, _, _ = self.fill(tmp_path)
        before = self.contents(tmp_path)
        backend.append_frame(TraceFrame({}, {}, 0xAB))
        after = self.contents(tmp_path)
        assert after["frames.csv"] == before["frames.csv"]
        assert after["animats.csv"] == before["animats.csv"]
        assert after["rng.csv"] == before["rng.csv"] + b"3,00000000000000ab\n"
        assert FileBackend(tmp_path).load_frame(3) == TraceFrame({}, {}, 0xAB)

    def test_failed_append_then_retry_matches_an_uninterrupted_run(self, tmp_path, monkeypatch):
        def eggs(run_dir):
            model = parse_model((MODELS / "eggs.rmd").read_text())
            config = parse_config((MODELS / "eggs.cfg").read_text())
            engine = Engine(model, config, FileBackend(run_dir))
            engine.setup()
            return engine

        clean = eggs(tmp_path / "clean")
        for _ in range(5):
            clean.step()

        engine = eggs(tmp_path / "failed")
        for _ in range(3):
            engine.step()
        real_open = open

        def disk_full_for_animats(path, *args, **kwargs):
            if Path(path).name == "animats.csv":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, *args, **kwargs)

        # Tick 5's frames.csv rows are written, its animats.csv rows fail.
        monkeypatch.setattr(memory, "open", disk_full_for_animats, raising=False)
        with pytest.raises(OSError):
            engine.step()
        monkeypatch.undo()
        assert engine.backend.frame_count() == 4
        # What the ``MemoryImage`` docstring says to do after a failed append.
        engine.resume(4)
        engine.step()
        engine.step()
        assert self.contents(tmp_path / "failed") == self.contents(tmp_path / "clean")

    def test_refused_append_ends_run_in_an_abort_at_its_tick(self, tmp_path, monkeypatch):
        """``run`` turns a write the operating system refuses into a
        ``RuntimeAbort`` chained from it; ``step`` raises the error itself."""
        append = FileBackend.append_frame

        def disk_full_at_tick_3(backend, frame):
            if backend.frame_count() == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            append(backend, frame)

        monkeypatch.setattr(FileBackend, "append_frame", disk_full_at_tick_3)
        model = parse_model((MODELS / "age.rmd").read_text())
        config = parse_config((MODELS / "age.cfg").read_text())
        with pytest.raises(RuntimeAbort) as aborted:
            Engine(model, config, FileBackend(tmp_path / "run")).run()
        assert (aborted.value.tick, aborted.value.message) == (3, os.strerror(errno.ENOSPC))
        assert isinstance(aborted.value.__cause__, OSError)
        engine = Engine(model, config, FileBackend(tmp_path / "stepped"))
        engine.setup()
        engine.step()
        with pytest.raises(OSError) as failed:
            engine.step()
        assert failed.type is OSError and failed.value.errno == errno.ENOSPC


READ_BUFFER = 8192


class _CountingFile(io.FileIO):
    """A raw file that adds the bytes it reads to ``counter[name]``."""

    def __init__(self, path, counter):
        super().__init__(path, "r")
        self.key = Path(path).name
        self.counter = counter

    def readinto(self, buffer):
        count = super().readinto(buffer)
        self.counter[self.key] = self.counter.get(self.key, 0) + (count or 0)
        return count


def count_reads(monkeypatch) -> dict[str, int]:
    """Make ``remodyc.memory`` open files read-only, through
    ``_CountingFile`` and a ``READ_BUFFER`` buffer; returns the bytes read
    by file name."""
    counter: dict[str, int] = {}

    def counting_open(path, mode="r"):
        assert mode == "rb", f"opened {path} with mode {mode!r}"
        return io.BufferedReader(_CountingFile(path, counter), READ_BUFFER)

    monkeypatch.setattr(memory, "open", counting_open, raising=False)
    return counter


def rows_per_tick(tick: int) -> int:
    """Zero, one or many rows, with empty ticks at 10 and 100 so that
    the search crosses a digit width next to an empty tick."""
    if tick in (10, 100) or tick % 7 == 0:
        return 0
    if tick % 5 == 0 or tick in (9, 99, 101):
        return 1
    return 2 + (tick * 37) % 61


def synthetic_frame(tick: int) -> TraceFrame:
    count = rows_per_tick(tick)
    values = {1 + 3 * i + tick % 3: tick + i / 8 for i in range(count)}
    animats = {address: ("Egg" if i % 2 else "Adult", i + 1) for i, address in enumerate(values)}
    return TraceFrame(values, animats, (tick * 0x9E3779B97F4A7C15) % 2**64)


def scan_frame(path, tick: int) -> TraceFrame:
    """The naive reader: every row of every file, kept when its tick matches."""

    def rows(name):
        lines = (path / name).read_text().splitlines()[1:]
        return [line.split(",") for line in lines if int(line.split(",")[0]) == tick]

    values = {int(a): float(v) for _, a, v in rows("frames.csv")}
    animats = {int(b): (s, int(i)) for _, b, s, i in rows("animats.csv")}
    (state,) = [int(h, 16) for _, h in rows("rng.csv")]
    return TraceFrame(values, animats, state)


@pytest.mark.parametrize("scan_bytes", [1, 64, memory._SCAN_BYTES])
def test_load_frame_search_matches_full_scan(tmp_path, monkeypatch, scan_bytes):
    monkeypatch.setattr(memory, "_SCAN_BYTES", scan_bytes)
    disk, in_memory = FileBackend(tmp_path), InMemoryBackend()
    for tick in range(1, 121):
        disk.append_frame(synthetic_frame(tick))
        in_memory.append_frame(synthetic_frame(tick))
    assert (tmp_path / "frames.csv").stat().st_size > 4 * memory._SCAN_BYTES
    reopened = FileBackend(tmp_path)
    assert reopened.frame_count() == 120
    for tick in range(1, 121):
        frame = reopened.load_frame(tick)
        assert frame == scan_frame(tmp_path, tick) == in_memory.load_frame(tick)
        assert len(frame.values) == len(frame.animats) == rows_per_tick(tick)
    assert reopened.load_frame(10).values == reopened.load_frame(100).values == {}


def test_load_frame_reads_the_frame_not_the_file(tmp_path, monkeypatch):
    backend = FileBackend(tmp_path)
    for tick in range(1, 401):
        values = {address: tick + address / 8 for address in range(1, 201)}
        backend.append_frame(TraceFrame(values, {1: ("Egg", 1)}, tick))
    size = (tmp_path / "frames.csv").stat().st_size
    frame_bytes = len("".join(f"400,{a},{400 + a / 8}\n" for a in range(1, 201)))
    # One buffer per halving of the file down to the forward read, plus
    # the header, the forward read and the frame's own rows.
    bound = frame_bytes + READ_BUFFER * (math.log2(size / memory._SCAN_BYTES) + 4)
    assert size > 4 * bound
    read = count_reads(monkeypatch)
    reopened = FileBackend(tmp_path)
    for tick in (1, 2, 199, 200, 201, 399, 400):
        read.clear()
        assert reopened.load_frame(tick).values[200] == tick + 25
        assert read["frames.csv"] < bound


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["write", "delta"]))
        address = draw(st.integers(1, 5))
        value = draw(st.floats(-1e6, 1e6, allow_nan=False))
        ops.append((kind, address, value))
    return ops


@given(operations())
def test_commit_matches_dict_oracle(ops):
    image = MemoryImage()
    image.allocate("S", 5)
    committed = {a: 0.0 for a in range(1, 6)}
    pending = dict(committed)
    increments = {a: 0.0 for a in range(1, 6)}
    for kind, address, value in ops:
        if kind == "write":
            image.write(address, value)
            pending[address] = value
        else:
            image.write_delta(address, value)
            increments[address] += value
        assert {a: image.read(a) for a in committed} == committed
    frame = image.store(InMemoryBackend(), 0)
    assert frame.values == {a: pending[a] + increments[a] for a in pending}


@given(operations())
def test_delta_order_is_irrelevant(ops):
    deltas = [(address, value) for kind, address, value in ops if kind == "delta"]
    forward = MemoryImage()
    forward.allocate("S", 5)
    backward = MemoryImage()
    backward.allocate("S", 5)
    for address, value in deltas:
        forward.write_delta(address, value)
    for address, value in reversed(deltas):
        backward.write_delta(address, value)
    original = forward.store(InMemoryBackend(), 0)
    reversed_frame = backward.store(InMemoryBackend(), 0)
    assert set(original.values) == set(reversed_frame.values)
    for address, value in original.values.items():
        assert value == pytest.approx(reversed_frame.values[address], rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
@example([-0.0, 0.0, 1e16, 9999999999999998.0, 1e-05, 5e-324, -3.0, 1e22])
def test_appended_values_read_as_format_number_gives_them(floats):
    values = dict(enumerate(floats, 1))
    with tempfile.TemporaryDirectory() as run_dir:
        backend = FileBackend(run_dir)
        backend.append_frame(TraceFrame(values, {}, 0))
        rows = (Path(run_dir) / "frames.csv").read_text().splitlines()[1:]
        assert rows == [f"1,{a},{format_number(v)}" for a, v in values.items()]
        loaded = FileBackend(run_dir).load_frame(1).values
    assert loaded == values
    # ``==`` does not tell -0.0 from 0.0.
    assert [math.copysign(1.0, v) for v in loaded.values()] == [
        math.copysign(1.0, v) for v in values.values()
    ]


# -- crash states --------------------------------------------------------
#
# A run directory is written by a sequence of steps: the three headers, in
# file order, then each tick's rows of frames.csv, animats.csv and rng.csv.
# Creating a file is a step, and so is writing each byte.  A crash may stop
# the sequence after any step, and reopening, resuming and stepping must
# then write the same files as the run that never stopped.


def age_engine(backend) -> Engine:
    model = parse_model((MODELS / "age.rmd").read_text())
    return Engine(model, parse_config((MODELS / "age.cfg").read_text()), backend)


@functools.cache
def age_writes() -> tuple[dict[str, bytes], tuple[tuple[str, bytes], ...]]:
    """The trace files of the whole ``age`` run, and the writes that made
    them, in order."""
    with tempfile.TemporaryDirectory() as run_dir:
        age_engine(FileBackend(run_dir)).run()
        files = {name: (Path(run_dir) / name).read_bytes() for name in TRACE_FILES}
    chunks = {name: {} for name in TRACE_FILES}
    for name, data in files.items():
        header, *rows = data.splitlines(keepends=True)
        chunks[name][0] = header
        for row in rows:
            tick = int(row.split(b",")[0])
            chunks[name][tick] = chunks[name].get(tick, b"") + row
    ticks = range(len(files["rng.csv"].splitlines()))  # the header, then 1..n
    return files, tuple((name, chunks[name].get(t, b"")) for t in ticks for name in TRACE_FILES)


def write_until(run: Path, writes, steps: int) -> None:
    """Carry out ``writes`` in ``run`` and stop after ``steps`` steps."""
    run.mkdir(exist_ok=True)
    for name, chunk in writes:
        path = run / name
        if not path.exists():
            if steps == 0:
                return
            path.touch()
            steps -= 1
        with open(path, "ab") as handle:
            handle.write(chunk[:steps])
        steps -= min(steps, len(chunk))
        if steps == 0:
            return


def files_in(run: Path) -> dict[str, bytes] | None:
    return {path.name: path.read_bytes() for path in run.iterdir()} if run.exists() else None


def read_all(run: Path) -> FileBackend:
    """Open ``run`` and read every committed frame and animat row, which
    writes nothing; returns the backend."""
    before = files_in(run)
    backend = FileBackend(run)
    for tick in range(1, backend.frame_count() + 1):
        backend.load_frame(tick)
    with pytest.raises(ValueError, match=f"no frame {backend.frame_count() + 1} "):
        backend.load_frame(backend.frame_count() + 1)
    assert {tick for tick, *_ in backend.animat_rows()} <= set(range(1, backend.frame_count() + 1))
    assert files_in(run) == before
    return backend


def recover(run: Path) -> dict[str, bytes]:
    """Reopen ``run``, go on from its last committed tick to the end of the
    ``age`` run, and return its files."""
    backend = read_all(run)
    engine = age_engine(backend)
    if backend.frame_count():
        engine.resume(backend.frame_count())
    else:
        engine.setup()
    while backend.frame_count() <= engine.config.steps:
        engine.step()
    return {name: (run / name).read_bytes() for name in TRACE_FILES}


def steps_of(writes) -> int:
    return len(TRACE_FILES) + sum(len(chunk) for _, chunk in writes)


@settings(deadline=None)
@given(st.data())
def test_a_run_stopped_after_any_write_step_recovers_byte_for_byte(data):
    """Sampled over the whole run, and over the last tick's append apart."""
    files, writes = age_writes()
    total, last = steps_of(writes), sum(len(chunk) for _, chunk in writes[-3:])
    steps = data.draw(st.integers(total - last, total) | st.integers(0, total), label="steps")
    with tempfile.TemporaryDirectory() as run_dir:
        write_until(Path(run_dir) / "run", writes, steps)
        assert recover(Path(run_dir) / "run") == files


def test_a_run_stopped_in_its_headers_starts_afresh(tmp_path):
    """Every state the header writes pass through: a file missing, empty
    or torn, the rng.csv header among them; each then holds no frame."""
    files, writes = age_writes()
    assert read_all(tmp_path / "absent").frame_count() == 0
    for steps in range(steps_of(writes[:3]) + 1):
        run = tmp_path / str(steps)
        write_until(run, writes[:3], steps)
        assert read_all(run).frame_count() == 0
        assert recover(run) == files, f"stopped after {steps} steps"


@pytest.mark.parametrize("torn", [b"", b"tick,st", b"tick,state_hex"])
def test_reopening_a_run_with_a_torn_rng_header_rewrites_the_headers(tmp_path, torn):
    """A torn rng.csv header used to count as the header: the appends went
    below none, and frame 1 could not be loaded.  Reading such a run
    writes nothing; the first append writes the headers."""
    files, _ = age_writes()
    FileBackend(tmp_path).append_frame(TraceFrame({}, {}, 0))
    (tmp_path / "rng.csv").write_bytes(torn)
    assert read_all(tmp_path).frame_count() == 0
    backend, in_memory = FileBackend(tmp_path), InMemoryBackend()
    age_engine(backend).run()
    age_engine(in_memory).run()
    assert [backend.load_frame(tick) for tick in range(1, 6)] == in_memory.frames
    assert {name: (tmp_path / name).read_bytes() for name in TRACE_FILES} == files


@pytest.mark.parametrize("name", TRACE_FILES)
def test_reopen_refuses_a_file_without_its_header(tmp_path, name):
    """A damaged copy, not a crash, can hold a torn header in front of
    whole rows; a load, and the cut before an append, refuse it rather
    than read a wrong frame, and write nothing."""
    TestFileBackend().fill(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes()[len("tick,"):])
    before = TestFileBackend.contents(tmp_path)
    reopened = FileBackend(tmp_path)
    assert reopened.frame_count() == 2
    with pytest.raises(ValueError, match=f"{name} does not start with 'tick,"):
        reopened.load_frame(1)
    with pytest.raises(ValueError, match="does not start with"):
        reopened.append_frame(TraceFrame({}, {}, 3))
    assert TestFileBackend.contents(tmp_path) == before
