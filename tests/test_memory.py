"""Memory image semantics and trace storage."""
import errno
import functools
import io
import math
import os
import tempfile
from collections import Counter
from itertools import chain, islice
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
        assert not image.killed
        # A block killed twice in a tick is one death: ``killed`` is what a
        # spawn's count of the live blocks subtracts.
        image.kill(base)
        image.kill(base)
        assert len(image.killed) == 1

    def test_store_requires_backend_in_step(self):
        image, _ = image_with_block()
        backend = InMemoryBackend()
        backend.append_frame(TraceFrame({1: 1.0}, {1: ("Egg", 1)}, 0))  # not the image's
        with pytest.raises(ValueError, match=r"^image at tick 0 cannot append frame 2$"):
            image.store(backend, 0)
        assert backend.frame_count() == 1


class TestApplyAndLoad:
    def test_round_trip(self):
        backend = InMemoryBackend()
        image, base = image_with_block()
        image.write(base, 1.5)
        frame = image.store(backend, 11)
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
            image.store(backend, tick * 100)
        fresh = MemoryImage()
        assert fresh.load(backend, 2) == 200
        assert fresh.read(base) == 2.0
        assert fresh.animats == image.animats

    def test_allocation_continues_after_load(self):
        backend = InMemoryBackend()
        image, _ = image_with_block()
        image.store(backend, 0)
        fresh = MemoryImage()
        fresh.load(backend, 1)
        assert fresh.allocate("Egg", 3) == 4
        assert fresh.animats[4] == ("Egg", 2)

    def test_kill_works_after_load(self):
        backend = InMemoryBackend()
        image = MemoryImage()
        egg = image.allocate("Egg", 2)
        adult = image.allocate("Adult", 2)
        image.store(backend, 0)
        fresh = MemoryImage()
        fresh.load(backend, 1)
        fresh.kill(egg)
        frame = fresh.store(backend, 0)
        assert set(frame.values) == {adult, adult + 1}

    def test_load_drops_the_kills_pending_since_the_last_commit(self):
        backend = InMemoryBackend()
        image = MemoryImage()
        egg = image.allocate("Egg", 2)
        adult = image.allocate("Adult", 2)
        image.store(backend, 0)
        image.kill(egg)
        image.load(backend, 1)
        frame = image.store(backend, 0)
        assert frame.animats == {egg: ("Egg", 1), adult: ("Adult", 1)}
        assert set(frame.values) == {egg, egg + 1, adult, adult + 1}

    def test_load_sorts_the_performers_of_a_frame_out_of_order(self):
        """Only ``FileBackend``'s reader refuses bases out of order: a frame
        from any other backend loads with each kind's performers ascending."""
        backend = InMemoryBackend()
        backend.append_frame(TraceFrame(
            {1: 0.0, 2: 0.0, 3: 0.0}, {3: ("Egg", 2), 1: ("Egg", 1), 2: ("Adult", 1)}, 0))
        image = MemoryImage()
        image.load(backend, 1)
        assert image.performers == {"Egg": [1, 3], "Adult": [2]}

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
        image.store(backend, 0xE220A8397B1DCDAF)
        image.write(base, 86400.0)
        image.store(backend, 0x1B39896A51A8749B)
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
        image.store(reopened, 3)
        assert reopened.load_frame(3).values[base] == 7.0

    def test_matches_in_memory_backend(self, tmp_path):
        _, image, base = self.fill(tmp_path)
        memory_backend = InMemoryBackend()
        replay = MemoryImage()
        replay.allocate("Egg", 3)
        replay.write(base, 2.5)
        replay.write_delta(base + 1, 0.5)
        replay.store(memory_backend, 0xE220A8397B1DCDAF)
        replay.write(base, 86400.0)
        replay.store(memory_backend, 0x1B39896A51A8749B)
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
        image.store(FileBackend(clean), 3)

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
        image.store(reopened, 3)
        assert reopened.load_frame(3).values == {base: 7.0, base + 1: 0.5, base + 2: 0.0}
        assert reopened.load_frame(3).animats == {base: ("Egg", 1)}
        assert self.contents(crashed) == self.contents(clean)

    @pytest.mark.parametrize("name", TRACE_FILES)
    # The last is longer than the 64 bytes ``_last_tick`` reads first;
    # "2,5" reads as a row of the last committed tick.
    @pytest.mark.parametrize("torn", ["3,1,8", "1", "3," + "8" * 80, "2,5"])
    def test_torn_last_line_is_ignored_then_cut(self, tmp_path, name, torn):
        clean = tmp_path / "clean"
        _, image, base = self.fill(clean)
        image.write(base, 7.0)
        image.store(FileBackend(clean), 3)

        run = tmp_path / "torn"
        backend, image, base = self.fill(run)
        expected = [backend.load_frame(tick) for tick in (1, 2)]
        with open(run / name, "a") as handle:
            handle.write(torn)
        reopened = FileBackend(run)
        assert reopened.frame_count() == 2
        assert [reopened.load_frame(tick) for tick in (1, 2)] == expected
        image.write(base, 7.0)
        image.store(reopened, 3)
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

    # The tick whose append fails -> the blocks of each stage that leave at
    # it: none, 20 hatched Eggs, and the first starved Adults.
    FAILED_TICKS = {5: {}, 12: {"Egg": 20}, 41: {"Egg": 4, "Adult": 3}}

    @pytest.mark.parametrize("tick, gone", FAILED_TICKS.items(), ids=[str(tick) for tick in FAILED_TICKS])
    def test_failed_append_then_retry_matches_an_uninterrupted_run(self, tmp_path, monkeypatch, tick, gone):
        """``store`` drops the killed blocks from the image before the
        append; after the append fails, a ``resume`` from the last stored
        frame goes on as if nothing had failed."""
        def eggs(run_dir):
            model = parse_model((MODELS / "eggs.rmd").read_text())
            config = parse_config((MODELS / "eggs.cfg").read_text())
            engine = Engine(model, config, FileBackend(run_dir))
            engine.setup()
            return engine

        clean = eggs(tmp_path / "clean")
        for _ in range(tick):
            clean.step()
        before, after = (clean.backend.load_frame(t).animats for t in (tick - 1, tick))
        assert Counter(before[base][0] for base in before.keys() - after.keys()) == gone

        engine = eggs(tmp_path / "failed")
        for _ in range(tick - 2):
            engine.step()
        real_open = open

        def disk_full_for_animats(path, *args, **kwargs):
            if Path(path).name == "animats.csv":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, *args, **kwargs)

        # The tick's frames.csv rows are written, its animats.csv rows fail.
        monkeypatch.setattr(memory, "open", disk_full_for_animats, raising=False)
        with pytest.raises(OSError):
            engine.step()
        monkeypatch.undo()
        assert engine.backend.frame_count() == tick - 1
        # What the ``MemoryImage`` docstring says to do after a failed append.
        engine.resume(tick - 1)
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


@pytest.mark.parametrize("chunk_bytes", [1, 64, memory._CHUNK_BYTES])
def test_load_frame_chunks_match_full_scan(tmp_path, monkeypatch, chunk_bytes):
    """Frames cut at every chunk edge, empty ones and ticks whose digits
    lead later ticks (1 and 10-19) among them."""
    monkeypatch.setattr(memory, "_CHUNK_BYTES", chunk_bytes)
    disk, in_memory = FileBackend(tmp_path), InMemoryBackend()
    for tick in range(1, 121):
        disk.append_frame(synthetic_frame(tick))
        in_memory.append_frame(synthetic_frame(tick))
    reopened = FileBackend(tmp_path)
    for tick in range(1, 121):
        frame = reopened.load_frame(tick)
        assert frame == scan_frame(tmp_path, tick) == in_memory.load_frame(tick)
        assert list(frame.values) == list(in_memory.load_frame(tick).values)
    assert reopened.load_frame(10).values == reopened.load_frame(100).values == {}


BIG_ROWS = 20_000


def big_frame(tick: int) -> TraceFrame:
    values = {address: tick + address / 8 for address in range(1, BIG_ROWS + 1)}
    return TraceFrame(values, {a: ("Adult", a) for a in range(1, BIG_ROWS + 1)}, tick)


def test_a_frame_several_chunks_long_loads_in_file_order_a_chunk_at_a_time(tmp_path, monkeypatch):
    """A load's memory is bounded by its chunk, not by its frame: no
    single read asks for more than ``_CHUNK_BYTES``."""
    backend = FileBackend(tmp_path)
    for tick in (1, 2, 3):
        backend.append_frame(big_frame(tick))
    assert (tmp_path / "frames.csv").stat().st_size > 3 * 4 * memory._CHUNK_BYTES
    sizes = []

    class Recording(io.BufferedReader):
        def read(self, size=-1):
            sizes.append(math.inf if size is None or size < 0 else size)
            return super().read(size)

    def recording_open(path, mode="r"):
        assert mode == "rb", f"opened {path} with mode {mode!r}"
        return Recording(io.FileIO(path, "r"))

    monkeypatch.setattr(memory, "open", recording_open, raising=False)
    reopened = FileBackend(tmp_path)
    for tick in (1, 2, 3):
        frame = reopened.load_frame(tick)
        assert frame == big_frame(tick)
        assert list(frame.values) == list(big_frame(tick).values)
        assert list(frame.animats) == list(big_frame(tick).animats)
    assert 0 < max(sizes) <= memory._CHUNK_BYTES


@pytest.mark.parametrize(
    "name, row, fields, width",
    [
        ("frames.csv", "2,99", 2, 3),
        ("animats.csv", "2,7,Adult", 3, 4),
        ("rng.csv", "2,00,1", 3, 2),
        # A short row and a long one: as many fields as two good rows.
        ("frames.csv", "2,99\n2,7,5,1", 2, 3),
    ],
)
def test_a_row_of_the_wrong_width_is_refused(tmp_path, name, row, fields, width):
    """A short row would shift every later column; the load refuses it,
    naming the file and the tick, and the other ticks still load."""
    in_memory = InMemoryBackend()
    age_engine(in_memory).run()
    age_engine(FileBackend(tmp_path)).run()
    lines = (tmp_path / name).read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("2,")) + 1
    (tmp_path / name).write_text("".join(lines[:at] + [row + "\n"] + lines[at:]))
    reopened = FileBackend(tmp_path)
    with pytest.raises(ValueError) as refused:
        reopened.load_frame(2)
    assert str(refused.value) == f"{name}: tick 2 has a row of {fields} fields, not {width}"
    assert [reopened.load_frame(tick) for tick in (1, 3, 4, 5)] == [
        in_memory.load_frame(tick) for tick in (1, 3, 4, 5)
    ]


@pytest.mark.parametrize(
    "name, column, field, what",
    [
        ("frames.csv", 1, "x", "an integer"),
        ("frames.csv", 2, "abc", "a finite number"),
        ("frames.csv", 2, "1e999", "a finite number"),
        ("frames.csv", 2, "-inf", "a finite number"),
        ("frames.csv", 2, "nan", "a finite number"),
        ("animats.csv", 1, "1.5", "an integer"),
        ("animats.csv", 3, "x", "an integer"),
        ("rng.csv", 1, "zzzzzzzzzzzzzzzz", "a state of 16 hex digits"),
        ("rng.csv", 1, "abc", "a state of 16 hex digits"),
        ("rng.csv", 1, "-000000000000001", "a state of 16 hex digits"),
        ("rng.csv", 1, "0x3c6ef372fe94f8", "a state of 16 hex digits"),
        ("rng.csv", 1, "+3c6ef372fe94f8a", "a state of 16 hex digits"),
        ("rng.csv", 1, "3c6e_f372fe94f82", "a state of 16 hex digits"),
    ],
)
def test_a_field_its_column_cannot_hold_is_refused(tmp_path, name, column, field, what):
    """A field of the right width that is not a number, or a value that is
    not finite, which no frame holds: the load refuses it, naming the file,
    the tick and the field, and the other ticks still load."""
    in_memory = InMemoryBackend()
    age_engine(in_memory).run()
    age_engine(FileBackend(tmp_path)).run()
    lines = (tmp_path / name).read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("2,"))
    fields = lines[at][:-1].split(",")
    fields[column] = field
    lines[at] = ",".join(fields) + "\n"
    (tmp_path / name).write_text("".join(lines))
    reopened = FileBackend(tmp_path)
    with pytest.raises(ValueError) as refused:
        reopened.load_frame(2)
    assert str(refused.value) == f"{name}: tick 2 has a field {field!r} that is not {what}"
    assert [reopened.load_frame(tick) for tick in (1, 3, 4, 5)] == [
        in_memory.load_frame(tick) for tick in (1, 3, 4, 5)
    ]


def test_finite_values_whose_sum_is_not_finite_load(tmp_path):
    """The load sums a frame's values to check them all at once; a sum that
    overflows sends it through them one by one, and they load."""
    frame = TraceFrame({1: 1e308, 2: 1e308, 3: -1e308, 4: -1e308}, {1: ("S", 1), 3: ("S", 2)}, 5)
    FileBackend(tmp_path).append_frame(frame)
    assert FileBackend(tmp_path).load_frame(1) == frame


def test_canonical_frames_go_on_past_a_tick_whose_values_are_read_twice(tmp_path):
    """The walk, too, reads a tick whose finite values sum past the largest
    float a second time, from its first row, then goes on to the next."""
    frames = [TraceFrame({1: 1e308, 2: 1e308, 3: -1e308, 4: -1e308}, {1: ("S", 1), 3: ("S", 2)}, 5),
              TraceFrame({1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}, {1: ("S", 1), 3: ("S", 2)}, 6)]
    backend = FileBackend(tmp_path)
    for frame in frames:
        backend.append_frame(frame)
    assert list(FileBackend(tmp_path).canonical_frames()) == frames


@pytest.mark.parametrize("name", ["frames.csv", "animats.csv", "rng.csv"])
def test_a_tick_that_is_not_an_integer_is_refused(tmp_path, name):
    """Loads whose search reads the row refuse it, naming the file, as does
    opening a directory whose last rng.csv row it is."""
    age_engine(FileBackend(tmp_path)).run()
    path = tmp_path / name
    path.write_text(path.read_text().replace("\n3,", "\n3x,", 1))
    text = f"^{name}: a row has a tick '3x' that is not an integer$"
    with pytest.raises(ValueError, match=text):
        FileBackend(tmp_path).load_frame(4)
    rng = tmp_path / "rng.csv"
    rng.write_text(rng.read_text().replace("\n5,", "\nx,"))
    with pytest.raises(ValueError, match="^rng.csv: a row has a tick 'x' that is not an integer$"):
        FileBackend(tmp_path)


def test_a_last_row_of_one_field_is_refused(tmp_path):
    age_engine(FileBackend(tmp_path)).run()
    path = tmp_path / "rng.csv"
    path.write_text(path.read_text().replace("\n3,", "\n2\n3,", 1))
    with pytest.raises(ValueError, match="^rng.csv: tick 2 has a row of 1 fields, not 2$"):
        FileBackend(tmp_path).load_frame(2)


def walked(backend: FileBackend, name: str):
    """A load of a tick's part of the frame from ``name`` alone, by
    ``walk`` from tick 1 to it, as ``chart`` reads ``animats.csv``."""
    return lambda tick: list(islice(backend.walk(name), tick))[-1][0]


# The cases where ``walk``, reading forward from tick 1, refuses at tick 1,
# with this text: a row of tick 1 among tick 2's makes tick 2's first row
# one of tick 1's.
WALKED = {("2,2,", "1"): "tick 1 has a row whose tick is '2'",
          ("2,3,", "1"): "tick 1 has a row whose tick is '2'"}


@pytest.mark.parametrize("name", ["frames.csv", "animats.csv"])
@pytest.mark.parametrize("row, tick, text", [
    ("2,1,", "3", "tick 2 has a row whose tick is '3'"),
    ("2,2,", "x", "a row has a tick 'x' that is not an integer"),
    ("2,2,", "3", "tick 2 has a row whose tick is '3'"),
    ("2,2,", "1", "tick 2 has a row whose tick is '1'"),
    ("2,3,", "x", "a row has a tick 'x' that is not an integer"),
    ("2,3,", "1", "tick 2 has a row whose tick is '1'"),
])
def test_a_row_of_another_tick_among_a_ticks_rows_is_refused(tmp_path, name, row, tick, text):
    """Every row a load reads carries the tick it loads, the rows between
    its first and last ones too, and the row after its last one carries a
    later tick; a row that does not is refused, naming the file and the
    tick, by ``load_frame`` and, as ``WALKED`` says, by ``walk``.  ``row``
    is the first, the middle or the last of tick 2's three rows."""
    backend = FileBackend(tmp_path)
    for t in range(1, 4):
        backend.append_frame(TraceFrame({1: t, 2: 0.5, 3: 2.0}, {1: ("S", 1), 2: ("S", 2), 3: ("T", 1)}, t))
    path = tmp_path / name
    path.write_text(path.read_text().replace(f"\n{row}", f"\n{tick}{row[1:]}"))
    reopened = FileBackend(tmp_path)
    with pytest.raises(ValueError, match=f"^{name}: {text}$"):
        reopened.load_frame(2)
    if name == "animats.csv":
        with pytest.raises(ValueError, match=f"^{name}: {WALKED.get((row, tick), text)}$"):
            walked(reopened, name)(2)


@pytest.mark.parametrize("name, key", [("frames.csv", "address"), ("animats.csv", "base")])
@pytest.mark.parametrize("at, to, twice", [(0, 1, 1), (1, 2, 2), (2, 1, 1)])
def test_a_second_row_of_one_address_or_base_is_refused(tmp_path, name, key, at, to, twice):
    """A tick's rows hold each address of ``frames.csv``, and each base of
    ``animats.csv``, once: with row ``at`` of tick 2's three written again
    as the address (or base) ``to``, ``load_frame`` and ``walk`` refuse
    tick 2, naming the file, the tick and the key on two rows, and
    the ticks around it still load."""
    backend = FileBackend(tmp_path)
    for t in range(1, 4):
        backend.append_frame(TraceFrame({1: t, 2: 0.5, 3: 2.0}, {1: ("S", 1), 2: ("S", 2), 3: ("T", 1)}, t))
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    row = lines.index(next(line for line in lines if line.startswith("2,"))) + at
    again = lines[row].split(",")
    again[1] = str(to)
    lines.insert(row + 1, ",".join(again))
    path.write_text("".join(lines))
    reopened = FileBackend(tmp_path)
    loads = [reopened.load_frame] + [walked(reopened, name)] * (name == "animats.csv")
    for load in loads:
        with pytest.raises(ValueError, match=f"^{name}: tick 2 has two rows of {key} {twice}$"):
            load(2)
    assert [reopened.load_frame(t) for t in (1, 3)] == [backend.load_frame(t) for t in (1, 3)]


@pytest.mark.parametrize("name, key", [("frames.csv", "address"), ("animats.csv", "base")])
@pytest.mark.parametrize("first, second, after, late", [(0, 1, 2, 1), (1, 2, 3, 2), (0, 2, 3, 2)])
def test_rows_out_of_order_are_refused(tmp_path, name, key, first, second, after, late):
    """The writer writes a tick's rows by increasing address (or base):
    with rows ``first`` and ``second`` of tick 2's three swapped,
    ``load_frame`` and ``walk`` refuse tick 2, naming the file, the
    tick, the first key that comes ``late`` and the one it comes after;
    the ticks around it still load."""
    backend = FileBackend(tmp_path)
    for t in range(1, 4):
        backend.append_frame(TraceFrame({1: t, 2: 0.5, 3: 2.0}, {1: ("S", 1), 2: ("S", 2), 3: ("T", 1)}, t))
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    start = lines.index(next(line for line in lines if line.startswith("2,")))
    lines[start + first], lines[start + second] = lines[start + second], lines[start + first]
    path.write_text("".join(lines))
    reopened = FileBackend(tmp_path)
    loads = [reopened.load_frame] + [walked(reopened, name)] * (name == "animats.csv")
    for load in loads:
        with pytest.raises(ValueError) as refused:
            load(2)
        assert str(refused.value) == f"{name}: tick 2 has a row of {key} {late} after one of {key} {after}"
    assert [reopened.load_frame(t) for t in (1, 3)] == [backend.load_frame(t) for t in (1, 3)]


@pytest.mark.parametrize("tick", [0, -5])
def test_a_last_rng_row_whose_tick_is_not_positive_is_refused(tmp_path, tick):
    """Counted as frames, such a tick would have the next append rewrite
    the headers over every committed row; opening refuses it and writes
    nothing."""
    age_engine(FileBackend(tmp_path)).run()
    rng = tmp_path / "rng.csv"
    rng.write_text(rng.read_text().replace("\n5,", f"\n{tick},"))
    before = files_in(tmp_path)
    with pytest.raises(ValueError, match=f"^rng.csv: the last row has a tick {tick} that is not positive$"):
        FileBackend(tmp_path)
    assert files_in(tmp_path) == before


# A row of tick 3 of the ``age`` run as written, and spelled otherwise:
# each loads as the row written does.
NON_CANONICAL = [
    ("frames.csv", "3,3,172800", "3,3,1728e2"),
    ("animats.csv", "3,1,Adult,1", "3,01,Adult,1"),
    ("frames.csv", "3,3,172800", "3,3,1_72800"),
    ("frames.csv", "3,3,172800", "3,3, 172800.000"),
    ("frames.csv", "3,3,172800", "3,+3,172800"),
]


@pytest.mark.parametrize("name, row, spelled", NON_CANONICAL)
def test_canonical_frames_checks_each_tick_byte_for_byte(tmp_path, name, row, spelled):
    """``canonical_frames`` gives every frame of a run, as ``load_frame``
    loads it and as it was kept in memory.  The rows of a tick spelled
    otherwise than as the writer writes them load as before, but it refuses
    them once it has given the ticks before, naming the file and the tick,
    as it refuses rows before tick 1's, which no load reads.  A directory
    without a frame needs no trace file."""
    kept = InMemoryBackend()
    age_engine(kept).run()
    age_engine(FileBackend(tmp_path)).run()
    backend = FileBackend(tmp_path)
    loaded = [backend.load_frame(tick) for tick in range(1, 6)]
    assert loaded == kept.frames == list(backend.canonical_frames())
    path = tmp_path / name
    text = path.read_text()
    assert f"\n{row}\n" in text
    path.write_text(text.replace(f"\n{row}\n", f"\n{spelled}\n"))
    assert [backend.load_frame(tick) for tick in range(1, 6)] == loaded
    checked = backend.canonical_frames()
    assert [next(checked), next(checked)] == loaded[:2]
    with pytest.raises(ValueError) as refused:
        next(checked)
    assert str(refused.value) == f"{name}: tick 3 is not in its canonical form"
    header = memory._HEADERS[name].decode()
    path.write_text(text.replace(header, f"{header}0,{row[2:]}\n"))
    assert [backend.load_frame(tick) for tick in range(1, 6)] == loaded
    with pytest.raises(ValueError, match=f"^{name}: tick 1 is not in its canonical form$"):
        list(backend.canonical_frames())
    path.write_text(text.replace(",", ";", 1))
    with pytest.raises(ValueError, match=f" does not start with {header[:-1]!r}$"):
        list(backend.canonical_frames())
    empty = FileBackend(tmp_path / "empty")
    assert list(empty.canonical_frames()) == list(empty.walk(name)) == []
    assert not (tmp_path / "empty").exists()


def test_a_tick_without_its_rng_row_is_missing(tmp_path):
    """The rng.csv row commits a tick: a middle tick that lost it does not
    load, and the ticks around it still do."""
    age_engine(FileBackend(tmp_path)).run()
    path = tmp_path / "rng.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("3,")))
    reopened = FileBackend(tmp_path)
    with pytest.raises(ValueError) as refused:
        reopened.load_frame(3)
    assert str(refused.value) == "frame 3 missing from rng.csv"
    assert [reopened.load_frame(tick).rng_state for tick in (2, 4)] == [
        memory.parse_state(line.partition(",")[2].strip())
        for line in lines if line.startswith(("2,", "4,"))
    ]


@pytest.mark.parametrize("state", ["3c6ef372fe94f82b", "0000000000000000"])
def test_a_second_rng_row_of_a_tick_is_refused(tmp_path, state):
    """A tick has one RNG state: a second ``rng.csv`` row of a middle tick,
    the same state again or another, is refused, and the ticks around it
    still load."""
    age_engine(FileBackend(tmp_path)).run()
    path = tmp_path / "rng.csv"
    text = path.read_text()
    assert "\n3,3c6ef372fe94f82b\n" in text
    path.write_text(text.replace("\n4,", f"\n3,{state}\n4,"))
    reopened = FileBackend(tmp_path)
    with pytest.raises(ValueError) as refused:
        reopened.load_frame(3)
    assert str(refused.value) == "rng.csv: tick 3 has a second row"
    assert [reopened.load_frame(tick).rng_state for tick in (2, 4)] == [0x3C6EF372FE94F82B] * 2


@pytest.mark.parametrize("name, width", [("frames.csv", 3), ("animats.csv", 4), ("rng.csv", 2)])
def test_a_row_of_one_field_is_refused_by_every_read_that_meets_it(tmp_path, name, width):
    """Loads of later ticks, whose search reads the row on the way, and the
    cut before an append refuse it with the text the load of its own tick
    gives, as does opening a directory whose last rng.csv row it is."""
    age_engine(FileBackend(tmp_path)).run()
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("2,")) + 1
    path.write_text("".join(lines[:at] + ["2\n"] + lines[at:]))
    text = f"^{name}: tick 2 has a row of 1 fields, not {width}$"
    reopened = FileBackend(tmp_path)
    for tick in (2, 3, 5):
        with pytest.raises(ValueError, match=text):
            reopened.load_frame(tick)
    with pytest.raises(ValueError, match=text):
        reopened.append_frame(TraceFrame({}, {}, 0))
    rng = tmp_path / "rng.csv"
    rng.write_text(rng.read_text() + "6\n")
    with pytest.raises(ValueError, match="^rng.csv: tick 6 has a row of 1 fields, not 2$"):
        FileBackend(tmp_path)


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


PAIRS = st.lists(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2), max_size=3)
WRITES = st.lists(
    st.tuples(
        st.booleans(),  # an assignment, else an increment
        st.integers(0, 11),  # picks the address
        st.floats(-1e308, 1e308) | st.sampled_from([math.inf, -math.inf, math.nan, 1.5e308]),
    ),
    max_size=30,
)


@settings(report_multiple_bugs=False)
@given(PAIRS, PAIRS.filter(bool), WRITES)
@example([[1.0, 2.0]], [[-0.0, 5.0]], [(False, 2, 1e308), (False, 2, 1e308), (False, 2, 1.0)] * 2)
def test_writes_to_new_and_committed_blocks_commit_base_plus_deltas(committed, new, writes):
    """After a commit, ``allocate`` enters new blocks in ``next`` and adds
    nothing to ``assigned`` or ``delta``.  Then every ``write`` and
    ``write_delta``, on new or committed slots, leaves in ``next`` what the
    documented rule commits: the base plus the sum of the deltas, where the
    base is the last assignment, else the committed value, else the initial
    one.  A write that would commit an infinity or a NaN raises and changes
    nothing, a first increment of a new slot included."""
    image, backend = MemoryImage(), InMemoryBackend()
    if committed:
        image.allocate("Old", 2, committed)
    image.store(backend, 0)
    first = image.allocate("New", 2, new)
    assert (image.assigned, image.delta) == ({}, {})
    initial = {**image.vals, **dict(zip(range(first, image.next_free), chain.from_iterable(new)))}
    assert image.next == initial
    addresses = sorted(initial)
    bases, sums = {}, {}
    for assignment, pick, value in writes:
        address = addresses[pick % len(addresses)]
        if assignment:
            base, total = value + 0.0, sums.get(address)
        else:
            base = bases.get(address, initial[address])
            total = value + sums[address] if address in sums else value
        expected = base if total is None else base + total
        write = image.write if assignment else image.write_delta
        if not -math.inf < expected < math.inf:
            pending = (dict(image.next), dict(image.assigned), dict(image.delta))
            with pytest.raises(ValueError):
                write(address, value)
            assert (image.next, image.assigned, image.delta) == pending
            continue
        write(address, value)
        if assignment:
            bases[address] = base
        else:
            sums[address] = total
        assert image.next[address] == expected
    frame = image.store(backend, 0)
    assert frame.values == {
        address: bases.get(address, initial[address]) + sums.get(address, 0.0)
        for address in addresses
    }


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
    """Open ``run`` and read every committed frame, and walk its animats
    alone, which writes nothing; returns the backend."""
    before = files_in(run)
    backend = FileBackend(run)
    frames = [backend.load_frame(tick) for tick in range(1, backend.frame_count() + 1)]
    assert [animats for animats, _ in backend.walk("animats.csv")] == [f.animats for f in frames]
    with pytest.raises(ValueError, match=f"no frame {backend.frame_count() + 1} "):
        backend.load_frame(backend.frame_count() + 1)
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
