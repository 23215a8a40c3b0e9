"""Simulation memory: flat float store, synchronous commit, full trace.

Reads see the last committed frame while writes accumulate in pending
stores (``next`` for assignments, ``delta`` for increments), so update
order inside a tick cannot leak into results.  ``store`` folds pending
state into a frame and appends it to a backend; ``load`` rebuilds the
image from any stored frame, which is all replay needs.

On disk a frame is committed once its ``rng.csv`` row is complete, and
that row is written last.  Every trace file keeps its rows sorted by
tick, so loading a frame is a binary search over byte offsets: it reads
O(log n) lines plus the frame's own rows, and never rows past the last
committed tick or a torn last line.
"""
from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from .parser import format_number
from .rng import format_state, parse_state


class AddressError(Exception):
    """Access to an address outside the allocated domain."""


@dataclass(frozen=True)
class TraceFrame:
    """Committed state after one tick (tick 1 is the initial state)."""

    values: dict[int, float]
    animats: dict[int, tuple[str, int]]
    rng_state: int


class StorageBackend(abc.ABC):
    @abc.abstractmethod
    def append_frame(self, frame: TraceFrame) -> None: ...

    @abc.abstractmethod
    def load_frame(self, tick: int) -> TraceFrame: ...

    @abc.abstractmethod
    def frame_count(self) -> int: ...


class InMemoryBackend(StorageBackend):
    def __init__(self):
        self.frames: list[TraceFrame] = []

    def append_frame(self, frame: TraceFrame) -> None:
        self.frames.append(
            TraceFrame(dict(frame.values), dict(frame.animats), frame.rng_state)
        )

    def load_frame(self, tick: int) -> TraceFrame:
        if not 1 <= tick <= len(self.frames):
            raise ValueError(f"no frame {tick} (have {len(self.frames)})")
        return self.frames[tick - 1]

    def frame_count(self) -> int:
        return len(self.frames)


# Below this many bytes the search reads forward instead of halving.
_SCAN_BYTES = 4096


def _tick(line: bytes) -> int:
    return int(line[: line.index(b",")])


def _first_row_at(handle: BinaryIO, tick: int) -> int:
    """Offset of the first row of ``tick`` or a later tick, or of a torn
    last line (one without a newline), or else of the end of the file.

    ``handle`` is a trace CSV opened in binary mode: one header line, then
    rows sorted by tick.  Binary search over byte offsets: seek to the
    middle, skip the partial line, compare the tick of the next line;
    then read forward over at most ``_SCAN_BYTES``.
    """
    handle.seek(0)
    lo = len(handle.readline())
    hi = handle.seek(0, os.SEEK_END)
    # Rows that start before lo are earlier than tick; complete rows that
    # start at hi or after are not.
    while hi - lo > _SCAN_BYTES:
        mid = (lo + hi) // 2
        handle.seek(mid - 1)
        start = mid - 1 + len(handle.readline())
        line = handle.readline()
        if start < hi and line.endswith(b"\n") and _tick(line) < tick:
            lo = start + len(line)
        else:
            hi = mid
    handle.seek(lo)
    for line in handle:
        if not line.endswith(b"\n") or _tick(line) >= tick:
            break
        lo += len(line)
    return lo


def _rows(path: Path, tick: int, last: int | None = None) -> Iterator[list[bytes]]:
    """The complete rows of ticks ``tick`` to ``last`` (default: ``tick``
    alone) of one trace CSV, split at commas."""
    last = tick if last is None else last
    with open(path, "rb") as handle:
        handle.seek(_first_row_at(handle, tick))
        for line in handle:
            if not line.endswith(b"\n"):
                return
            row = line[:-1].split(b",")
            if int(row[0]) > last:
                return
            yield row


def _last_tick(path: Path) -> int:
    """The tick of the last complete row, or 0; reads from the end."""
    with open(path, "rb") as handle:
        end = handle.seek(0, os.SEEK_END)
        size = 64
        while True:
            start = max(0, end - size)
            handle.seek(start)
            tail = handle.read(end - start)
            stop = tail.rfind(b"\n")
            begin = tail.rfind(b"\n", 0, max(stop, 0)) + 1
            if begin > 0:
                return _tick(tail[begin:stop])
            if start == 0:
                return 0  # the header, at most
            size *= 4


class FileBackend(StorageBackend):
    """Three growing CSVs; every append hits the disk before returning,
    so an aborted run keeps all frames completed so far.

    ``frames.csv`` and ``animats.csv`` rows of a tick are written first,
    its ``rng.csv`` row last: that row is the commit record.  Reopening a
    run directory counts the committed frames from the last complete
    ``rng.csv`` row and reads nothing else.  Rows past the last committed
    tick, left by a crash mid-append, are never loaded, and the first
    append after reopening cuts them off.  A load reads O(log n) lines
    plus the frame's own rows; opening and loading write nothing.
    """

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self._values_path = self.run_dir / "frames.csv"
        self._animats_path = self.run_dir / "animats.csv"
        self._rng_path = self.run_dir / "rng.csv"
        self._reopened = self._rng_path.exists()
        if self._reopened:
            self._count = _last_tick(self._rng_path)
        else:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._write_header(self._values_path, "tick,address,value")
            self._write_header(self._animats_path, "tick,base_address,stage,index")
            self._write_header(self._rng_path, "tick,state_hex")
            self._count = 0

    @staticmethod
    def _write_header(path: Path, header: str) -> None:
        with open(path, "w") as handle:
            handle.write(header + "\n")
            handle.flush()

    def _cut_uncommitted(self) -> None:
        """Truncate every file at its first row past the committed tick."""
        for path in (self._values_path, self._animats_path, self._rng_path):
            with open(path, "r+b") as handle:
                end = _first_row_at(handle, self._count + 1)
                if end < handle.seek(0, os.SEEK_END):
                    handle.truncate(end)

    def append_frame(self, frame: TraceFrame) -> None:
        if self._reopened:
            self._cut_uncommitted()
            self._reopened = False
        tick = self._count + 1
        with open(self._values_path, "a") as handle:
            for address in sorted(frame.values):
                handle.write(f"{tick},{address},{format_number(frame.values[address])}\n")
            handle.flush()
        with open(self._animats_path, "a") as handle:
            for base in sorted(frame.animats):
                stage, index = frame.animats[base]
                handle.write(f"{tick},{base},{stage},{index}\n")
            handle.flush()
        with open(self._rng_path, "a") as handle:
            handle.write(f"{tick},{format_state(frame.rng_state)}\n")
            handle.flush()
        self._count = tick

    def load_frame(self, tick: int) -> TraceFrame:
        if not 1 <= tick <= self._count:
            raise ValueError(f"no frame {tick} (have {self._count})")
        values = {
            int(address): float(value)
            for _, address, value in _rows(self._values_path, tick)
        }
        animats = {
            int(base): (stage.decode(), int(index))
            for _, base, stage, index in _rows(self._animats_path, tick)
        }
        states = [state for _, state in _rows(self._rng_path, tick)]
        if not states:
            raise ValueError(f"frame {tick} missing from rng.csv")
        return TraceFrame(values, animats, parse_state(states[0].decode()))

    def animat_rows(self) -> Iterator[tuple[int, int, str, int]]:
        """``(tick, base, stage, index)`` for every animat of every
        committed frame, in file order."""
        for tick, base, stage, index in _rows(self._animats_path, 1, self._count):
            yield int(tick), int(base), stage.decode(), int(index)

    def frame_count(self) -> int:
        return self._count


class MemoryImage:
    """The working image: committed values plus the tick's pending writes."""

    def __init__(self):
        self.vals: dict[int, float] = {}
        self.next: dict[int, float] = {}
        self.delta: dict[int, float] = {}
        self.deads: set[int] = set()
        self.animats: dict[int, tuple[str, int]] = {}
        self.sizes: dict[int, int] = {}
        self.stage_indices: dict[str, int] = {}
        self.next_free = 1
        self.ticks = 0
        # Blocks the next frame will hold: allocated and not killed.
        self.live = 0

    def read(self, address: int) -> float:
        try:
            return self.vals[address]
        except KeyError:
            raise AddressError(f"read from unallocated address {address}") from None

    def write(self, address: int, value: float) -> None:
        if address not in self.next:
            raise AddressError(f"write to unallocated address {address}")
        self.next[address] = value

    def write_delta(self, address: int, value: float) -> None:
        if address not in self.delta:
            raise AddressError(f"write to unallocated address {address}")
        self.delta[address] += value

    def allocate(self, stage: str, size: int) -> int:
        """Zeroed contiguous block; returns its base address.  A block
        always takes at least one slot so bases stay distinct."""
        base = self.next_free
        for address in range(base, base + max(size, 1)):
            self.vals[address] = 0.0
            self.next[address] = 0.0
            self.delta[address] = 0.0
        index = self.stage_indices.get(stage, 0) + 1
        self.stage_indices[stage] = index
        self.animats[base] = (stage, index)
        self.sizes[base] = max(size, 1)
        self.next_free = base + max(size, 1)
        self.live += 1
        return base

    def kill(self, base: int) -> None:
        """Mark a whole block dead; its values stay readable until the
        frame boundary drops them."""
        if base not in self.animats:
            raise AddressError(f"kill of unallocated base {base}")
        if base in self.deads:
            return
        self.deads.update(range(base, base + self.sizes[base]))
        self.live -= 1

    def store(self, backend: StorageBackend, rng_state: int) -> TraceFrame:
        if self.ticks != backend.frame_count():
            raise ValueError(
                f"image at tick {self.ticks} cannot append frame "
                f"{backend.frame_count() + 1}"
            )
        values = {
            address: self.next[address] + self.delta[address]
            for address in self.next
            if address not in self.deads
        }
        animats = {
            base: entry for base, entry in self.animats.items() if base not in self.deads
        }
        frame = TraceFrame(values, animats, rng_state)
        backend.append_frame(frame)
        return frame

    def apply_frame(self, frame: TraceFrame, tick: int) -> None:
        self.vals = dict(frame.values)
        self.next = dict(frame.values)
        self.delta = {address: 0.0 for address in frame.values}
        self.deads = set()
        self.animats = dict(frame.animats)
        self.live = len(self.animats)
        self.ticks = tick
        self.next_free = max(frame.values, default=0) + 1
        bases = sorted(self.animats)
        self.sizes = {
            base: following - base
            for base, following in zip(bases, bases[1:] + [self.next_free])
        }
        self.stage_indices = {}
        for stage, index in self.animats.values():
            if index > self.stage_indices.get(stage, 0):
                self.stage_indices[stage] = index

    def load(self, backend: StorageBackend, tick: int) -> int:
        """Rebuild the image from a stored frame; returns its RNG state."""
        frame = backend.load_frame(tick)
        self.apply_frame(frame, tick)
        return frame.rng_state
