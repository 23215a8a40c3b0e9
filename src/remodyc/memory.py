"""Simulation memory: flat float store, synchronous commit, full trace.

Reads see the last committed frame while writes accumulate in pending
stores (``assigned`` for assignments, ``delta`` for increments, ``next``
for what each address will commit), so update order inside a tick cannot
leak into results.  ``store`` hands ``next`` on as a frame and appends it
to a backend.  A commit costs what changed: that dict becomes the
committed values as it is, and block sizes, performer lists and instance
indices are updated from the blocks allocated and killed during the tick.
``load`` rebuilds the image from any stored frame, inferring all of that
from the frame, which is all replay needs.

On disk an append writes each of the three trace files once, as bytes
built in one pass over the frame, and flushes it before returning; a
value's text is the one ``parser.format_number`` gives.  A frame is
committed once its ``rng.csv`` row is complete, and that row is written
last.  Every trace file keeps its rows sorted by tick, so loading a frame
is a binary search over byte offsets: it reads O(log n) lines plus the
frame's own rows, and never rows past the last committed tick or a torn
last line.
"""
from __future__ import annotations

import abc
import os
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

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
            TraceFrame(frame.values.copy(), frame.animats.copy(), frame.rng_state)
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


def _tick_text(tick: int, rows: list[str]) -> str:
    """The lines of ``rows``, each led by ``tick,``; nothing for no rows."""
    return f"{tick}," + f"\n{tick},".join(rows) + "\n" if rows else ""


class FileBackend(StorageBackend):
    """Three growing CSVs; every append hits the disk before returning,
    so an aborted run keeps all frames completed so far.

    An append opens each file once, in binary append mode, writes all of
    the tick's rows to it in one ``write`` and flushes it; no handle is
    kept between appends.  A value is written as ``format_number`` gives
    it.  ``frames.csv`` and ``animats.csv`` rows of a tick are written
    first, its ``rng.csv`` row last: that row is the commit record.
    Reopening a run directory counts the committed frames from the last
    complete ``rng.csv`` row and reads nothing else.  Rows past the last
    committed tick, left by a crash or a failed append, are never loaded,
    and the next append, after reopening or after the failure, cuts them
    off.  A load reads O(log n) lines plus the frame's own rows; opening
    and loading write nothing.
    """

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self._values_path = self.run_dir / "frames.csv"
        self._animats_path = self.run_dir / "animats.csv"
        self._rng_path = self.run_dir / "rng.csv"
        # A reopened run may end in rows past its last committed tick.
        self._cut_pending = self._rng_path.exists()
        if self._cut_pending:
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
        if self._cut_pending:
            self._cut_uncommitted()
        # Until the rng.csv row is written, the rows below are uncommitted:
        # if this append fails, the next one cuts them off first.
        self._cut_pending = True
        tick = self._count + 1
        values, animats = frame.values, frame.animats
        # A value is its row's last field, and a finite float's repr ends
        # in ".0" only when the float is integral: so one replace drops
        # the ".0" of every integral value, as ``format_number`` does.
        value_text = _tick_text(
            tick, [f"{a},{values[a]!r}" for a in sorted(values)]
        ).replace(".0\n", "\n")
        animat_text = _tick_text(
            tick, [f"{b},{animats[b][0]},{animats[b][1]}" for b in sorted(animats)]
        )
        rng_text = f"{tick},{format_state(frame.rng_state)}\n"
        # One binary write per file, the rng.csv row, which commits the
        # tick, last.
        for path, text in (
            (self._values_path, value_text),
            (self._animats_path, animat_text),
            (self._rng_path, rng_text),
        ):
            with open(path, "ab") as handle:
                handle.write(text.encode())
                handle.flush()
        self._cut_pending = False
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
    """The working image: committed values plus the tick's pending writes.

    ``vals`` is the committed frame's own values dict, which the image
    never writes: the frame was returned to a caller, or, for
    ``InMemoryBackend``, it is the stored frame.  ``next`` is its one copy,
    and every write keeps in it what the address will commit: its value
    assigned this tick, if any, else its committed one, plus its delta.
    ``assigned`` and ``delta`` hold only the addresses written this tick,
    the slots of new blocks being assigned 0.0; they are emptied in place,
    so compiled code may hold on to them.  Besides the values the image
    keeps each block's size, the bases in order, each kind's bases in order
    (its performers) and each stage's last instance index.

    ``store`` hands ``next``, less the killed blocks, on as the frame's
    values.  ``apply_frame`` then commits the frame one of two ways: the
    frame ``store`` just returned takes the commit path, which updates the
    kept state from the blocks killed since the last commit (new blocks
    were entered as they were allocated); any other frame takes the load
    path, which infers all of it from the frame.  Both give the same image.
    Between ``store`` and ``apply_frame`` the image is mid commit: if the
    backend fails to append, ``load`` a stored frame to go on.
    """

    def __init__(self):
        self.vals: dict[int, float] = {}
        self.next: dict[int, float] = {}
        self.assigned: dict[int, float] = {}
        self.delta: dict[int, float] = {}
        self.killed: set[int] = set()  # bases killed since the last commit
        self.animats: dict[int, tuple[str, int]] = {}
        self.sizes: dict[int, int] = {}
        self.bases: list[int] = []  # every base in ``animats``, ascending
        self.performers: dict[str, list[int]] = {}  # by kind, ascending
        self.stage_indices: dict[str, int] = {}
        self.next_free = 1
        self.ticks = 0
        # Blocks the next frame will hold: allocated and not killed.
        self.live = 0
        self._stored: TraceFrame | None = None

    def read(self, address: int) -> float:
        try:
            return self.vals[address]
        except KeyError:
            if address in self.next:
                return 0.0  # allocated since the last commit, so still zero
            raise AddressError(f"read from unallocated address {address}") from None

    def write(self, address: int, value: float) -> None:
        if address not in self.next:
            raise AddressError(f"write to unallocated address {address}")
        # ``+ 0.0`` keeps -0.0 out of assigned bases, and no committed value
        # is -0.0: so base + delta does not depend on the sign of a zero
        # delta, and deltas need not start from 0.0.
        self.assigned[address] = value = value + 0.0
        self.next[address] = value + self.delta[address] if address in self.delta else value

    def write_delta(self, address: int, value: float) -> None:
        if address not in self.next:
            raise AddressError(f"write to unallocated address {address}")
        if address in self.delta:
            value += self.delta[address]
        increment = self.delta[address] = value
        base = self.assigned[address] if address in self.assigned else self.vals[address]
        self.next[address] = base + increment

    def allocate(self, stage: str, size: int) -> int:
        """Zeroed contiguous block; returns its base address.  A block
        always takes at least one slot so bases stay distinct."""
        base, size = self.next_free, max(size, 1)
        zeros = dict.fromkeys(range(base, base + size), 0.0)
        self.assigned.update(zeros)
        self.next.update(zeros)
        index = self.stage_indices.get(stage, 0) + 1
        self.stage_indices[stage] = index
        self.animats[base] = (stage, index)
        self.sizes[base] = size
        self.bases.append(base)
        self.performers.setdefault(stage, []).append(base)
        self.next_free = base + size
        self.live += 1
        return base

    def kill(self, base: int) -> None:
        """Mark a whole block dead; its values stay readable until the
        frame boundary drops them."""
        if base not in self.animats:
            raise AddressError(f"kill of unallocated base {base}")
        if base in self.killed:
            return
        self.killed.add(base)
        self.live -= 1

    def store(self, backend: StorageBackend, rng_state: int) -> TraceFrame:
        """Append the frame the pending writes make: ``next`` on every
        address of a block not killed."""
        if self.ticks != backend.frame_count():
            raise ValueError(
                f"image at tick {self.ticks} cannot append frame "
                f"{backend.frame_count() + 1}"
            )
        values, sizes = self.next, self.sizes
        animats = self.animats.copy()
        for base in self.killed:
            del animats[base]
            # A kept size may cover the gap a dead block left: no values there.
            for address in range(base, base + sizes[base]):
                values.pop(address, None)
        frame = TraceFrame(values, animats, rng_state)
        backend.append_frame(frame)
        self._stored = frame
        return frame

    def apply_frame(self, frame: TraceFrame, tick: int) -> None:
        """Make ``frame`` the committed state after ``tick``.

        Sizes follow one rule on both paths: a live block reaches up to the
        next live base, the highest one up to the highest stored address,
        and the next allocation starts just after it.  So a dead block
        between two live ones counts in the size of the live block below
        it, and the addresses of dead blocks above the highest live one go
        to the next allocation.  Neither changes a value: a block is read
        and written through its own slots, and the extra addresses hold
        nothing to store.  Likewise each stage's next instance index
        follows its highest live one, so an index may name another animat
        once the one that held it has died.

        The frame ``store`` just returned takes the commit path, which
        besides copying the values into ``next`` costs O(blocks killed):
        sizes, bases, performers and indices were kept up to date by
        ``allocate``, and each killed block passes its size to the live
        block below it.  Any other frame takes the load path, which infers
        them all from the frame.
        """
        self.vals = frame.values
        # ``copy`` clones even a table with holes; ``dict()`` would rehash it.
        self.next = frame.values.copy()
        self.assigned.clear()
        self.delta.clear()
        self.ticks = tick
        if frame is self._stored:
            self._commit_kills()
        else:
            self._infer(frame)
        self.killed = set()
        self._stored = None

    def _commit_kills(self) -> None:
        bases, sizes, animats, values = self.bases, self.sizes, self.animats, self.vals
        top_died = False
        # From the top down, so a block's successor is always live.
        for base in sorted(self.killed, reverse=True):
            i = bisect_left(bases, base)
            del bases[i]
            size = sizes.pop(base)
            kind = animats.pop(base)[0]
            kept = self.performers[kind]
            del kept[bisect_left(kept, base)]
            if not kept:
                del self.performers[kind]
                self.stage_indices.pop(kind, None)
            else:
                self.stage_indices[kind] = animats[kept[-1]][1]
            if i == len(bases):
                top_died = True
            elif i:
                sizes[bases[i - 1]] += size
        if not bases:
            self.next_free = 1
        elif top_died:
            # The new highest block ends at its highest stored address.
            top = bases[-1]
            end = top + sizes[top]
            while end - 1 not in values:
                end -= 1
            sizes[top] = end - top
            self.next_free = end

    def _infer(self, frame: TraceFrame) -> None:
        self.animats = dict(frame.animats)
        self.bases = sorted(self.animats)
        self.live = len(self.bases)
        self.next_free = max(frame.values, default=0) + 1
        self.sizes = {
            base: following - base
            for base, following in zip(self.bases, self.bases[1:] + [self.next_free])
        }
        self.performers = {}
        self.stage_indices = {}
        for base in self.bases:
            stage, index = self.animats[base]
            self.performers.setdefault(stage, []).append(base)
            if index > self.stage_indices.get(stage, 0):
                self.stage_indices[stage] = index

    def load(self, backend: StorageBackend, tick: int) -> int:
        """Rebuild the image from a stored frame; returns its RNG state."""
        frame = backend.load_frame(tick)
        self.apply_frame(frame, tick)
        return frame.rng_state
