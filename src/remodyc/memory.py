"""Simulation memory: flat float store, synchronous commit, full trace.

Reads see the last committed frame while writes accumulate in pending
stores (``assigned`` for assignments, ``delta`` for increments, ``next``
for what each address will commit), so update order inside a tick cannot
leak into results.  ``MemoryImage.write`` and ``write_delta`` apply that
rule and refuse a write that would commit an infinity or a NaN: no frame
holds either.  The compiled tasks apply the same rule inline to their own
writes, where the pending state of the address is known before the run,
and call the methods for every other write.  ``store`` hands
``next`` on as a frame and appends it to a backend.  Besides the values
the image keeps only the animats and each kind's bases in order; two
rules give the rest.  A block's values run from its base up to the next
base in ``animats`` or the first address that holds no value; and a new
animat takes the index after the one its stage's highest block holds.  A
commit costs what changed: that dict becomes the committed values as it
is, and the blocks killed during the tick leave the animats and
performers.  ``load`` rebuilds the image from any stored frame, which is
all replay needs.

On disk only an append writes: it brings the three trace files to the
committed prefix, then writes each once, as bytes built in one pass over
the frame, and flushes it to the operating system before returning (it
does not ``fsync``); a value's text is the one ``parser.format_number``
gives.  A frame is committed once its ``rng.csv`` row is complete, and
that row is written last.  Every trace file keeps its rows sorted by
tick, so loading a frame is a binary search over byte offsets: it reads
O(log n) lines plus the frame's own rows, and never rows past the last
committed tick or a torn last line.
"""
from __future__ import annotations

import abc
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, count, repeat
from math import inf
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

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
        self.frames.append(frame)

    def load_frame(self, tick: int) -> TraceFrame:
        if not 1 <= tick <= len(self.frames):
            raise ValueError(f"no frame {tick} (have {len(self.frames)})")
        return self.frames[tick - 1]

    def frame_count(self) -> int:
        return len(self.frames)


class CountingBackend(StorageBackend):
    """Counts the frames appended and keeps none, for a run whose frames nothing reads."""

    count = 0

    def append_frame(self, frame: TraceFrame) -> None:
        self.count += 1

    def load_frame(self, tick: int) -> TraceFrame:
        raise ValueError(f"no frame {tick} is kept")

    def frame_count(self) -> int:
        return self.count


# Below this many bytes the search reads forward instead of halving.
_SCAN_BYTES = 4096
# Each trace file's first line, in the order a new run directory gets them.
_HEADERS = {
    "frames.csv": b"tick,address,value\n",
    "animats.csv": b"tick,base_address,stage,index\n",
    "rng.csv": b"tick,state_hex\n",
}


def _tick(line: bytes) -> int:
    return int(line[: line.index(b",")])


def _first_row_at(handle: BinaryIO, tick: int, header: bytes) -> int:
    """Offset of the first row of ``tick`` or a later tick, or of a torn
    last line (one without a newline), or else of the end of the file.

    ``handle`` is a trace CSV opened in binary mode: ``header``, then rows
    sorted by tick; a file that does not start with ``header`` raises
    ``ValueError``.  Binary search over byte offsets: seek to the middle,
    skip the partial line, compare the tick of the next line; then read
    forward over at most ``_SCAN_BYTES``.
    """
    handle.seek(0)
    if handle.readline() != header:
        raise ValueError(f"{handle.name} does not start with {header.decode()[:-1]!r}")
    lo = len(header)
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
        handle.seek(_first_row_at(handle, tick, _HEADERS[path.name]))
        for line in handle:
            if not line.endswith(b"\n"):
                return
            row = line[:-1].split(b",")
            if int(row[0]) > last:
                return
            yield row


def _last_tick(path: Path) -> int | None:
    """The tick of the last complete row, 0 if only the header is complete,
    None if not even that is; reads from the end."""
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
                return 0 if stop >= 0 else None
            size *= 4


def _tick_text(tick: int, rows: list[str]) -> str:
    """The lines of ``rows``, each led by ``tick,``; nothing for no rows."""
    return f"{tick}," + f"\n{tick},".join(rows) + "\n" if rows else ""


class FileBackend(StorageBackend):
    """Three growing CSVs; every append is flushed to the operating
    system before returning, so an aborted or killed run keeps all frames
    completed so far.  No file is ``fsync``ed, so a crash of the machine
    may lose the last appends.

    Only ``append_frame`` writes.  Opening a run directory counts its
    committed frames from the last complete ``rng.csv`` row and reads
    nothing else; a missing ``rng.csv``, or one without a complete header
    line, holds none.  The first append after opening, or after a failed
    one, first brings the files to the committed frames: the three headers
    afresh if there are none, else each file cut at its first row past the
    last committed tick, rows that no load reads.  A load, or the cut,
    refuses a file that does not start with its own header (``ValueError``).

    An append opens each file once, in binary append mode, writes all of
    the tick's rows to it in one ``write`` and flushes it; no handle is
    kept between appends.  A value is written as ``format_number`` gives
    it.  ``frames.csv`` and ``animats.csv`` rows of a tick are written
    first, its ``rng.csv`` row last: that row is the commit record.  A
    load reads O(log n) lines plus the frame's own rows.
    """

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self._paths = [self.run_dir / name for name in _HEADERS]
        self._values_path, self._animats_path, self._rng_path = self._paths
        self._count = (_last_tick(self._rng_path) if self._rng_path.exists() else None) or 0
        self._cut_pending = True

    def _cut_uncommitted(self) -> None:
        """Fresh headers if no frame is committed, else each file cut after the last."""
        if not self._count:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            for path in self._paths:
                with open(path, "wb") as handle:
                    handle.write(_HEADERS[path.name])
            return
        for path in self._paths:
            with open(path, "r+b") as handle:
                end = _first_row_at(handle, self._count + 1, _HEADERS[path.name])
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
        for path, text in zip(self._paths, (value_text, animat_text, rng_text)):
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
        committed frame, in file order; opens no file if there is none."""
        if not self._count:
            return
        for tick, base, stage, index in _rows(self._animats_path, 1, self._count):
            yield int(tick), int(base), stage.decode(), int(index)

    def frame_count(self) -> int:
        return self._count


class MemoryImage:
    """The working image: committed values plus the tick's pending writes.

    A committed frame is one value, shared by the image (``vals`` is its
    values dict), the backend that stored it and the caller that got it
    from ``Engine.setup`` or ``step``: nothing writes it after ``store``
    hands it on.  ``next`` is the one copy of its values,
    and every write keeps in it what the address will commit: its value
    assigned this tick, if any, else its committed one, plus its delta.
    ``assigned`` and ``delta`` hold the last assignment and the sum of the
    deltas of addresses written this tick, the slots of new blocks being
    assigned their initial values; they are emptied in place, so compiled
    code may hold on to them.  Every write by these methods records its
    assignment or delta; a compiled task's inline own write records it only
    where a later write of the attribute reads it, so these stores may miss
    addresses written this tick, while ``next`` holds every write.  A new
    block reads 0.0 until it is committed.  A write whose address would commit
    an infinity or a NaN raises ``ValueError``, whose text is that value,
    and changes nothing.  Besides the values the image keeps the
    animats and each kind's bases in order (its performers), killed blocks
    included until the commit; ``live`` and every block's extent and next
    index are read off those and the values.

    ``store`` hands ``next``, less the killed blocks, on as the frame's
    values.  ``apply_frame`` then commits the frame one of two ways: the
    frame ``store`` just returned takes the commit path, which drops the
    blocks killed since the last commit (new blocks were entered as they
    were allocated); any other frame takes the load path, which reads all
    of it from the frame.  Both give the same image.
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
        self.performers: dict[str, list[int]] = {}  # by kind, ascending
        self.next_free = 1
        self.ticks = 0
        self._stored: TraceFrame | None = None

    @property
    def live(self) -> int:
        """Blocks the next frame will hold: allocated and not killed."""
        return len(self.animats) - len(self.killed)

    def read(self, address: int) -> float:
        try:
            return self.vals[address]
        except KeyError:
            if address in self.next:
                return 0.0  # new since the last commit: its values are pending
            raise AddressError(f"read from unallocated address {address}") from None

    def write(self, address: int, value: float) -> None:
        pending = self.next
        if address not in pending:
            raise AddressError(f"write to unallocated address {address}")
        # ``+ 0.0`` keeps -0.0 out of assigned bases, and no committed value
        # is -0.0: so base + delta does not depend on the sign of a zero
        # delta, and deltas need not start from 0.0.
        value += 0.0
        committed = value + self.delta[address] if address in self.delta else value
        if not -inf < committed < inf:
            raise ValueError(committed)
        self.assigned[address] = value
        pending[address] = committed

    def write_delta(self, address: int, value: float) -> None:
        pending, delta = self.next, self.delta
        if address not in pending:
            raise AddressError(f"write to unallocated address {address}")
        if address in delta:
            value += delta[address]
            base = self.assigned[address] if address in self.assigned else self.vals[address]
            committed = base + value
        else:  # the first increment: ``next`` holds the base
            committed = pending[address] + value
        if not -inf < committed < inf:
            raise ValueError(committed)
        delta[address] = value
        pending[address] = committed

    def allocate(self, stage: str, size: int, rows: Sequence[Sequence[float]] | None = None) -> int:
        """Contiguous blocks of ``stage``, one per row of ``rows``, each
        assigned its ``size`` finite initial values (default: one block of
        zeros); returns the first base.  A block always takes at least one
        slot so bases stay distinct; an empty block's slot holds 0."""
        base, width = self.next_free, max(size, 1)
        if rows is None or not size:
            rows = ((0.0,) * width,) * (1 if rows is None else len(rows))
        if not rows:
            return base
        end = base + width * len(rows)
        values = dict(zip(range(base, end), chain.from_iterable(rows)))
        self.assigned.update(values)
        self.next.update(values)
        # Every new block lands above every base, so a stage's highest
        # block holds its highest index.
        kept, new = self.performers.setdefault(stage, []), range(base, end, width)
        first = self.animats[kept[-1]][1] + 1 if kept else 1
        self.animats.update(zip(new, zip(repeat(stage), count(first))))
        kept += new
        self.next_free = end
        return base

    def kill(self, base: int) -> None:
        """Mark a whole block dead; its values stay readable until the
        frame boundary drops them."""
        if base not in self.animats:
            raise AddressError(f"kill of unallocated base {base}")
        self.killed.add(base)

    def store(self, backend: StorageBackend, rng_state: int) -> TraceFrame:
        """Append the frame the pending writes make: ``next`` on every
        address of a block not killed."""
        if self.ticks != backend.frame_count():
            raise ValueError(
                f"image at tick {self.ticks} cannot append frame "
                f"{backend.frame_count() + 1}"
            )
        values, owned = self.next, self.animats
        animats = owned.copy()
        for base in self.killed:
            del animats[base]
            # The block's values: up to the next base, killed ones included,
            # or to a gap that dead blocks left.
            end = base + 1
            while end in values and end not in owned:
                end += 1
            for address in range(base, end):
                values.pop(address, None)
        frame = TraceFrame(values, animats, rng_state)
        backend.append_frame(frame)
        self._stored = frame
        return frame

    def apply_frame(self, frame: TraceFrame, tick: int) -> None:
        """Make ``frame`` the committed state after ``tick``.

        One layout rule holds on both paths: a block's values run from its
        base up to the next base in ``animats`` or the first address that
        holds no value, and ``next_free`` is one past the highest stored
        address.  So the addresses of a dead block between two live ones
        stay unused, and those of dead blocks above the highest live one go
        to the next allocation.  Likewise a stage's next instance index is
        the one after its highest block's, so an index may name another
        animat once the one that held it has died.

        The frame ``store`` just returned takes the commit path, which
        besides copying the values into ``next`` costs O(blocks killed) to
        drop them from the animats and performers, plus O(addresses freed
        at the top) to lower ``next_free``.  Any other frame takes the load
        path, which reads them all off the frame.
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
        animats, performers, values = self.animats, self.performers, self.vals
        for base in self.killed:
            kind = animats.pop(base)[0]
            kept = performers[kind]
            del kept[bisect_left(kept, base)]
            if not kept:
                del performers[kind]
        # Down to one past the highest stored address, as ``_infer`` reads it.
        end = self.next_free
        while end > 1 and end - 1 not in values:
            end -= 1
        self.next_free = end

    def _infer(self, frame: TraceFrame) -> None:
        self.animats = dict(frame.animats)
        self.next_free = max(frame.values, default=0) + 1
        self.performers = {}
        for base in sorted(self.animats):
            self.performers.setdefault(self.animats[base][0], []).append(base)

    def load(self, backend: StorageBackend, tick: int) -> int:
        """Rebuild the image from a stored frame; returns its RNG state."""
        frame = backend.load_frame(tick)
        self.apply_frame(frame, tick)
        return frame.rng_state
