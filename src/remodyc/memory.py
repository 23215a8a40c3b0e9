"""Simulation memory: flat float store, synchronous commit, full trace.

Reads see the last committed frame while writes accumulate in pending
stores (``assigned`` for assignments, ``delta`` for increments, ``next``
for what each address will commit), so update order inside a tick cannot
leak into results; a new block's values go to ``next`` alone.
``MemoryImage.write`` and ``write_delta`` are the reference of that rule,
which the compiled tasks apply inline, calling neither; they refuse a
write that would commit an infinity or a NaN: no frame holds either.
Besides the values the image keeps only the animats
and each kind's bases in order; two rules give the rest.  A block's values
run from its base up to the next base in ``animats`` or the first address
that holds no value; and a new animat takes the index after the one its
stage's highest block holds; ``layout_refusal`` checks a stored frame
against the first.  A commit costs what changed plus one pass
over the performers of each kind that lost a block: ``store`` drops the
blocks killed during the tick from the animats and ``next``, once each,
and from their kinds' performers in those passes, however few died;
``next`` is the frame it appends to a backend and, as it is, the
committed values.  The image's animats are the committed frame's own
table until the tick's first birth or death, which copies it once: so
consecutive frames with no birth and no death between them hold one
table.  ``store`` is the one commit, and ``load`` the one load: it
rebuilds the image from any stored frame, which is all replay needs.

On disk only an append writes: it brings the three trace files to the
committed prefix, then writes each once, as bytes built in one pass over
the frame by ``_frame_bytes``, and flushes it to the operating system
before returning (it does not ``fsync``); a value's text is the one
``parser.format_number`` gives.  A frame is committed once its
``rng.csv`` row is complete, and that row is written last.  Every trace
file keeps its rows sorted by tick, so a load makes one binary search
over byte offsets per file, then one reader takes the frame's rows in
chunks of at most ``_CHUNK_BYTES``, each converted a column at a time:
never rows past the last committed tick or a torn last line;
``load_animats`` reads ``animats.csv`` alone.
It checks every row's tick: a row of another tick or of the wrong number
of fields is refused, as is a field its column cannot hold, such as a
value that is not finite, a second row of one address or base in a tick,
addresses or bases out of order, a second ``rng.csv`` row of a tick, and
an ``rng.csv`` whose last row's tick, the frame count, is below 1.  A
field spelled otherwise than the writer writes it, such as ``01`` or
``1_0``, loads; ``FileBackend.written``, which reads each file forward
and compares its bytes with ``_frame_bytes`` of each loaded frame,
refuses it.
"""
from __future__ import annotations

import abc
import operator
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain, count, cycle, filterfalse, repeat
from math import copysign, inf
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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
_CHUNK_BYTES = 65536  # a load's largest read: its reads double from _SCAN_BYTES up to it
# Each trace file's first line, in the order a new run directory gets them.
_HEADERS = {
    "frames.csv": b"tick,address,value\n",
    "animats.csv": b"tick,base_address,stage,index\n",
    "rng.csv": b"tick,state_hex\n",
}


# By trace file, how each field of a row is converted and what it must
# hold, one entry per header field; a float must also be finite, as every
# committed value is.
_INTEGER = (int, "an integer")
_FIELDS = {
    "frames.csv": (_INTEGER, _INTEGER, (float, "a finite number")),
    "animats.csv": (_INTEGER, _INTEGER, (bytes.decode, "text"), _INTEGER),
    "rng.csv": (_INTEGER, (lambda field: parse_state(field.decode()), "a state of 16 hex digits")),
}


def _width_error(name: str, tick: int, fields: int) -> ValueError:
    """What a row of ``fields`` fields at ``tick`` of ``name`` raises."""
    return ValueError(f"{name}: tick {tick} has a row of {fields} fields, not {len(_FIELDS[name])}")


def _field_error(name: str, tick: int, fields: Iterable[bytes]) -> ValueError | None:
    """What the first of ``fields``, rows of ``tick`` of the trace file
    ``name`` split at commas, raises if it does not hold what its column
    must; None if each does."""
    for field, (read, what) in zip(fields, cycle(_FIELDS[name])):
        try:
            if (value := read(field)) in (inf, -inf) or value != value:
                raise ValueError(value)
        except ValueError:
            text = field.strip().decode(errors="replace")
            return ValueError(f"{name}: tick {tick} has a field {text!r} that is not {what}")
    return None


def _tick(line: bytes, name: str) -> int:
    """The tick of a row of the trace file ``name``; a row of one field,
    or whose tick is not an integer, raises ``ValueError``."""
    field, comma, _ = line.partition(b",")
    try:
        tick = int(field)
    except ValueError:
        text = field.strip().decode(errors="replace")
        raise ValueError(f"{name}: a row has a tick {text!r} that is not an integer") from None
    if not comma:
        raise _width_error(name, tick, 1)
    return tick


def _first_row_at(handle: BinaryIO, tick: int, name: str) -> int:
    """Offset of the first row of ``tick`` or a later tick, or of a torn
    last line (one without a newline), or else of the end of the file.

    ``handle`` is the trace CSV ``name`` opened in binary mode: its header,
    then rows sorted by tick; a file that does not start with its header,
    or a row of one field read on the way, raises ``ValueError``.  Binary
    search over byte offsets: seek to the middle, skip the partial line,
    compare the tick of the next line; then read forward over at most
    ``_SCAN_BYTES``.
    """
    header = _HEADERS[name]
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
        if start < hi and line.endswith(b"\n") and _tick(line, name) < tick:
            lo = start + len(line)
        else:
            hi = mid
    handle.seek(lo)
    for line in handle:
        if not line.endswith(b"\n") or _tick(line, name) >= tick:
            break
        lo += len(line)
    return lo


def _row_error(name: str, tick: int, block: bytes) -> ValueError:
    """What the first faulty row of ``block``, rows of the trace file
    ``name`` read as ``tick``'s, raises: one whose tick is not ``tick`` as
    written, or whose width is not the header's.  ``block`` holds one."""
    rows = (line.split(b",") for line in block.split(b"\n"))
    row = next(row for row in rows if row[0] != b"%d" % tick or len(row) != len(_FIELDS[name]))
    if row[0] == b"%d" % tick:
        return _width_error(name, tick, len(row))
    _tick(b",".join(row), name)  # a tick that is not an integer, or a row of one field
    return ValueError(f"{name}: tick {tick} has a row whose tick is {row[0].decode(errors='replace')!r}")


def _columns(path: Path, tick: int) -> Iterator[list[bytes]]:
    """The fields of ``tick``'s complete rows in one trace CSV, in order, a
    chunk of rows at a time.  A row among them not as wide as the header or
    whose tick is not written as ``tick``, or a complete row after them
    whose tick is not later, raises ``ValueError``.  A row's first field,
    its tick, may lead with a newline."""
    width, lead = len(_FIELDS[path.name]), b"\n%d" % tick
    with open(path, "rb") as handle:
        handle.seek(_first_row_at(handle, tick, path.name))
        # A newline, then what is read and not yet taken; rows are sorted, so
        # the tick's last complete row starts at its last ``lead`` there and a
        # comma (or a newline: a row of one field).
        data, size = b"\n", _SCAN_BYTES
        while True:
            data += (chunk := handle.read(size))
            stop = data.rfind(b"\n")
            start = max(data.rfind(lead + b",", 0, stop), data.rfind(lead + b"\n", 0, stop + 1))
            if start >= 0:
                end = data.index(b"\n", start + 1)
                block, data, stop = data[1:end], data[end:], stop - end
                # A newline starts a field, so each row is ``width`` wide and leads
                # with ``tick`` iff the fields fill the rows and each ``width``-th is it.
                text = block.replace(b"\n", b",\n")
                fields, rows = text.split(b","), len(text) - len(block) + 1
                ticks = fields[::width]
                if len(fields) != rows * width or ticks[0] != lead[1:] or ticks.count(lead) != rows - 1:
                    raise _row_error(path.name, tick, block)
                yield fields
            if stop:  # a complete row after the tick's, which must be of a later tick
                if _tick(line := data[1:data.index(b"\n", 1)], path.name) <= tick:
                    raise _row_error(path.name, tick, line)
                return
            if not chunk:  # the end of the file
                return
            size = min(2 * size, _CHUNK_BYTES)


def _by_key(name: str, tick: int, keys: list[int], values: Iterable, what: str) -> dict:
    """``values`` by ``keys``, the column of ``tick``'s rows of the trace
    file ``name`` that holds each row's ``what``; a key on two rows, or
    else keys that do not increase, as the writer writes them, raise
    ``ValueError``."""
    table = dict(zip(keys, values))
    if len(table) != len(keys):  # only then look for the key
        seen: set[int] = set()
        twice = next(k for k in keys if k in seen or seen.add(k))
        raise ValueError(f"{name}: tick {tick} has two rows of {what} {twice}")
    if sorted(keys) != keys:  # one pass in C over keys already in order
        after, key = next(pair for pair in zip(keys, keys[1:]) if pair[0] > pair[1])
        raise ValueError(f"{name}: tick {tick} has a row of {what} {key} after one of {what} {after}")
    return table


def _last_tick(path: Path) -> int | None:
    """The tick of the last complete row, 0 if only the header is complete,
    None if not even that is; reads from the end.  A row's tick below 1
    raises ``ValueError``."""
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
                if (tick := _tick(tail[begin:stop], path.name)) < 1:
                    raise ValueError(f"{path.name}: the last row has a tick {tick} that is not positive")
                return tick
            if start == 0:
                return 0 if stop >= 0 else None
            size *= 4


def _tick_text(tick: int, rows: list[str]) -> str:
    """The lines of ``rows``, each led by ``tick,``; nothing for no rows."""
    return f"{tick}," + f"\n{tick},".join(rows) + "\n" if rows else ""


def _frame_bytes(tick: int, frame: TraceFrame) -> tuple[bytes, bytes, bytes]:
    """The rows of ``frame`` as tick ``tick``, as ``append_frame`` writes
    them: one ``bytes`` per trace file, in the order of ``_HEADERS``."""
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
    return value_text.encode(), animat_text.encode(), rng_text.encode()


class FileBackend(StorageBackend):
    """Three growing CSVs; every append is flushed to the operating
    system before returning, so an aborted or killed run keeps all frames
    completed so far.  No file is ``fsync``ed, so a crash of the machine
    may lose the last appends.

    Only ``append_frame`` writes.  Opening a run directory counts its
    committed frames from the last complete ``rng.csv`` row and reads
    nothing else; a missing ``rng.csv``, or one without a complete header
    line, holds none, and a last row whose tick is below 1 is refused
    (``ValueError``).  The first append after opening, or after a failed
    one, first brings the files to the committed frames: the three headers
    afresh if there are none, else each file cut at its first row past the
    last committed tick, rows that no load reads.  A load, or the cut,
    refuses a file that does not start with its own header (``ValueError``).

    An append opens each file once, in binary append mode, writes all of
    the tick's rows to it in one ``write`` and flushes it; no handle is
    kept between appends.  A value is written as ``format_number`` gives
    it.  ``frames.csv`` and ``animats.csv`` rows of a tick are written
    first, its ``rng.csv`` row last: that row is the commit record.  A
    load reads each file's rows of the tick, ``load_animats`` those of
    ``animats.csv`` alone: O(log n) lines plus the frame's own rows.  It
    refuses a row of another tick or of the wrong number of fields, a
    field its column cannot hold, such as a value that is not finite, a
    second row of one address (or base) in the tick, addresses (or bases)
    out of order, or a second ``rng.csv`` row (``ValueError``, naming file
    and tick).  ``written`` checks loaded frames against the files byte
    for byte.
    """

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self._paths = [self.run_dir / name for name in _HEADERS]
        rng = self._paths[-1]
        self._count = (_last_tick(rng) if rng.exists() else None) or 0
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
                end = _first_row_at(handle, self._count + 1, path.name)
                if end < handle.seek(0, os.SEEK_END):
                    handle.truncate(end)

    def append_frame(self, frame: TraceFrame) -> None:
        if self._cut_pending:
            self._cut_uncommitted()
        # Until the rng.csv row is written, the rows below are uncommitted:
        # if this append fails, the next one cuts them off first.
        self._cut_pending = True
        tick = self._count + 1
        # One binary write per file, the rng.csv row, which commits the
        # tick, last.
        for path, text in zip(self._paths, _frame_bytes(tick, frame)):
            with open(path, "ab") as handle:
                handle.write(text)
                handle.flush()
        self._cut_pending = False
        self._count = tick

    def _load(self, name: str, tick: int) -> list[list]:
        """The columns after the tick of committed ``tick``'s rows in the
        trace file ``name``, each field converted as ``_FIELDS`` says; a
        tick not committed, or a field that does not convert, raises
        ``ValueError``."""
        if not 1 <= tick <= self._count:
            raise ValueError(f"no frame {tick} (have {self._count})")
        reads = _FIELDS[name]
        columns: list[list] = [[] for _ in reads[1:]]
        for fields in _columns(self.run_dir / name, tick):
            try:
                for at, column in enumerate(columns, 1):
                    column += map(reads[at][0], fields[at::len(reads)])
            except ValueError:
                raise _field_error(name, tick, fields) from None
        return columns

    def load_frame(self, tick: int) -> TraceFrame:
        addresses, values = self._load("frames.csv", tick)
        # One pass in C checks every value; they are read one by one only if
        # their sum is not finite, which finite values may also make.
        if not -inf < sum(values) < inf:
            fields = chain.from_iterable(_columns(self.run_dir / "frames.csv", tick))
            if error := _field_error("frames.csv", tick, fields):
                raise error
        by_address = _by_key("frames.csv", tick, addresses, values, "address")
        animats = self.load_animats(tick)
        (states,) = self._load("rng.csv", tick)
        if not states:
            raise ValueError(f"frame {tick} missing from rng.csv")
        if len(states) > 1:
            raise ValueError(f"rng.csv: tick {tick} has a second row")
        return TraceFrame(by_address, animats, states[0])

    def written(self, frames: Iterable[TraceFrame]) -> Iterator[TraceFrame]:
        """Each of ``frames``, the frames of ticks 1, 2, ... in order, once
        each trace file's next bytes, read forward from its header, are its
        rows as ``append_frame`` writes them.  A file that does not start
        with its header, or the first tick whose rows differ in a file,
        raises ``ValueError``, the latter naming the file and the tick.
        No file is opened before the first frame: a run directory that
        holds no frame may hold no trace file."""
        with ExitStack() as files:
            handles: list[BinaryIO] = []
            for tick, frame in enumerate(frames, 1):
                if not handles:
                    handles = [files.enter_context(open(path, "rb")) for path in self._paths]
                    for handle, header in zip(handles, _HEADERS.values()):
                        if handle.read(len(header)) != header:
                            raise ValueError(f"{handle.name} does not start with {header.decode()[:-1]!r}")
                for handle, name, text in zip(handles, _HEADERS, _frame_bytes(tick, frame)):
                    if handle.read(len(text)) != text:
                        raise ValueError(f"{name}: tick {tick} is not in its canonical form")
                yield frame

    def load_animats(self, tick: int) -> dict[int, tuple[str, int]]:
        """The animats of committed ``tick`` by base, as ``load_frame``
        gives them, read from ``animats.csv`` alone."""
        bases, stages, indices = self._load("animats.csv", tick)
        return _by_key("animats.csv", tick, bases, zip(stages, indices), "base")

    def frame_count(self) -> int:
        return self._count


class MemoryImage:
    """The working image: committed values plus the tick's pending writes.

    A committed frame is one value, shared by the image (``vals`` is its
    values dict), the backend that stored it and the caller that got it
    from ``Engine.setup`` or ``step``: nothing writes it after ``store``
    hands it on.  ``next`` is the one copy of its values, and every write
    keeps in it what the address will commit: its value assigned this tick,
    if any, else its committed one, plus its delta.  ``assigned`` and
    ``delta`` hold the last assignment and the sum of the deltas of
    addresses written this tick; they are emptied in place, so compiled
    code may hold on to them.  Every write by these methods records its
    assignment or delta; a compiled task's inline write records it only
    where a later write of the attribute reads it, so these stores may miss
    addresses written this tick, while ``next`` holds every write.  A new
    block reads 0.0 until it is committed; its values are in ``next``
    alone, so a slot's first increment records its base in ``assigned``.  A
    write whose address would commit an infinity or a NaN raises
    ``ValueError``, whose text is that value, and changes nothing.  Besides
    the values the image keeps the animats and each kind's bases in order
    (its performers), killed blocks included until the commit, which
    drops them from a kind's performers in one pass; ``killed`` holds
    their bases.  Every block's extent and next index are read off those
    and the values.  The animats are copy-on-write: after a commit or a
    load they are the frame's own table, which nothing writes, and the
    tick's first write, an ``allocate`` or a commit with blocks to drop,
    copies them first; ``_shared`` says that it is still to come.

    Two operations change the committed state: ``store`` commits a tick,
    ``apply_frame`` loads a stored frame.  ``store`` removes the blocks
    killed since the last commit from the animats, the performers and
    ``next``, lowers ``next_free``, hands ``next`` and the animats on as
    the frame (new blocks were entered as they were allocated), appends
    it and makes it the committed state, animats table included.
    ``apply_frame`` reads all of the image off the frame, sharing its
    values and animats, and gives the image that committing that frame
    gave.  If the backend fails to append, the image is left mid commit:
    ``load`` a stored frame to go on.
    """

    def __init__(self):
        self.vals: dict[int, float] = {}
        self.next: dict[int, float] = {}
        self.assigned: dict[int, float] = {}
        self.delta: dict[int, float] = {}
        self.killed: set[int] = set()  # bases killed since the last commit
        self.animats: dict[int, tuple[str, int]] = {}
        self._shared = False  # the animats are the committed frame's: copy before a write
        self.performers: dict[str, list[int]] = {}  # by kind, ascending
        self.next_free = 1
        self.ticks = 0

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
        else:  # the first increment: ``next`` holds the base, alone in a new slot
            committed = pending[address] + value
            if address not in self.vals and -inf < committed < inf:
                self.assigned[address] = pending[address]  # for the next increment
        if not -inf < committed < inf:
            raise ValueError(committed)
        delta[address] = value
        pending[address] = committed

    def allocate(self, stage: str, size: int, rows: Sequence[Sequence[float]] | None = None) -> int:
        """Contiguous blocks of ``stage``, one per row of ``rows``, each
        holding its ``size`` finite initial values in ``next`` (default: one
        block of zeros); returns the first base.  A block always takes at
        least one slot so bases stay distinct; an empty block's slot holds 0."""
        base, width = self.next_free, max(size, 1)
        if rows is None or not size:
            rows = ((0.0,) * width,) * (1 if rows is None else len(rows))
        if not rows:
            return base
        end = base + width * len(rows)
        if self._shared:
            self.animats, self._shared = self.animats.copy(), False
        self.next.update(zip(range(base, end), chain.from_iterable(rows)))
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
        """Commit the tick: append the frame the pending writes make,
        ``next`` on every address of a block not killed, and the animats
        left, then make it the committed state, one tick on, and return
        it.  Each block killed since the last commit leaves them
        first, once, and takes its kind with it; each kind that lost a block
        then drops all its dead from its performers in one pass, keeping the
        order.  The frame holds the image's animats table, copied first only
        if blocks leave it and this tick has not copied it yet, and the
        image goes on sharing it.  An append that raises leaves the image
        mid commit."""
        if self.ticks != backend.frame_count():
            raise ValueError(
                f"image at tick {self.ticks} cannot append frame "
                f"{backend.frame_count() + 1}"
            )
        if self.killed and self._shared:
            self.animats = self.animats.copy()
        values, animats, performers, killed = self.next, self.animats, self.performers, self.killed
        kinds = set()  # those that lost a block
        for base in killed:
            kinds.add(animats.pop(base)[0])
            # The block's values: up to the next live base, or to a gap that
            # dead blocks left; a killed neighbour on the way is dead too.
            end = base + 1
            while end in values and end not in animats:
                end += 1
            for address in range(base, end):
                values.pop(address, None)
        for kind in kinds:
            kept = performers[kind]
            kept[:] = filterfalse(killed.__contains__, kept)
            if not kept:
                del performers[kind]
        # Down to one past the highest stored address, as ``apply_frame`` reads it.
        end = self.next_free
        while end > 1 and end - 1 not in values:
            end -= 1
        self.next_free = end
        self.killed = set()
        frame = TraceFrame(values, animats, rng_state)
        self._shared = True
        backend.append_frame(frame)
        self.vals = values
        # ``copy`` clones even a table with holes; ``dict()`` would rehash it.
        self.next = values.copy()
        self.assigned.clear()
        self.delta.clear()
        self.ticks += 1
        return frame

    def apply_frame(self, frame: TraceFrame, tick: int) -> None:
        """Load ``frame`` as the committed state after ``tick``: its values
        and its animats table, both shared with the frame and written by
        neither, and the performers and ``next_free`` read off them.

        The layout rule that ``store`` keeps holds here too: a block's
        values run from its base up to the next base in ``animats`` or the
        first address that holds no value, and ``next_free`` is one past
        the highest stored address.  So the addresses of a dead block
        between two live ones stay unused, and those of dead blocks above
        the highest live one go to the next allocation.  Likewise a stage's
        next instance index is the one after its highest block's, so an
        index may name another animat once the one that held it has died.
        The performers are sorted here: only ``FileBackend``'s reader
        refuses bases out of order, and a frame from ``InMemoryBackend`` or
        another backend never passes through it.
        """
        self.vals = frame.values
        self.next = frame.values.copy()
        self.assigned.clear()
        self.delta.clear()
        self.ticks = tick
        self.killed = set()
        self.animats, self._shared = frame.animats, True
        self.next_free = max(frame.values, default=0) + 1
        self.performers = {}
        for base in sorted(self.animats):
            self.performers.setdefault(self.animats[base][0], []).append(base)

    def load(self, backend: StorageBackend, tick: int) -> int:
        """Rebuild the image from a stored frame; returns its RNG state."""
        frame = backend.load_frame(tick)
        self.apply_frame(frame, tick)
        return frame.rng_state


def layout_refusal(frame: TraceFrame, tick: int, sizes: dict[str, int],
                   fixed: dict[str, int]) -> str | None:
    """Why ``frame``, stored as ``tick``, does not fit a model whose kinds
    are those of ``sizes``, each block of a kind ``sizes[kind]`` slots, and
    that has ``fixed[kind]`` blocks of each kind ``fixed`` names; None if
    it fits.  Every block's kind is one of ``sizes``; each kind of
    ``fixed`` numbers as it says; and the values are exactly the blocks'
    slots, the layout rule ``MemoryImage.apply_frame`` reads a frame by:
    each block holds its size from its base on, no address is in two
    blocks and no value is in none.  Of the faults of the layout, the one
    at the lowest address is named.  No value is -0.0, which no commit
    writes."""
    animats, values = frame.animats, frame.values
    bases = sorted(animats)
    kinds = [animats[base][0] for base in bases]
    counts = Counter(kinds)
    if unknown := counts.keys() - sizes.keys():
        base = next(base for base, kind in zip(bases, kinds) if kind in unknown)
        return f"tick {tick}: unknown stage {animats[base][0]!r} at address {base}"
    for kind, blocks in fixed.items():
        if counts[kind] != blocks:
            return f"tick {tick}: {counts[kind]} {kind} blocks, the model has {blocks}"
    # Every block's slots, in base order, against the addresses in one
    # compare in C; a fault is looked for only if there is one.
    ends = list(map(operator.add, bases, map(sizes.__getitem__, kinds)))
    slots = list(chain.from_iterable(map(range, bases, ends)))
    if slots != sorted(values):
        held, kept = values.keys(), set(slots)
        faults = [(base, f"the block at address {base} overlaps the one at address {before}")
                  for before, base, end in zip(bases, bases[1:], ends) if base < end]
        faults += [(address, f"no value at address {address}") for address in kept - held]
        faults += [(address, f"the value at address {address} is in no block")
                   for address in held - kept]
        return f"tick {tick}: {min(faults)[1]}"
    # Only a zero can be -0.0, and ``==`` does not tell it from 0.0.
    if -1.0 in map(copysign, repeat(1.0), filter(operator.not_, values.values())):
        address = min(a for a, value in values.items() if not value and copysign(1.0, value) < 0)
        return f"tick {tick}: the value at address {address} is -0"
    return None
