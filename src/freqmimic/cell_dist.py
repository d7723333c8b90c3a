"""Distributing trials over cells with prescribed per-cell frequencies.

Given a rational probability vector, the greedy largest-deficit rule gives
each trial one of m cells.  A count exceeds its ideal share t*p_k by at most
1 - 1/m and falls short by at most (m - 1)(1 - 1/m); the discrepancy can
exceed 1 (43/42 for shares (3,5,11,11,1,11)/42).  The rows repeat every den
trials, den the shares' common denominator (as in Tijdeman's chairman
assignment).  The deficits d_k(t) = t*nums[k] - a_k(t)*den start at 0 and
sum to 0 after every trial.  A trial adds nums, which sum to den, so the
chosen (largest) deficit is at least den/m when it drops by den, and the
rest rise: none reaches -den.  At t = den each d_k is a multiple of den
above -den, and they sum to 0, so all are 0: row q*den + r is row r plus
(q*den, 0, q*nums[1], ...).  A nonzero deficit there raises.

Per-trial outcomes re-emerge as one-hot statement tuples, matching the
coordinatewise product of per-cell source-conditional operators.
``cell_table_from_csv`` reads only the layout ``cell_csv`` writes, without
the ``csv`` module.  A consistent table is read from its cell column, with
the same result as the per-row parse; inconsistent tables and every error go
through that per-row parse.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, countOf, eq, itemgetter, mul, ne, sub
from typing import Iterable, Iterator, Sequence

from . import freq_seq
from .freq_seq import CumulativeSequence, _unchecked, check_cumulative_form, parse_probability
from .language_core import Statement, StatementKind, _labeled, event, non_event, source_statement


@dataclass(frozen=True)
class ProbabilityVector:
    """Non-negative rational cell probabilities summing to exactly 1."""

    cells: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cells = tuple(Fraction(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("probability vector needs at least one cell")
        if any(c < 0 for c in cells):
            raise ValueError("cell probabilities must be non-negative")
        if sum(cells) != 1:
            raise ValueError("cell probabilities must sum to 1")

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.cells)

    def __getitem__(self, index: int) -> Fraction:
        return self.cells[index]


def parse_probability_vector(text: str) -> ProbabilityVector:
    """Parse comma-separated rationals such as '1/4,1/2,1/4'."""
    parts = [part.strip() for part in text.split(",")]
    return ProbabilityVector(tuple(parse_probability(part) for part in parts))


@dataclass(frozen=True)
class CellAssignment:
    """One chosen cell (1-based) per trial."""

    entries: tuple[int, ...]
    cell_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.cell_count < 1:
            raise ValueError("assignment needs at least one cell")
        _check_cells(self.entries, self.cell_count)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def _check_cells(entries: Sequence[int], m: int, done: int = 0) -> None:
    """Raise the ``CellAssignment`` error for the first entry that is not an int
    (of type exactly ``int``: not a bool or a float) in 1..m."""
    ints = len(entries)  # the entries before the first that is not an int
    if countOf(map(type, entries), int) != ints:
        ints = next(t for t, entry in enumerate(entries) if type(entry) is not int)
    head = entries[:ints]
    if head and not (1 <= min(head) and max(head) <= m):
        t = next(t for t, entry in enumerate(head, 1) if not 1 <= entry <= m)
        raise ValueError(f"trial {done + t} assigned outside 1..{m}")
    if ints < len(entries):
        name = type(entries[ints]).__name__
        raise ValueError(f"trial {done + ints + 1} assigned a {name}, not an int cell")


def _shares(
    probs: ProbabilityVector | Sequence[Fraction],
) -> tuple[ProbabilityVector, int, list[int]]:
    """The validated vector and its cells as integer shares ``nums[k] / den``."""
    probs = probs if isinstance(probs, ProbabilityVector) else ProbabilityVector(tuple(probs))
    den = math.lcm(*(p.denominator for p in probs))
    return probs, den, [p.numerator * (den // p.denominator) for p in probs]


def _cells(den: int, nums: list[int], n: int) -> Iterator[int]:
    deficits = [0] * len(nums)  # t*nums[k] - a_k(t)*den
    for _ in range(n):
        deficits = list(map(add, deficits, nums))
        best = deficits.index(max(deficits))
        deficits[best] -= den
        yield best + 1


def cell_column_chunks(probs: ProbabilityVector | Sequence[Fraction], n: int) -> Iterator[array]:
    """Cell columns (``_chunks``, sized by value slots) of trials 1..n, arguments checked
    first: trial t goes to the cell with the largest deficit t*p_k - a_k(t-1) (lowest index
    on ties; exact integers)."""
    _, den, nums = _shares(probs)
    if n < 0:
        raise ValueError("trial count must be non-negative")
    return _chunks(den, nums, n)


TILE_SLOTS = 1 << 17  # the most value slots (den rows of m + 1) a one-period tile may hold


def _chunks(den: int, nums: list[int], n: int) -> Iterator[array]:
    """The cells of trials 1..n as ``array('I')`` columns, sized by value slots: a row
    has m + 1 (its cell and m counts), and a chunk's budget is ``ROWS_PER_CHUNK`` slots.
    A period of at most ``TILE_SLOTS`` slots is run once, checked and repeated into
    ``tile``, as many whole periods as fit the budget or else the one period, so every
    full chunk is that one object; a longer period runs the loop, in chunks of the
    budget's rows but at least 64."""
    m, size = len(nums), freq_seq.ROWS_PER_CHUNK
    slots = den * (m + 1)  # the period's
    if slots <= TILE_SLOTS:
        period = array("I", _cells(den, nums, den))
        if list(map(period.count, range(1, m + 1))) != nums:
            raise RuntimeError(f"greedy deficits are not all 0 at trial {den}")
        tile = period * max(size // slots, 1)
        yield from (tile if n - lo >= len(tile) else tile[:n - lo] for lo in range(0, n, len(tile)))
    else:
        rows, cells = _slot_rows(m), _cells(den, nums, n)
        yield from (array("I", islice(cells, rows)) for _ in range(0, n, rows))


def _slot_rows(m: int) -> int:
    """The rows of m + 1 value slots in a chunk's budget of ``ROWS_PER_CHUNK``, at least 64."""
    return max(freq_seq.ROWS_PER_CHUNK // (m + 1), 64)


def build_cell_sequences(
    probs: ProbabilityVector | Sequence[Fraction], n: int
) -> tuple[CellAssignment, list[CumulativeSequence]]:
    """The greedy assignment of trials 1..n (see ``cell_column_chunks``) as a table."""
    assignment = CellAssignment(tuple(chain(*cell_column_chunks(probs, n))), len(probs))
    return assignment, _count_sequences(assignment.entries, len(probs))


def _count_sequences(cells: Sequence[int], m: int) -> list[CumulativeSequence]:
    """Each cell k's running counts a_k(1), ..., a_k(n) over int cells, built without
    ``CumulativeSequence``'s check: exact ints from 0 that step by 0 or 1."""
    return [_unchecked(CumulativeSequence, "terms",
                       tuple(islice(accumulate(map(eq, cells, repeat(k)), initial=0), 1, None)))
            for k in range(1, m + 1)]


@dataclass(frozen=True)
class CellTableReport:
    membership: bool  # every cell column is a cumulative-success sequence
    one_hot: bool  # exactly one cell increments at each trial
    conservation: bool  # cell counts sum to t after trial t

    @property
    def all_ok(self) -> bool:
        return self.membership and self.one_hot and self.conservation


def _columns(sequences: Sequence, probs: Sequence[Fraction]) -> tuple[list[tuple], int, list[int]]:
    """The cell columns as term tuples of one length, one per cell, and the integer shares."""
    _, den, nums = _shares(probs)
    tables = [s.terms if isinstance(s, CumulativeSequence) else tuple(s) for s in sequences]
    if len(tables) != len(nums):
        raise ValueError("one sequence per cell is required")
    if len(set(map(len, tables))) > 1:
        raise ValueError("cell sequences must share one length")
    return tables, den, nums


def validate_cell_table(
    sequences: Sequence[CumulativeSequence | Iterable[int]],
    probs: ProbabilityVector | Sequence[Fraction],
) -> CellTableReport:
    """Check a per-cell count table against the joint bookkeeping rules.

    Accepts raw term lists as well, so tables that violate the constraints
    can be diagnosed rather than rejected at construction.  Only those are
    scanned for unit steps: a ``CumulativeSequence`` was checked when built.
    """
    sequences = list(sequences)
    tables, _, _ = _columns(sequences, probs)
    membership = all(
        isinstance(s, CumulativeSequence) or check_cumulative_form(t).ok
        for s, t in zip(sequences, tables)
    )
    conservation = list(map(sum, zip(*tables))) == list(range(1, len(tables[0]) + 1))
    # With integer counts stepping by 0 or 1 in every column, a row sum
    # stepping by 1 means exactly one column stepped: one-hot is membership
    # plus conservation.
    return CellTableReport(membership, membership and conservation, conservation)


def discrepancy(
    sequences: Sequence[CumulativeSequence | Iterable[int]],
    probs: ProbabilityVector | Sequence[Fraction],
) -> Fraction:
    """Exact max over cells and trials of |a_k(t) - t*p_k|, in integers as
    |a_k(t)*den - t*nums[k]|.

    A raw column is scanned a trial at a time.  A ``CumulativeSequence`` column
    steps by 0 or 1, so it is read at its change points: its blocks of equal
    terms start at trial 1 and at each trial t_i whose term differs from the one
    before, the i-th holding a(1) + i.  In a block the value falls by num a
    trial, so its largest is at its start, (a(1) + i)*den - t_i*num, and its
    smallest at its end: the next block's start value - den + num, or
    a(n)*den - n*num for the last block.  The arithmetic runs once per block, not
    once per trial: in a one-hot table of n trials, m columns hold at most n + m blocks.
    """
    sequences = list(sequences)
    tables, den, nums = _columns(sequences, probs)
    worst = 0
    for seq, table, num in zip(sequences, tables, nums):
        if isinstance(seq, CumulativeSequence) and table:
            starts = compress(count(1), map(ne, table, chain((-1,), table)))
            highs = list(map(sub, count(table[0] * den, den), map(mul, starts, repeat(num))))
            ends = chain(map(add, islice(highs, 1, None), repeat(num - den)),
                         (table[-1] * den - len(table) * num,))
            worst = max(worst, max(highs), -min(ends))
        else:  # |a_k(t)*den - t*nums[k]| for t = 1, 2, ...; count(0, 0) serves a zero share
            gaps = map(abs, map(sub, map(mul, table, repeat(den)), count(num, num)))
            worst = max(worst, max(gaps, default=0))
    return Fraction(worst, den)


@dataclass(frozen=True)
class OneHotTrial:
    """One statement per cell for a single trial, exactly one being an event."""

    coordinates: tuple[Statement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        if not self.coordinates:
            raise ValueError("trial tuple needs at least one coordinate")
        labels = {s.label for s in self.coordinates}
        kinds = [s.kind for s in self.coordinates]
        if len(labels) != 1 or None in labels:
            raise ValueError("coordinates must share one trial label")
        if kinds.count(StatementKind.EVENT) != 1 or StatementKind.SOURCE in kinds:
            raise ValueError("exactly one coordinate must be the event outcome")

    @property
    def trial(self) -> int:
        return self.coordinates[0].label  # type: ignore[return-value]

    @property
    def cell(self) -> int:
        for k, s in enumerate(self.coordinates, 1):
            if s.kind is StatementKind.EVENT:
                return k
        raise AssertionError("unreachable: validated one-hot")


def trials_to_tuples(assignment: CellAssignment, m: int) -> list[OneHotTrial]:
    """Expand an assignment into per-trial one-hot statement tuples.

    Every entry is checked against m before any tuple is built.  A checked
    ``CellAssignment`` holds ints in 1..m, so each trial's tuple has one label t,
    exactly one event and no source: its statements and the ``OneHotTrial`` are
    built without their ``__post_init__`` checks.
    """
    if m < 1:
        raise ValueError("tuple arity must be positive")
    entries = assignment.entries
    if entries and max(entries) > m:
        t, entry = next((t, entry) for t, entry in enumerate(entries, 1) if entry > m)
        raise ValueError(f"trial {t} assigned to cell {entry}, beyond arity {m}")
    out = []
    for t, entry in enumerate(entries, 1):
        yes, no = _labeled(StatementKind.EVENT, t), _labeled(StatementKind.NON_EVENT, t)
        coordinates = (no,) * (entry - 1) + (yes,) + (no,) * (m - entry)
        out.append(_unchecked(OneHotTrial, "coordinates", coordinates))
    return out


def cell_operator_realization(
    probs: ProbabilityVector | Sequence[Fraction], n: int, t: int
) -> OneHotTrial:
    """Trial t's one-hot tuple reproduced through the product-operator route.

    Builds per-cell operators attaching trial t's outcome statement for the
    greedy assignment, then realizes their product on all-source tuples.
    Must agree with ``trials_to_tuples`` on the same assignment.
    """
    # Imported here so that gen-dist, which does not call this, does not load closure_ops.
    from .closure_ops import SourceConditionalOperator, realize_product

    probs, den, nums = _shares(probs)
    if not 1 <= t <= n:
        raise ValueError("trial index out of range")
    cell = next(islice(_cells(den, nums, t), (t - 1) % den, None))  # cells repeat every den
    source = source_statement()
    ops = [
        SourceConditionalOperator(frozenset({event(t) if cell == k else non_event(t)}), source)
        for k in range(1, len(probs) + 1)
    ]
    (coords,) = realize_product(ops, {(source,) * len(probs)})
    return OneHotTrial(coords)


def _header(m: int) -> list[str]:
    return ["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)]


def cell_chunks(columns: Iterable[Sequence[int]], m: int, fmt: str) -> Iterator[str]:
    """Render cell columns of any length (see ``_chunks``) as CSV (header first) or JSON lines.

    Row t holds trial t's cell and the counts a_k(t) of trials through t whose cell is
    k: for ints, the bytes of ``csv.writer``, or of ``json.dumps`` on ``{"trial": t,
    "cell": cell, "counts": [a_1, ..., a_m]}``.  A column's cells are checked as by
    ``CellAssignment`` unless it is an ``array('I')`` equal to the last column checked
    (in a list, 1.0 or True equals 1).  Running counts of checked cells step by 0 or 1
    and need no check.  Each checked column gets one ``itemgetter`` of its rows from the
    strings of ``range(m + 1)`` and of each count's ``range`` in the chunk.
    """
    if fmt == "csv":
        yield ",".join(_header(m)) + "\n"
    done, counts, last = 0, [0] * m, None  # rows and a_1, ..., a_m so far; the last column checked
    for column in filter(len, columns):  # a column without rows writes nothing
        start, done = done, done + len(column)
        if not (type(column) is array and column.typecode == "I" and column == last):
            _check_cells(column, m, start)
            last = gather = None  # the last column's copy and gather go before this one's are built
            steps = [array("I", accumulate(map(eq, column, repeat(k)))) for k in range(1, m + 1)]
            sizes = [idx[-1] + 1 for idx in steps]  # each count's values in the chunk
            picks = [map(list(range(lo, lo + size)).__getitem__, idx)  # one int per pool place
                     for idx, lo, size in zip(steps, accumulate(sizes, initial=m + 1), sizes)]
            gather = itemgetter(*chain.from_iterable(zip(column, *picks)))
            del steps, picks  # keep the gather alone, without its index arrays and pool places
            last = column[:]
        del column  # read on without the chunk
        pools = [range(a, a + size) for a, size in zip(counts, sizes)]
        counts = [pool[-1] for pool in pools]
        text = freq_seq._numbered(start + 1, done + 1, _pattern(m, fmt)) % gather(
            list(map(str, chain(range(m + 1), *pools))))
        yield text
        del text


def _pattern(m: int, fmt: str) -> str:
    """The row pattern for ``freq_seq._numbered``: t at k, then the cell and a_1, ..., a_m."""
    if fmt == "csv":
        return "k" + ",%s" * (m + 1) + "\n"
    return '{"trial": k, "cell": %s, "counts": [' + ", ".join(["%s"] * m) + "]}\n"


def cell_csv(assignment: CellAssignment, sequences: Sequence[CumulativeSequence]) -> str:
    """The CSV of ``cell_chunks`` for a table, ``_slot_rows(m)`` rows at a time, as
    ``_chunks`` sizes its loop's chunks, so the memory it holds beside the text does not
    grow with m.  Its columns were checked when they were built; its counts need not
    agree with its cells."""
    n, m = len(assignment), len(sequences)
    size = _slot_rows(m)
    if m != assignment.cell_count:
        raise ValueError("one sequence per cell is required")
    columns = [assignment.entries, *(seq.terms for seq in sequences)]
    if len(set(map(len, columns))) > 1:
        raise ValueError("cell sequences must share one length")
    text = ",".join(_header(m)) + "\n"
    for lo in range(0, n, size):  # CPython grows a str held once in place: no slice list beside it
        text += freq_seq._numbered(lo + 1, min(lo + size, n) + 1, _pattern(m, "csv")) % tuple(
            chain.from_iterable(zip(*(column[lo:lo + size] for column in columns))))
    return text


def cell_table_from_csv(text: str) -> tuple[CellAssignment, list[CumulativeSequence]]:
    """Parse ``cell_csv`` output back.  After the header, row t must be m + 2
    non-empty ASCII-digit fields, the first ``str(t)``, and every line must end
    in a newline; anything else raises ``ValueError`` naming the row."""
    table = _table_by_cells(text)
    return _table_by_rows(text) if table is None else table


def _table_by_cells(text: str) -> tuple[CellAssignment, list[CumulativeSequence]] | None:
    """The table if the counts derived from the cell column render every row
    back as written (so the per-row parse reads the same ints), else None."""
    lines = text.split("\n")
    m, rows = lines[0].count(",") - 1, lines[1:-1]
    if (m < 1 or not rows or lines[-1] or lines[0] != ",".join(_header(m))
            or text.count(",") != (len(rows) + 1) * (m + 1)):  # m columns n long fit the text
        return None
    try:
        texts = [row.split(",", 2)[1] for row in rows]
        digits = "".join(texts)
        if not (digits.isascii() and digits.isdigit()):
            return None
        cells = list(map(int, texts))
    except (IndexError, ValueError):  # a short row, an empty field, a huge number
        return None
    sequences = _count_sequences(cells, m)
    pool = list(map(str, range(len(rows) + 1)))
    counts = (map(pool.__getitem__, seq.terms) for seq in sequences)
    if not all(map(eq, map(",".join, zip(pool[1:], texts, *counts)), rows)):
        return None
    return CellAssignment(cells, m), sequences


def _table_by_rows(text: str) -> tuple[CellAssignment, list[CumulativeSequence]]:
    """``cell_table_from_csv`` one row at a time: each row's fields checked and parsed."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if header[:2] != ["t", "assigned_cell"]:
        raise ValueError("missing cell CSV header")
    m = len(header) - 2
    if m < 1 or header != _header(m) or len(lines) == 1:
        raise ValueError("malformed cell CSV header")
    fields: list[str] = []
    for expected, line in enumerate(lines[1:-1], 1):
        row = line.split(",")
        if len(row) != m + 2 or row[0] != str(expected) or "" in row or not (
                line.isascii() and "".join(row).isdigit()):
            raise ValueError(f"inconsistent cell CSV row {expected}")
        fields += row
    if lines[-1]:  # the last row has no final newline
        raise ValueError(f"inconsistent cell CSV row {len(lines) - 1}")
    try:
        ints = list(map(int, fields))
    except ValueError:  # a field past int's digit limit is no cell or count; -1 fails where it does
        ints = list(map(freq_seq._digits_int, fields))
    _, chosen, *columns = (tuple(ints[k :: m + 2]) for k in range(m + 2))
    return CellAssignment(chosen, m), [CumulativeSequence(col) for col in columns]
