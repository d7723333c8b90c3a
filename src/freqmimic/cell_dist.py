"""Distributing trials over cells with prescribed per-cell frequencies.

Given a rational probability vector, trials are assigned one cell each so
that every cell's success count stays within one of its ideal share t*p_k.
Per-trial outcomes re-emerge as one-hot statement tuples, matching the
coordinatewise product of per-cell source-conditional operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .closure_ops import SourceConditionalOperator, realize_product
from .freq_seq import CumulativeSequence, check_cumulative_form, parse_probability
from .language_core import Statement, StatementKind, event, non_event, source_statement


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
        for t, entry in enumerate(self.entries, 1):
            if not 1 <= entry <= self.cell_count:
                raise ValueError(f"trial {t} assigned outside 1..{self.cell_count}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def _shares(
    probs: ProbabilityVector | Sequence[Fraction],
) -> tuple[ProbabilityVector, int, list[int]]:
    """The validated vector and its cells as integer shares ``nums[k] / den``."""
    probs = probs if isinstance(probs, ProbabilityVector) else ProbabilityVector(tuple(probs))
    den = math.lcm(*(p.denominator for p in probs))
    return probs, den, [p.numerator * (den // p.denominator) for p in probs]


def build_cell_sequences(
    probs: ProbabilityVector | Sequence[Fraction], n: int
) -> tuple[CellAssignment, list[CumulativeSequence]]:
    """Greedy largest-deficit assignment of trials 1..n to cells.

    Trial t goes to the cell maximizing the deficit t*p_k - a_k(t-1), ties
    to the lowest index.  Deficits are compared in integers over the common
    denominator of the probabilities, so the choice is exact.
    """
    probs, den, nums = _shares(probs)
    if n < 0:
        raise ValueError("trial count must be non-negative")
    m = len(probs)
    counts = [0] * m
    chosen: list[int] = []
    columns: list[list[int]] = [[] for _ in range(m)]
    for t in range(1, n + 1):
        best = 0
        best_score = t * nums[0] - counts[0] * den
        for k in range(1, m):
            score = t * nums[k] - counts[k] * den
            if score > best_score:
                best, best_score = k, score
        counts[best] += 1
        chosen.append(best + 1)
        for k in range(m):
            columns[k].append(counts[k])
    assignment = CellAssignment(tuple(chosen), m)
    return assignment, [CumulativeSequence(tuple(col)) for col in columns]


@dataclass(frozen=True)
class CellTableReport:
    membership: bool  # every cell column is a cumulative-success sequence
    one_hot: bool  # exactly one cell increments at each trial
    conservation: bool  # cell counts sum to t after trial t

    @property
    def all_ok(self) -> bool:
        return self.membership and self.one_hot and self.conservation


def _as_terms(seq: CumulativeSequence | Iterable[int]) -> tuple[int, ...]:
    if isinstance(seq, CumulativeSequence):
        return seq.terms
    return tuple(seq)


def validate_cell_table(
    sequences: Sequence[CumulativeSequence | Iterable[int]],
    probs: ProbabilityVector | Sequence[Fraction],
) -> CellTableReport:
    """Check a per-cell count table against the joint bookkeeping rules.

    Accepts raw term lists as well, so tables that violate the constraints
    can be diagnosed rather than rejected at construction.
    """
    probs, _, _ = _shares(probs)
    tables = [_as_terms(seq) for seq in sequences]
    if len(tables) != len(probs):
        raise ValueError("one sequence per cell is required")
    lengths = {len(t) for t in tables}
    if len(lengths) > 1:
        raise ValueError("cell sequences must share one length")
    n = lengths.pop() if lengths else 0

    membership = all(check_cumulative_form(t).ok for t in tables)

    one_hot = True
    prev = [0] * len(tables)
    for t in range(n):
        increments = [tables[k][t] - prev[k] for k in range(len(tables))]
        if sorted(increments) != [0] * (len(tables) - 1) + [1]:
            one_hot = False
            break
        prev = [tables[k][t] for k in range(len(tables))]

    conservation = all(
        sum(tables[k][t] for k in range(len(tables))) == t + 1 for t in range(n)
    )
    return CellTableReport(membership, one_hot, conservation)


def discrepancy(
    sequences: Sequence[CumulativeSequence | Iterable[int]],
    probs: ProbabilityVector | Sequence[Fraction],
) -> Fraction:
    """Exact max over cells and trials of |a_k(t) - t*p_k|."""
    probs, den, nums = _shares(probs)
    tables = [_as_terms(seq) for seq in sequences]
    if len(tables) != len(probs):
        raise ValueError("one sequence per cell is required")
    worst = 0
    for k, table in enumerate(tables):
        for t, a in enumerate(table, 1):
            gap = abs(a * den - t * nums[k])
            if gap > worst:
                worst = gap
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
    """Expand an assignment into per-trial one-hot statement tuples."""
    if m < 1:
        raise ValueError("tuple arity must be positive")
    for t, entry in enumerate(assignment.entries, 1):
        if entry > m:
            raise ValueError(f"trial {t} assigned to cell {entry}, beyond arity {m}")
    out = []
    for t, entry in enumerate(assignment.entries, 1):
        coords = tuple(
            event(t) if k == entry else non_event(t) for k in range(1, m + 1)
        )
        out.append(OneHotTrial(coords))
    return out


def cell_operator_realization(
    probs: ProbabilityVector | Sequence[Fraction], n: int, t: int
) -> OneHotTrial:
    """Trial t's one-hot tuple reproduced through the product-operator route.

    Builds per-cell operators attaching trial t's outcome statement for the
    greedy assignment, then realizes their product on all-source tuples.
    Must agree with ``trials_to_tuples`` on the same assignment.
    """
    probs, _, _ = _shares(probs)
    if not 1 <= t <= n:
        raise ValueError("trial index out of range")
    assignment, _ = build_cell_sequences(probs, t)  # greedy tables are prefix-stable
    m = len(probs)
    source = source_statement()
    ops = [
        SourceConditionalOperator(
            frozenset({event(t) if assignment.entries[t - 1] == k else non_event(t)}),
            source,
        )
        for k in range(1, m + 1)
    ]
    produced = realize_product(ops, {(source,) * m})
    (coords,) = produced
    return OneHotTrial(coords)


def cell_csv(assignment: CellAssignment, sequences: Sequence[CumulativeSequence]) -> str:
    """CSV with columns t, assigned_cell, a_1, ..., a_m."""
    m = len(sequences)
    header = ",".join(["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)])
    rows = zip(
        range(1, len(assignment) + 1),
        assignment.entries,
        *(seq.terms for seq in sequences),
        strict=True,
    )
    return header + "\n" + "".join([",".join(map(str, row)) + "\n" for row in rows])


def cell_table_from_csv(text: str) -> tuple[CellAssignment, list[CumulativeSequence]]:
    """Parse ``cell_csv`` output back into an assignment and cell columns."""
    # Imported here so that ``import freqmimic`` does not load csv.
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["t", "assigned_cell"]:
        raise ValueError("missing cell CSV header")
    m = len(rows[0]) - 2
    if m < 1 or rows[0][2:] != [f"a_{k}" for k in range(1, m + 1)]:
        raise ValueError("malformed cell CSV header")
    chosen = []
    columns: list[list[int]] = [[] for _ in range(m)]
    for expected, row in enumerate(rows[1:], 1):
        values = [int(field) for field in row]
        if values[0] != expected:
            raise ValueError(f"inconsistent cell CSV row {expected}")
        chosen.append(values[1])
        for k in range(m):
            columns[k].append(values[2 + k])
    assignment = CellAssignment(tuple(chosen), m)
    return assignment, [CumulativeSequence(tuple(col)) for col in columns]


def cell_json_rows(
    assignment: CellAssignment, sequences: Sequence[CumulativeSequence]
) -> list[dict]:
    return [
        {
            "trial": t,
            "cell": cell,
            "counts": [seq.terms[t - 1] for seq in sequences],
        }
        for t, cell in enumerate(assignment.entries, 1)
    ]
