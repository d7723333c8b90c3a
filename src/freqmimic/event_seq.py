"""Labeled trial outcomes and their source-conditional generators.

A cumulative-success prefix determines one binary outcome per trial (its
difference sequence, a ``freq_seq.BinaryTrialSequence``), each trial gets a
labeled statement (``E_j`` on success, ``E'_j`` otherwise), and the whole
labeled prefix becomes the attachment set of a single source-conditional
operator.  Realizing that operator on the bare source recovers exactly the
labeled outcomes, and the operator itself is the join of the per-trial
singleton operators.  Only that route, ``trace_operator`` and
``realize_trace``, loads ``closure_ops``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import lt, mod, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator

from . import freq_seq
from .freq_seq import BinaryTrialSequence, CumulativeSequence, canonical_prefix, check_canonical
from .freq_seq import _numbered, _unchecked
from .language_core import Statement, StatementKind, event, non_event, source_statement

if TYPE_CHECKING:
    from .closure_ops import SourceConditionalOperator


@dataclass(frozen=True)
class LabeledEventSequence:
    """Outcome statements for trials 1..n, in trial order."""

    entries: tuple[Statement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for j, entry in enumerate(self.entries, 1):
            if entry.kind is StatementKind.SOURCE or entry.label != j:
                raise ValueError(f"entry {j} must be an outcome statement labeled {j}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.entries)

    def text(self) -> str:
        return " ".join(str(entry) for entry in self.entries)


def to_binary(seq: CumulativeSequence) -> BinaryTrialSequence:
    """Difference sequence: bit j = a(j) - a(j-1) with a(0) = 0.

    Prefixes are stable: the first m bits depend only on the first m terms.
    The bits are built unchecked: a checked sequence's steps are ints, each 0 or 1.
    """
    return _unchecked(BinaryTrialSequence, "bits",
                      tuple(map(sub, seq.terms, itertools.chain((0,), seq.terms))))


def from_binary(bits: Iterable[int]) -> CumulativeSequence:
    """Prefix sums; inverse of ``to_binary``.  The bits are checked once, not again as steps."""
    checked = BinaryTrialSequence(tuple(bits))
    return _unchecked(CumulativeSequence, "terms", tuple(itertools.accumulate(checked.bits)))


def label_events(bits: BinaryTrialSequence) -> LabeledEventSequence:
    """Trial j becomes E_j on outcome 1 and E'_j on outcome 0."""
    entries = tuple(
        event(j) if bit else non_event(j) for j, bit in enumerate(bits.bits, 1)
    )
    return LabeledEventSequence(entries)


def trace_operator(p: Fraction | int, n: int) -> SourceConditionalOperator:
    """The source-conditional operator attaching the n labeled outcomes for p.

    Equal to the join of the n single-outcome operators; built directly
    from the union since the join within the family is attachment union.
    """
    from .closure_ops import SourceConditionalOperator
    labeled = label_events(to_binary(canonical_prefix(p, n)))
    return SourceConditionalOperator(frozenset(labeled.entries), source_statement())


def realize_trace(p: Fraction | int, n: int) -> LabeledEventSequence:
    """Realize the trace operator on the bare source, in trial order.

    Goes through the operator: realize C(outcomes, {G}) on {G} and sort the
    produced statements by trial label.
    """
    from .closure_ops import realize
    op = trace_operator(p, n)
    produced = realize(op, {op.source})
    ordered = sorted(produced, key=lambda s: s.label or 0)
    return LabeledEventSequence(tuple(ordered))


# realize's parts: the head, one trial's pattern (separator first), its fills by bit
_PARTS = {
    "csv": (("", " %s_k", ("E'", "E")), ("\nC({", ",%s_k", ("E'", "E"))),
    "json": (('{"trials": [', ', {"trial": k, "event": %s}', ("false", "true")),
             ('], "operator": "C({', ",%s_k", ("E'", "E"))),
}


def trace_chunks(p: Fraction | int, n: int, fmt: str) -> Iterator[str]:
    """``realize``'s output for p and n as CSV or JSON text, a chunk at a time.

    Both parts list the labeled outcomes in trial order: the trace
    ``E'_1 E_2 ...`` and the operator ``C({E'_1,E_2,...},{G})``, whose
    attachments sort by label because each label carries one outcome.  So
    each part is rendered a chunk of trials at a time by ``freq_seq._numbered``,
    and the text equals ``realize_trace(p, n).text()`` and
    ``canonical_form(trace_operator(p, n))`` on two lines, or ``json.dumps``
    of ``{"trials": rows, "operator": form}`` on one.  The arguments are
    checked here, before the first chunk.

    No term a(k) = floor(k*num/den) is built or checked: trial k's outcome is
    ``k*num % den < num``.  With r = (k-1)*num mod den, 0 <= r + num < 2*den, so
    a(k) - a(k-1) = (r + num) // den is 1 exactly when r + num >= den, and then
    k*num mod den = r + num - den < num; otherwise it is r + num >= num.  At
    p = 1 this reads 0 < 1 and at p = 0 it reads 0 < 0, both right.
    """
    num, den = check_canonical(p, n)
    return _trace_chunks(num, den, n, fmt)


def _outcomes(num: int, den: int, lo: int, hi: int) -> Iterator[bool]:
    """The canonical outcomes of trials lo..hi-1 for num/den (see ``trace_chunks``)."""
    return map(lt, map(mod, map(mul, range(lo, hi), itertools.repeat(num)),
                       itertools.repeat(den)), itertools.repeat(num))


def _trace_chunks(num: int, den: int, n: int, fmt: str) -> Iterator[str]:
    for head, pattern, labels in _PARTS[fmt]:
        yield head
        for lo in range(1, n + 1, freq_seq.ROWS_PER_CHUNK):
            hi = min(lo + freq_seq.ROWS_PER_CHUNK, n + 1)
            outcomes = map(labels.__getitem__, _outcomes(num, den, lo, hi))
            text = _numbered(lo, hi, pattern) % tuple(outcomes)
            yield text.lstrip(", ") if lo == 1 else text  # no separator before trial 1
            del text  # build the next chunk without this one
    yield "},{G})\n" if fmt == "csv" else '},{G})"}\n'
