"""Cumulative-success sequences with prescribed limiting frequencies.

A cumulative-success sequence counts successes through trial k: its first
term is 0 or 1 and consecutive terms grow by 0 or 1.  The canonical
prefix construction for a rational probability p keeps the running
frequency within 1/k of p at every trial k; companion constructions give
distinct sequences with the same limit, frozen tails, and oscillating
frequencies that never converge.  ``BinaryTrialSequence`` holds the 0/1
steps.  All core arithmetic is exact: p is a ``fractions.Fraction`` and
comparisons use integer cross-multiplication, and every term is an exact
``int``.  The writers fill each row's one slot from a chunk's pool of value
texts.  Terms are checked once, where they enter: the generated sequences and
streams (``canonical_prefix``, ``build_nonconvergent``, ``canonical_chunks``,
``nonconvergent_chunks``) are unit-step by construction and are built and
rendered unchecked, and ``sequence_csv`` renders terms its class has checked.
``sequence_from_csv`` reads only the layout ``sequence_csv`` writes, a piece of
text at a time.  Its terms step by 0 or 1, so a piece is read at its change points,
the rows whose term differs from the row before; only pieces whose changed texts
are not the next counts in canonical digits go through ``int`` and the step check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import countOf, floordiv, mul, ne, sub
from typing import Iterable, Iterator, NamedTuple, Sequence


def parse_probability(text: str) -> Fraction:
    """Parse 'num/den' or exact decimal text ('0.25' becomes 1/4).

    A decimal exponent above 4,300 in magnitude (Python's limit on the digits
    of an int read from text) is rejected before ``Fraction`` computes 10**e.
    A text that does not parse, or whose value is out of range, is named cut
    to 64 characters, so a huge one is not printed in full.
    """
    _, e, exponent = text.upper().partition("E")
    try:
        if e and abs(int(exponent)) > 4300:
            raise ValueError("exponent out of range")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse probability: {text[:64]!r}") from exc
    if not 0 <= value <= 1:
        raise ValueError(f"probability out of range: {text[:64]}")
    return value


def check_probability(value: Fraction | int) -> Fraction:
    value = Fraction(value)
    if value < 0 or value > 1:  # a long int's text is slow or refused: name it by its bits
        num, den = value.numerator.bit_length(), value.denominator.bit_length()
        name = value if num + den <= 128 else f"{'-' * (value < 0)}{num}-bit/{den}-bit fraction"
        raise ValueError(f"probability out of range: {name}")
    return value


class FormCheck(NamedTuple):
    ok: bool
    violation_index: int | None  # 1-based index of the first bad term


def _first_non_bit(values: Sequence) -> int | None:
    """0-based index of the first entry ``countOf`` counts as neither 0 nor 1, or None."""
    if countOf(values, 0) + countOf(values, 1) == len(values):
        return None
    return next(i for i, value in enumerate(values) if value not in (0, 1))


def _first_bad_step(terms: Sequence[int], prev: int = 0) -> int | None:
    """0-based index of the first term not 0 or 1 above its predecessor, a(0) = ``prev``."""
    return _first_non_bit(list(map(sub, terms, chain((prev,), terms))))


def _typed(terms: Sequence) -> Sequence:
    """The longest prefix of ``terms`` that holds exact ints alone (``terms`` itself if
    all are): the step checks count ``True`` and ``1.0`` as 1, so they see only this."""
    if countOf(map(type, terms), int) == len(terms):
        return terms
    return terms[:next(i for i, term in enumerate(terms) if type(term) is not int)]


def _form_error(index: int) -> ValueError:
    return ValueError(f"not a cumulative-success sequence at index {index}")


def check_cumulative_form(terms: Iterable[int]) -> FormCheck:
    """Check the cumulative-success constraints: a(1) in {0, 1}, unit steps."""
    bad = _first_bad_step(terms if isinstance(terms, (list, tuple)) else list(terms))
    return FormCheck(True, None) if bad is None else FormCheck(False, bad + 1)


@dataclass(frozen=True)
class CumulativeSequence:
    """An immutable success-count prefix a(1), ..., a(n) of exact ints."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        typed = _typed(self.terms)
        ok, index = check_cumulative_form(typed)
        if not ok or len(typed) < len(self.terms):
            raise _form_error(index or len(typed) + 1)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)


@dataclass(frozen=True)
class BinaryTrialSequence:
    """Immutable 0/1 outcomes, one per trial: the steps of a ``CumulativeSequence``."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        object.__setattr__(self, "bits", bits)
        try:  # bytes rejects floats, Fractions and values past 255 but lets True through
            ok = not bytes(bits).translate(None, b"\0\1") and countOf(map(type, bits), int) == len(bits)
        except (TypeError, ValueError):
            ok = False
        if not ok:  # name the first bad trial; countOf counts True and 1.0 as 1
            bad = _first_non_bit(bits)
            bad = next((i for i, bit in enumerate(bits[:bad]) if type(bit) is not int), bad)
            raise ValueError(f"trial {bad + 1} outcome must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    @property
    def ones(self) -> int:
        return sum(self.bits)


class FrequencyPoint(NamedTuple):
    """A (trial, successes) pair; the pair itself is the datum, unreduced."""

    trial: int
    successes: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.successes, self.trial)


def frequency_points(seq: CumulativeSequence) -> list[FrequencyPoint]:
    return [FrequencyPoint(k, a) for k, a in enumerate(seq.terms, 1)]


def _unchecked(cls: type, field: str, value):
    """A one-field frozen dataclass ``cls`` holding a value valid by construction,
    built without its ``__post_init__`` check."""
    obj = object.__new__(cls)
    object.__setattr__(obj, field, value)
    return obj


def check_canonical(p: Fraction | int, n: int, m: int | None = None) -> tuple[int, int]:
    """p's numerator and denominator, once p, n and m pass ``canonical_terms``' checks."""
    p = check_probability(p)
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if m is not None and not 1 <= m <= n:
        raise ValueError("freeze index out of range")
    return p.numerator, p.denominator


def canonical_terms(p: Fraction | int, n: int, m: int | None = None) -> Iterator[int]:
    """a(1), ..., a(n) of the canonical sequence tracking p.

    For p < 1 term k is the unique j with j/k <= p < (j+1)/k, which is
    floor(k*p); this covers p = 0.  For p = 1 no such half-open bracket
    exists and the all-success sequence a(k) = k = floor(k*p) is used.
    With a freeze index m the terms after trial m hold a(m), as
    ``truncate_freeze`` does.  The arguments are checked here, before the
    first term is produced.
    """
    num, den = check_canonical(p, n, m)
    trials = range(1, (n if m is None else m) + 1)
    terms = map(floordiv, map(mul, trials, repeat(num)), repeat(den))
    return terms if m is None else chain(terms, repeat(m * num // den, n - m))


def canonical_prefix(p: Fraction | int, n: int) -> CumulativeSequence:
    """First n terms of the canonical sequence tracking probability p, built unchecked:
    with 0 <= p <= 1, floor(k*p) steps by 0 or 1 from a(0) = 0 (see ``canonical_chunks``)."""
    return _unchecked(CumulativeSequence, "terms", tuple(canonical_terms(p, n)))


class DeviationCheck(NamedTuple):
    max_deviation: Fraction
    within_bound: bool  # every |a(k)/k - p| <= 1/k


def max_deviation(seq: CumulativeSequence, p: Fraction | int) -> DeviationCheck:
    """Exact max of |a(k)/k - p| plus the pointwise 1/k bound verdict.

    Works in integers: |a(k)/k - p| = |a(k)*den - k*num| / (k*den), and the
    1/k bound holds iff |a(k)*den - k*num| <= den.
    """
    p = check_probability(p)
    num, den = p.numerator, p.denominator
    best_num, best_den = 0, 1
    within = True
    for k, a in enumerate(seq.terms, 1):
        diff = abs(a * den - k * num)
        if diff > den:
            within = False
        if diff * best_den > best_num * k * den:
            best_num, best_den = diff, k * den
    return DeviationCheck(Fraction(best_num, best_den), within)


def variant_to_zero(m: int, n: int) -> CumulativeSequence:
    """Rise for m steps, then freeze: a(k) = min(k - 1, m); frequency -> 0."""
    return _variant(m, n, lambda k: min(k - 1, m))


def variant_to_one(m: int, n: int) -> CumulativeSequence:
    """Hold zero through trial m, then rise: a(k) = max(0, k - m); frequency -> 1."""
    return _variant(m, n, lambda k: max(0, k - m))


def _variant(m: int, n: int, term) -> CumulativeSequence:
    """A variant's terms term(1), ..., term(n), once m and n pass its checks.  For an
    int m they are ints from 0 that step by 0 or 1, built unchecked; any other m (a
    float gives float terms) goes through the check."""
    if m < 2:
        raise ValueError("variant parameter m must be at least 2")
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    terms = tuple(map(term, range(1, n + 1)))
    if type(m) is not int:
        return CumulativeSequence(terms)
    return _unchecked(CumulativeSequence, "terms", terms)


def backshift_variant(seq: CumulativeSequence, block_index: int) -> CumulativeSequence:
    """Shift success counts down by one before a repeated-count block.

    Terms at and after ``block_index`` are kept verbatim, and each earlier
    term a becomes max(a - 1, 0): terms never decrease, so once one would
    reach or pass zero, every term before it is zero too.  To keep the
    unit-step form at the junction, the term at ``block_index`` must repeat
    its predecessor (any index inside a repeated block works).  With that
    checked, the result of a checked sequence is built unchecked.
    """
    terms = seq.terms
    if not 1 <= block_index <= len(terms):
        raise ValueError("block index out of range")
    if block_index > 1 and terms[block_index - 1] != terms[block_index - 2]:
        raise ValueError("block index must sit inside a repeated-count block")
    shifted = tuple(max(a - 1, 0) for a in terms[:block_index - 1])
    return _unchecked(CumulativeSequence, "terms", shifted + terms[block_index - 1:])


def truncate_freeze(seq: CumulativeSequence, m: int, n: int) -> CumulativeSequence:
    """Copy a(1..m), then hold a(m) constant through trial n: built unchecked, as a
    checked prefix followed by steps of 0."""
    if not 1 <= m <= len(seq):
        raise ValueError("freeze index out of range")
    if n < m:
        raise ValueError("target length must be at least the freeze index")
    terms = seq.terms[:m] + (seq.terms[m - 1],) * (n - m)
    return _unchecked(CumulativeSequence, "terms", terms)


def nonconvergent_terms(low: Fraction, high: Fraction, n: int) -> Iterator[int]:
    """a(1), ..., a(n) of a sequence whose frequency never settles.

    Two phases alternate: an up phase adds a success each trial until the
    running frequency reaches ``high`` (equality counts as arrival), then a
    down phase holds the count until the frequency falls to ``low``.  The
    sequence starts at a(1) = 0, where the down phase has already arrived,
    so counting begins immediately.  The arguments are checked here, before
    the first term is produced.
    """
    low = check_probability(low)
    high = check_probability(high)
    if low >= high:
        raise ValueError("low bound must be strictly below high bound")
    if n < 1:
        raise ValueError("prefix length must be positive")
    phases = _phases(low.numerator, low.denominator, high.numerator, high.denominator, n)
    return chain.from_iterable(_joined(phases))


def _joined(phases: Iterable[tuple[int, int, int]]) -> Iterator[Iterable[int]]:
    """Each (first term, trials, step) phase as a ``range`` (step 1) or a ``repeat``
    (step 0) of its terms.  By type, a phase's own terms step by 1 or by 0, so
    only its first term can break the unit-step form: it is checked against the
    term before it (a(0) = 0), once per phase, and a bad one raises the
    ``CumulativeSequence`` error."""
    prev, done = 0, 0
    for first, trials, step in phases:
        if not 0 <= first - prev <= 1:
            raise _form_error(done + 1)
        yield range(first, first + trials) if step else repeat(first, trials)
        prev, done = first + (trials - 1 if step else 0), done + trials


def _phases(
    low_num: int, low_den: int, high_num: int, high_den: int, n: int
) -> Iterator[tuple[int, int, int]]:
    """The n terms of ``nonconvergent_terms`` a whole phase at a time, each phase
    as (first term, trials, step): step 1 counts up, step 0 holds.

    From a(k) = a, an up phase gives a + j - k at trial j and arrives at the
    first j > k with (a + j - k) * high_den >= j * high_num; a down phase
    gives a and arrives at the first j > k with a * low_den <= j * low_num.
    Each phase is cut at trial n, so none is longer than the trials still wanted.
    """
    k, a = 1, 0
    yield 0, 1, 0
    while k < n:
        # high = 1 needs a >= k, and a < k: the up phase does not arrive
        up = n if high_num == high_den else -(-(k - a) * high_den // (high_den - high_num))
        j = min(n, max(k + 1, up))
        yield a + 1, j - k, 1
        k, a = j, a + j - k
        # low = 0 needs a <= 0, and a >= 1 after an up phase: the down phase does not arrive
        down = n if low_num == 0 else -(-a * low_den // low_num)
        j = min(n, max(k + 1, down))
        yield a, j - k, 0
        k = j


def build_nonconvergent(low: Fraction, high: Fraction, n: int) -> CumulativeSequence:
    """The first n terms of ``nonconvergent_terms(low, high, n)``, built unchecked:
    ``_joined`` checks where each phase joins the last, and a phase steps by 1 or 0."""
    return _unchecked(CumulativeSequence, "terms", tuple(nonconvergent_terms(low, high, n)))


def count_phase_switches(seq: CumulativeSequence) -> int:
    """Number of boundaries between counting runs and holding runs."""
    steps = list(map(sub, seq.terms[1:], seq.terms))
    return sum(map(ne, steps, steps[1:]))


CSV_HEADER = ("n", "a_n", "freq_num", "freq_den")
_CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
ROWS_PER_CHUNK = 8192
PIECE = 1 << 18  # bytes of CSV text ``sequence_from_csv`` checks at a time


# A sequence row is its number k twice around one slot, filled with a(k)'s text
# from a pool of a chunk's values, each written twice in place of the letter k.
_ROW = {"csv": "k,%s,k\n", "json": '{"n": k, "a": %s, k]}\n'}
_POOL = {"csv": "k,k\0", "json": 'k, "freq": [k\0'}


def _numbered(lo: int, hi: int, pattern: str) -> str:
    """Rows lo..hi-1 of ``pattern``, with the row index in place of each letter k.

    Rows 100q to 100q+99 share the digits of q, so a block of them is one
    ``str.join`` with q's text as the separator rather than 100 rows of
    int-to-text conversions.  For q >= 1 each of its rows is a hundredth of
    the block, so a partial block is a slice of the whole one; rows below
    100 go one by one.
    """
    head = "".join(pattern.replace("k", str(k)) for k in range(lo, min(hi, 100)))
    lo = max(lo, 100)
    if lo >= hi:
        return head
    pieces = _block(pattern)
    blocks = [str(q).join(pieces) for q in range(lo // 100, (hi - 1) // 100 + 1)]
    first, last = len(blocks[0]) // 100, len(blocks[-1]) // 100  # their rows' lengths
    blocks[-1] = blocks[-1][:((hi - 1) % 100 + 1) * last]
    blocks[0] = blocks[0][lo % 100 * first:]
    return head + "".join(blocks)


@lru_cache(maxsize=16)
def _block(pattern: str) -> tuple[str, ...]:
    """Rows 00 to 99 of ``pattern`` split at each row index: ``str(q).join`` of
    them is rows 100q to 100q+99.  Kept per pattern, as every chunk renders one."""
    return tuple("".join(pattern.replace("k", f"k{d:02}") for d in range(100)).split("k"))


def _rendered(lo: int, a0: int, last: int, offsets: Iterable[int], fmt: str) -> str:
    """CSV or JSON rows ``lo``, ``lo + 1``, ... of the terms a0 + offset, for terms
    from a0 to ``last``: one pool of their texts, then one slot per row."""
    pool = _numbered(a0, last + 1, _POOL[fmt]).split("\0")
    values = tuple(map(pool.__getitem__, offsets))
    return _numbered(lo, lo + len(values), _ROW[fmt]) % values


def _chunk_rows(chunk: Sequence[int], lo: int, fmt: str) -> str:
    """Rows ``lo``, ``lo + 1``, ... of a non-empty chunk of non-decreasing exact ints."""
    return _rendered(lo, chunk[0], chunk[-1], map(sub, chunk, repeat(chunk[0])), fmt)


def _sequence_rows(chunks: Iterable[Sequence[int]], fmt: str) -> Iterator[str]:
    """The terms of ``chunks`` as CSV (header first) or JSON lines, one string per chunk:
    the bytes of ``csv.writer`` on ``(k, a, a, k)`` or ``json.dumps``."""
    if fmt == "csv":
        yield _CSV_HEADER_LINE
    # chunk i starts at row 1 + i * ROWS_PER_CHUNK: only the last chunk is short
    yield from map(_chunk_rows, chunks, count(1, ROWS_PER_CHUNK), repeat(fmt))


def canonical_chunks(p: Fraction | int, n: int, m: int | None, fmt: str) -> Iterator[str]:
    """The rows ``_sequence_rows`` writes for ``canonical_terms(p, n, m)``, each chunk
    from the closed form.

    No term is checked.  With 0 <= num <= den, a(k) = k*num // den steps by
    (x + num)//den - x//den, which is 0 or 1, from a(0) = 0; a frozen tail steps
    by 0.  Rows lo, ..., hi - 1 take offsets a(k) - a0 from a0 = a(lo): with
    r = lo*num - a0*den, a(k) - a0 = (r + (k - lo)*num) // den, a ``count``
    from r by num, floor-divided by den.  The arguments are checked here,
    before the first row.
    """
    num, den = check_canonical(p, n, m)
    return _canonical_rows(num, den, n, n if m is None else m, fmt)


def _canonical_rows(num: int, den: int, n: int, m: int, fmt: str) -> Iterator[str]:
    if fmt == "csv":
        yield _CSV_HEADER_LINE
    for lo in range(1, n + 1, ROWS_PER_CHUNK):
        hi = min(lo + ROWS_PER_CHUNK, n + 1)
        live = max(min(hi, m + 1), lo)  # rows lo..live-1 follow k*num // den, the rest hold a(m)
        a0 = min(lo, m) * num // den
        yield _rendered(lo, a0, min(hi - 1, m) * num // den, chain(
            map(floordiv, count(lo * num - a0 * den, num), repeat(den, live - lo)),
            repeat(m * num // den - a0, hi - live)), fmt)


def nonconvergent_chunks(low: Fraction, high: Fraction, n: int, fmt: str) -> Iterator[str]:
    """The rows ``_sequence_rows`` writes for ``nonconvergent_terms(low, high, n)``, unchecked:
    its phases were checked where they join, and each steps by 1 or 0 by type."""
    terms = nonconvergent_terms(low, high, n)
    return _sequence_rows(iter(lambda: list(islice(terms, ROWS_PER_CHUNK)), []), fmt)


def sequence_csv(seq: CumulativeSequence) -> str:
    """CSV with columns n, a_n, freq_num, freq_den (frequency unreduced), rendered a
    ``ROWS_PER_CHUNK`` slice at a time from terms the class has checked."""
    terms = seq.terms
    chunks = (terms[lo:lo + ROWS_PER_CHUNK] for lo in range(0, len(terms), ROWS_PER_CHUNK))
    return "".join(_sequence_rows(chunks, "csv"))


def sequence_from_csv(text: str) -> CumulativeSequence:
    """Parse ``sequence_csv`` output back into a sequence, a piece of text at a time.

    Only the writer's layout is read: the header line, then line k as ``k,a,a,k``
    with ``a`` non-empty ASCII digits, every line ending in a newline; the header
    alone is the empty sequence.  Any other text raises ``ValueError`` naming the
    header or the first row off that layout (a text without its final newline
    names its last row), before any term is checked as a ``CumulativeSequence``.

    A piece in the layout is read at its change points, the rows whose ``a`` text
    differs from the row before ("0" before row 1): if their texts are exactly
    a + 1, ..., a + J, with a the term before the piece, its terms step by 1 there
    and by 0 elsewhere, and are ``accumulate``d from a with no ``int`` or step
    check.  From the first piece that is not (a leading zero, a bad step, a term
    past the digit limit), every piece is read with ``int`` and checked for unit
    steps once the whole text has passed the layout check.
    """
    if not text.startswith(_CSV_HEADER_LINE):
        raise ValueError("missing sequence CSV header")
    terms, k, start, a, read = [], 1, len(_CSV_HEADER_LINE), 0, 0  # terms[:read], from change points, end at a
    while start < len(text):
        end = text.find("\n", start + PIECE) + 1 or len(text)  # whole rows, from row k
        fields = text[start:end].split(",")  # row k gives a, a, "k\nk+1" ("k\n" if last)
        column = fields[1::3]
        layout = (len(fields) % 3 == 1 and fields[2::3] == column
                  and _numbered(k, k + len(column), "k,k\n") == ",".join(fields[0::3]))
        if layout and read == len(terms):
            steps = list(map(ne, column, chain((str(a),), column)))
            changed = list(compress(column, steps))
            if "\0".join(changed) == _numbered(a + 1, a + 1 + len(changed), "k\0")[:-1]:
                terms += islice(accumulate(steps, initial=a), 1, None)
                k, start, a, read = k + len(column), end, a + len(changed), len(terms)
                continue
        digits = "".join(column)
        if not (layout and digits.isascii() and digits.isdigit() and all(column)):
            *rows, _ = text[start:end].split("\n")
            bad = next((i for i, row in enumerate(rows, k) if not _is_row(i, row)), k + len(rows))
            raise ValueError(f"inconsistent sequence CSV row {bad}")
        try:
            terms += map(int, column)
        except ValueError:  # a term past int's digit limit is no a(k) <= k; -1 fails where it does
            terms[k - 1:] = map(_digits_int, column)  # over any terms of this piece read so far
        k, start = k + len(column), end
    bad = _first_bad_step(terms[read:], a) if read < len(terms) else None
    if bad is not None:
        raise _form_error(read + bad + 1)
    return _unchecked(CumulativeSequence, "terms", tuple(terms))  # ints from accumulate or int()


def _digits_int(digits: str) -> int:
    """``int`` of ASCII digits; -1 if past ``int``'s digit limit without leading zeros."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= sys.get_int_max_str_digits() else -1


def _is_row(k: int, line: str) -> bool:
    """Whether a line is row k as ``sequence_csv`` writes it, newline aside."""
    a = line.partition(",")[2].partition(",")[0]
    return a.isascii() and a.isdigit() and line == f"{k},{a},{a},{k}"


def sequence_json_rows(seq: CumulativeSequence) -> list[dict]:
    return [
        {"n": k, "a": a, "freq": [a, k]} for k, a in enumerate(seq.terms, 1)
    ]
