"""Differential tests: the streaming core against the materializing code.

The oracles below are the original writers, readers, generators and
statistics, kept verbatim: ``csv.writer`` and ``json.dumps`` rendering of a
materialized sequence or cell table (``cell_json_rows``), the ``csv.reader``
parsers, the per-row cell reader, the variant builders and binary steps through
the checked constructors, the per-trial oscillating loop, the
column-building and the full-row greedy cell loops, the list-building SplitMix64 loop, and the
index-scanning runs counter.  The streamed CLI output, the term and row generators, the readers
(on text in their writer's layout) and the one-pass counts must match them
byte for byte, value for value, and error for error.
"""

import array
import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import pickle
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import add, countOf
from typing import Iterator, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqmimic import cell_dist, event_seq, freq_seq, stats_harness
from freqmimic.cell_dist import CellAssignment
from freqmimic.cli import main
from freqmimic.closure_ops import canonical_form
from freqmimic.event_seq import BinaryTrialSequence, realize_trace, trace_operator
from freqmimic.freq_seq import (
    CSV_HEADER,
    CumulativeSequence,
    canonical_terms,
    check_probability,
    nonconvergent_terms,
    sequence_csv,
    sequence_from_csv,
    truncate_freeze,
)
from freqmimic.language_core import event, non_event
from freqmimic.stats_harness import (
    PRNG_VERSION,
    BitCounts,
    TestReport,
    _normal_critical,
    check_seed,
    reports_csv,
)
from test_event_seq import rows

F = Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ------------------------------------------------------------------ oracles


def oracle_check_cumulative_form(terms):
    terms = list(terms)
    if terms:
        if terms[0] not in (0, 1):
            return (False, 1)
        prev = terms[0]
        for i in range(1, len(terms)):
            step = terms[i] - prev
            if step not in (0, 1):
                return (False, i + 1)
            prev = terms[i]
    return (True, None)


def oracle_canonical_prefix(p, n):
    p = check_probability(p)
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if p == 1:
        return CumulativeSequence(tuple(range(1, n + 1)))
    num, den = p.numerator, p.denominator
    return CumulativeSequence(tuple((k * num) // den for k in range(1, n + 1)))


def oracle_build_nonconvergent(low, high, n):
    low = check_probability(low)
    high = check_probability(high)
    if low >= high:
        raise ValueError("low bound must be strictly below high bound")
    if n < 1:
        raise ValueError("prefix length must be positive")
    low_num, low_den = low.numerator, low.denominator
    high_num, high_den = high.numerator, high.denominator
    terms = [0]
    a = 0
    up = True  # 0/1 <= low holds for any low >= 0
    for k in range(2, n + 1):
        if up:
            a += 1
        terms.append(a)
        if up:
            if a * high_den >= k * high_num:
                up = False
        elif a * low_den <= k * low_num:
            up = True
    return CumulativeSequence(terms)


def _oscillate(
    low_num: int, low_den: int, high_num: int, high_den: int, n: int
) -> Iterator[tuple[int, int]]:
    yield 1, 0
    a = 0
    up = True  # 0/1 <= low holds for any low >= 0
    for k in range(2, n + 1):
        if up:
            a += 1
            if a * high_den >= k * high_num:
                up = False
        elif a * low_den <= k * low_num:
            up = True
        yield k, a


def oracle_sequence_csv(seq):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for k, a in enumerate(seq.terms, 1):
        writer.writerow((k, a, a, k))
    return out.getvalue()


def oracle_sequence_json_rows(seq):
    return [
        {"n": k, "a": a, "freq": [a, k]} for k, a in enumerate(seq.terms, 1)
    ]


def oracle_sequence_json(seq):
    """What the CLI printed: one ``json.dumps`` line per row."""
    return "".join(json.dumps(row) + "\n" for row in oracle_sequence_json_rows(seq))


ORACLE_ROWS = {"csv": "k,%s,%s,k\n", "json": '{"n": k, "a": %s, "freq": [%s, k]}\n'}


def oracle_rendered(terms, lo, fmt):
    """The two-slot renderer the pooled one replaced: rows lo, lo + 1, ... with
    each term's int written into both of its row's slots."""
    values = tuple(itertools.chain.from_iterable(zip(terms, terms)))
    return freq_seq._numbered(lo, lo + len(terms), ORACLE_ROWS[fmt]) % values


def oracle_binary_check(bits):
    """The three-pass ``BinaryTrialSequence`` check: 0s and 1s by ``countOf``, then
    the exact-int type pass over the bits before the first bad value."""
    bits = tuple(bits)
    bad = freq_seq._first_non_bit(bits)
    if countOf(map(type, bits), int) != len(bits):  # countOf counts True and 1.0 as 1
        bad = next((i for i, bit in enumerate(bits[:bad]) if type(bit) is not int), bad)
    if bad is not None:
        raise ValueError(f"trial {bad + 1} outcome must be 0 or 1")
    return bits


def oracle_sequence_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing sequence CSV header")
    terms = []
    for expected, row in enumerate(rows[1:], 1):
        k, a, num, den = (int(field) for field in row)
        if k != expected or num != a or den != k:
            raise ValueError(f"inconsistent sequence CSV row {expected}")
        terms.append(a)
    return CumulativeSequence(terms)


def oracle_to_binary(seq):
    bits = []
    prev = 0
    for term in seq.terms:
        bits.append(term - prev)
        prev = term
    return BinaryTrialSequence(tuple(bits))


def oracle_variant_to_zero(m, n):
    if m < 2:
        raise ValueError("variant parameter m must be at least 2")
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    return CumulativeSequence(tuple(min(k - 1, m) for k in range(1, n + 1)))


def oracle_variant_to_one(m, n):
    if m < 2:
        raise ValueError("variant parameter m must be at least 2")
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    return CumulativeSequence(tuple(max(0, k - m) for k in range(1, n + 1)))


def oracle_backshift_variant(seq, block_index):
    terms = seq.terms
    if not 1 <= block_index <= len(terms):
        raise ValueError("block index out of range")
    if block_index > 1 and terms[block_index - 1] != terms[block_index - 2]:
        raise ValueError("block index must sit inside a repeated-count block")
    return CumulativeSequence(tuple(max(a - 1, 0) for a in terms[:block_index - 1])
                              + terms[block_index - 1:])


def oracle_truncate_freeze(seq, m, n):
    if not 1 <= m <= len(seq):
        raise ValueError("freeze index out of range")
    if n < m:
        raise ValueError("target length must be at least the freeze index")
    terms = seq.terms[:m] + (seq.terms[m - 1],) * (n - m)
    return CumulativeSequence(terms)


def oracle_bernoulli_prng(p, n, seed):
    p = check_probability(p)
    if n < 0:
        raise ValueError("trial count must be non-negative")
    num, den = p.numerator, p.denominator
    threshold = num << 64
    state = check_seed(seed)
    bits = []
    for _ in range(n):
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        bits.append(1 if z * den < threshold else 0)
    return BinaryTrialSequence(tuple(bits))


def oracle_frequency_test(bits, p, alpha, stream="designed"):
    p = check_probability(p)
    n = len(bits)
    if n < 30:
        raise ValueError("frequency test needs at least 30 trials")
    if p == 0 or p == 1:
        raise ValueError("frequency test needs 0 < p < 1")
    crit = _normal_critical(alpha)
    x = bits.ones
    z = float(x - n * p) / math.sqrt(float(n * p * (1 - p)))
    return TestReport("frequency", stream, z, alpha, abs(z) <= crit, n)


def oracle_runs_test(bits, alpha, stream="designed"):
    n = len(bits)
    if n < 30:
        raise ValueError("runs test needs at least 30 trials")
    n1 = bits.ones
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("runs test needs both outcomes present")
    crit = _normal_critical(alpha)
    seq = bits.bits
    runs = 1 + sum(1 for i in range(1, n) if seq[i] != seq[i - 1])
    pairs = 2 * n0 * n1
    mean = Fraction(pairs, n) + 1
    variance = Fraction(pairs * (pairs - n), n * n * (n - 1))
    z = float(runs - mean) / math.sqrt(float(variance))
    return TestReport("runs", stream, z, alpha, abs(z) <= crit, n)


def oracle_compare(designed, p, seed, alpha):
    p = check_probability(p)
    generated = oracle_bernoulli_prng(p, len(designed), seed)
    tagged = [
        oracle_frequency_test(generated, p, alpha, stream="prng"),
        oracle_runs_test(generated, alpha, stream="prng"),
    ]
    tagged = [
        dataclasses.replace(r, seed=seed, prng_version=PRNG_VERSION) for r in tagged
    ]
    return [
        oracle_frequency_test(designed, p, alpha, stream="designed"),
        oracle_runs_test(designed, alpha, stream="designed"),
        tagged[0],
        tagged[1],
    ]


def oracle_reports_csv(reports):
    lines = [",".join(stats_harness.REPORT_CSV_HEADER)]
    for r in reports:
        lines.append(
            ",".join(
                (
                    r.test,
                    r.stream,
                    repr(r.statistic),
                    repr(r.alpha),
                    "true" if r.passed else "false",
                    str(r.n),
                    "" if r.seed is None else str(r.seed),
                    "" if r.prng_version is None else r.prng_version,
                )
            )
        )
    return "\n".join(lines) + "\n"


def oracle_build_cell_sequences(probs, n):
    probs, den, nums = cell_dist._shares(probs)
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


def oracle_cell_csv(assignment, sequences):
    m = len(sequences)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)])
    for t, cell in enumerate(assignment.entries, 1):
        writer.writerow([t, cell] + [seq.terms[t - 1] for seq in sequences])
    return out.getvalue()


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


def _greedy(den: int, nums: list[int], n: int) -> Iterator[tuple[int, ...]]:
    deficits = [0] * len(nums)  # t*nums[k] - a_k(t)*den
    row = [0, 0] + deficits  # t, cell, a_1(t), ..., a_m(t)
    for t in range(1, n + 1):
        deficits = list(map(add, deficits, nums))
        best = deficits.index(max(deficits))
        deficits[best] -= den
        row[0], row[1] = t, best + 1
        row[best + 2] += 1
        yield tuple(row)


def loop_rows(probs, n):
    """The rows (t, cell, a_1, ..., a_m) of the full-row greedy loop run to trial n."""
    _, den, nums = cell_dist._shares(probs)
    return list(_greedy(den, nums, n))


def old_cell_writer(rows, m, fmt, header=True):
    """The row writer gen-dist had before column chunks: one %-template per
    row (t, cell, a_1, ..., a_m), and the CSV header first."""
    if fmt == "csv":
        head = ",".join(["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)]) + "\n"
        template = ",".join(["%s"] * (m + 2)) + "\n"
    else:
        head = ""
        template = '{"trial": %s, "cell": %s, "counts": [' + ", ".join(["%s"] * m) + "]}\n"
    return (head if header else "") + "".join(map(template.__mod__, rows))


# ------------------------------------------------------------------ helpers


def outcome(call):
    """A call's value, or its exception type and message."""
    try:
        return ("ok", call())
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc))


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def oracle_gen_seq(p, n, m):
    seq = oracle_canonical_prefix(p, n)
    return seq if m is None else truncate_freeze(seq, m, n)


RENDER = {"csv": oracle_sequence_csv, "json": oracle_sequence_json}


probabilities = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=300)
cumulative = bit_lists.map(lambda bits: CumulativeSequence(tuple(itertools.accumulate(bits))))
# Rows at which _numbered's 100-row blocks and their digit counts change.
_EDGE_ROWS = [99, 100, 101, 999, 1000, 9_999, 10_000, 99_950]
# Small chunks put every chunk boundary inside the drawn inputs.
small_chunks = st.sampled_from([1, 2, 3, 7, 64])
any_chunk = st.integers(min_value=1, max_value=64)


# ------------------------------------------------------------------ writers


def sliced_rows(terms, fmt):
    """``_sequence_rows`` over ``terms`` in ``ROWS_PER_CHUNK`` slices, as ``sequence_csv`` cuts them."""
    size = freq_seq.ROWS_PER_CHUNK
    return "".join(freq_seq._sequence_rows(
        (terms[lo:lo + size] for lo in range(0, len(terms), size)), fmt))


@settings(max_examples=150, deadline=None)
@given(seq=cumulative, chunk=small_chunks)
def test_writers_match_csv_and_json_oracles(seq, chunk):
    assert sequence_csv(seq) == oracle_sequence_csv(seq)
    assert sliced_rows(seq.terms, "json") == oracle_sequence_json(seq)
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk):
        assert sequence_csv(seq) == oracle_sequence_csv(seq)
        assert sliced_rows(seq.terms, "csv") == oracle_sequence_csv(seq)
        assert sliced_rows(seq.terms, "json") == oracle_sequence_json(seq)


@settings(max_examples=200, deadline=None)
@given(
    a0=st.one_of(st.integers(min_value=0, max_value=300), st.sampled_from([9_999, 10**30])),
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=400),
    lo=st.one_of(st.integers(min_value=1, max_value=300), st.sampled_from(_EDGE_ROWS)),
    chunk=st.one_of(small_chunks, st.just(freq_seq.ROWS_PER_CHUNK)),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_pooled_renderer_matches_the_two_slot_oracle(a0, bits, lo, chunk, fmt):
    # any non-decreasing run of unit steps from any a0, cut into chunks from row lo
    terms = list(itertools.accumulate(bits, initial=a0))
    pieces = [freq_seq._chunk_rows(terms[i:i + chunk], lo + i, fmt)
              for i in range(0, len(terms), chunk)]
    assert "".join(pieces) == oracle_rendered(terms, lo, fmt)
    offsets = [a - a0 for a in terms]
    assert freq_seq._rendered(lo, a0, terms[-1], iter(offsets), fmt) == oracle_rendered(terms, lo, fmt)


@settings(max_examples=150, deadline=None)
@given(
    p=probabilities,
    n=st.integers(min_value=-2, max_value=400),
    m=st.one_of(st.none(), st.integers(min_value=-1, max_value=402)),
    fmt=st.sampled_from(["csv", "json"]),
    chunk=small_chunks,
)
def test_gen_seq_stream_matches_materialized_oracle(p, n, m, fmt, chunk):
    argv = ["gen-seq", "--p", str(p), "--n", str(n), "--format", fmt]
    if m is not None:
        argv += ["--m", str(m)]
    expected = outcome(lambda: oracle_gen_seq(p, n, m))
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk):
        got = outcome(lambda: run_main(argv))
        library = outcome(lambda: tuple(enumerate(canonical_terms(p, n, m), 1)))
    if expected[0] == "ok":
        seq = expected[1]
        assert got == ("ok", (0, RENDER[fmt](seq)))
        assert library == ("ok", tuple(enumerate(seq.terms, 1)))
    else:
        # main reports the error on stderr with exit 2 and writes no row.
        assert got == ("ok", (2, ""))
        assert library == expected


_R = freq_seq.ROWS_PER_CHUNK


@pytest.mark.parametrize("p, n, m", [
    (F(0), 2 * _R + 3, None),  # num = 0: every offset is 0
    (F(0), 2 * _R + 3, _R + 5),
    (F(1), 2 * _R + 3, None),  # num = den: the offsets are the row offsets
    (F(1), 3 * _R, 2 * _R + 7),  # the freeze inside the third chunk
    (F(5, 11), 20_000, 9_000),  # the freeze inside the second chunk
    (F(1, 3), 3 * _R, 3 * _R),  # a freeze at the last trial freezes nothing
    (F(3, 2 * _R + 1), 5 * _R, None),  # den > ROWS_PER_CHUNK: at most one success a chunk
    (F(577215, 1000003), 20_000, 12_345),
    (F(2 * _R, 2 * _R + 1), 3 * _R + 1, None),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_seq_chunks_from_the_closed_form_match_the_oracle(p, n, m, fmt):
    argv = ["gen-seq", "--p", str(p), "--n", str(n), "--format", fmt]
    if m is not None:
        argv += ["--m", str(m)]
    expected = RENDER[fmt](oracle_gen_seq(p, n, m))
    # generated terms are not checked again
    with mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_typed", side_effect=AssertionError):
        assert run_main(argv) == (0, expected)


@settings(max_examples=150, deadline=None)
@given(
    low=probabilities,
    high=probabilities,
    n=st.integers(min_value=-1, max_value=400),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_gen_nonconv_stream_matches_materialized_oracle(low, high, n, fmt):
    expected = outcome(lambda: oracle_build_nonconvergent(low, high, n))
    got = outcome(lambda: tuple(enumerate(nonconvergent_terms(low, high, n), 1)))
    cli = run_main(["gen-nonconv", "--low", str(low), "--high", str(high),
                    "--n", str(n), "--format", fmt])
    if expected[0] == "ok":
        seq = expected[1]
        assert got == ("ok", tuple(enumerate(seq.terms, 1)))
        assert cli == (0, RENDER[fmt](seq))
    else:
        assert got == expected
        assert cli == (2, "")


# Bounds whose frequencies hit low or high exactly, so phases arrive on equality.
bound_pairs = st.one_of(
    st.sampled_from([(F(0), F(1)), (F(0), F(1, 2)), (F(1, 2), F(1)), (F(1, 3), F(1, 2)),
                     (F(2, 7), F(4, 7)), (F(0), F(1, 60)), (F(59, 60), F(1))]),
    st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=60),
        st.fractions(min_value=0, max_value=1, max_denominator=60),
    ).filter(lambda pair: pair[0] < pair[1]),
)


@settings(max_examples=200, deadline=None)
@given(
    bounds=bound_pairs,
    n=st.one_of(st.integers(min_value=1, max_value=200),
                st.integers(min_value=1, max_value=3 * freq_seq.ROWS_PER_CHUNK + 5)),
)
@example(bounds=(F(1, 3), F(1, 2)), n=8)  # 0,1,1,2,2,2,3,4: every arrival is an equality
@example(bounds=(F(1, 10**20), F(1, 2)), n=5)  # a hold phase of about 1e20 trials, cut at n
@example(bounds=(F(0), F(10**20 - 1, 10**20)), n=5)  # an up phase as long
def test_nonconvergent_phases_match_the_per_trial_loop(bounds, n):
    low, high = bounds
    expected = _oscillate(low.numerator, low.denominator, high.numerator, high.denominator, n)
    assert tuple(enumerate(nonconvergent_terms(low, high, n), 1)) == tuple(expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("shifted", [0, 1, 2, 5])
def test_gen_nonconv_names_a_phase_that_starts_two_above_the_term_before(shifted, fmt):
    real = freq_seq._phases

    def phases(*args):  # phase number `shifted`, and every later one, starts 2 higher
        for i, (first, trials, step) in enumerate(real(*args)):
            yield first + 2 * (i >= shifted), trials, step

    argv = ["gen-nonconv", "--low", "1/3", "--high", "1/2", "--n", "40", "--format", fmt]
    with mock.patch.object(freq_seq, "_phases", phases):
        terms = list(itertools.chain.from_iterable(
            range(first, first + trials) if step else itertools.repeat(first, trials)
            for first, trials, step in phases(1, 3, 1, 2, 40)))
        expected = outcome(lambda: CumulativeSequence(terms))
        with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", 4):
            code, out, err = run_main_err(argv)
    assert expected[0] is ValueError
    index = int(expected[1].rpartition(" ")[2])
    assert (code, err) == (2, f"error: {expected[1]}\n")
    # the chunks wholly before the bad term were written
    assert out == RENDER[fmt](CumulativeSequence(terms[:(index - 1) // 4 * 4]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_nonconv_terms_are_not_checked_again(fmt):
    n = 3 * _R + 5
    expected = RENDER[fmt](oracle_build_nonconvergent(F(2, 7), F(4, 7), n))
    with mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_typed", side_effect=AssertionError):
        assert run_main(["gen-nonconv", "--low", "2/7", "--high", "4/7", "--n", str(n),
                         "--format", fmt]) == (0, expected)


def assert_built_as_checked(build, check):
    """``build()`` gives what ``check()`` gives: an equal sequence of one type, field
    dict and hash, also after a pickle round trip, or the same error."""
    built, checked = outcome(build), outcome(check)
    assert built[0] == checked[0]
    if checked[0] != "ok":
        assert built == checked
        return
    built, checked = built[1], checked[1]
    for seq in (built, pickle.loads(pickle.dumps(built))):
        assert type(seq) is type(checked) and vars(seq) == vars(checked)
        assert seq == checked and hash(seq) == hash(checked)


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(probabilities, st.sampled_from([F(-1, 2), F(3, 2)])),
    n=st.integers(min_value=-2, max_value=400),
    low=probabilities,
    high=probabilities,
)
@example(p=F(1), n=3 * _R + 1, low=F(2, 7), high=F(4, 7))
def test_unchecked_builders_equal_the_checked_constructor(p, n, low, high):
    assert_built_as_checked(lambda: freq_seq.canonical_prefix(p, n),
                            lambda: CumulativeSequence(tuple(canonical_terms(p, n))))
    assert_built_as_checked(lambda: freq_seq.build_nonconvergent(low, high, n),
                            lambda: CumulativeSequence(tuple(nonconvergent_terms(low, high, n))))


def test_generated_sequences_are_built_without_the_checks():
    n = 2 * _R + 3
    expected = [oracle_canonical_prefix(p, n) for p in (F(0), F(1), F(1, 3))]
    nonconvergent = oracle_build_nonconvergent(F(2, 7), F(4, 7), n)
    with mock.patch.object(freq_seq, "_typed", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError):
        assert [freq_seq.canonical_prefix(p, n) for p in (F(0), F(1), F(1, 3))] == expected
        assert freq_seq.build_nonconvergent(F(2, 7), F(4, 7), n) == nonconvergent
        assert sequence_csv(nonconvergent) == oracle_sequence_csv(nonconvergent)
        with pytest.raises(AssertionError):  # the public constructor checks
            CumulativeSequence(nonconvergent.terms)


@settings(max_examples=200, deadline=None)
@given(
    bits=bit_lists,
    m=st.one_of(st.integers(min_value=-1, max_value=310),
                st.sampled_from([2.0, 2.5, F(5, 2), True])),
    n=st.integers(min_value=-2, max_value=320),
    index=st.integers(min_value=-1, max_value=310),
)
@example(bits=[0, 1, 1, 0], m=2.0, n=5, index=4)  # a float m: float terms, rejected at index 4
def test_unchecked_variants_equal_the_checked_constructor(bits, m, n, index):
    seq = CumulativeSequence(tuple(itertools.accumulate(bits)))
    for name in ("variant_to_zero", "variant_to_one"):
        assert_built_as_checked(lambda: getattr(freq_seq, name)(m, n),
                                lambda: globals()[f"oracle_{name}"](m, n))
    assert_built_as_checked(lambda: truncate_freeze(seq, m, n),
                            lambda: oracle_truncate_freeze(seq, m, n))
    for block in (index, 1 + index % max(len(bits), 1)):  # often inside a repeated-count block
        assert_built_as_checked(lambda: freq_seq.backshift_variant(seq, block),
                                lambda: oracle_backshift_variant(seq, block))
    assert_built_as_checked(lambda: event_seq.to_binary(seq), lambda: oracle_to_binary(seq))


def test_variants_and_binary_steps_are_built_without_the_checks():
    seq = oracle_canonical_prefix(F(1, 3), 2 * _R + 3)
    built = [lambda: truncate_freeze(seq, 1000, 3 * _R), lambda: freq_seq.variant_to_zero(5, 300),
             lambda: freq_seq.variant_to_one(5, 300), lambda: freq_seq.backshift_variant(seq, 5),
             lambda: event_seq.to_binary(seq)]
    expected = [oracle_truncate_freeze(seq, 1000, 3 * _R), oracle_variant_to_zero(5, 300),
                oracle_variant_to_one(5, 300), oracle_backshift_variant(seq, 5),
                oracle_to_binary(seq)]
    with mock.patch.object(freq_seq, "_typed", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError), \
            mock.patch.object(BinaryTrialSequence, "__post_init__", side_effect=AssertionError):
        assert [build() for build in built] == expected
        with pytest.raises(AssertionError):  # the public constructors check
            CumulativeSequence(seq.terms)
        with pytest.raises(AssertionError):
            BinaryTrialSequence(expected[-1].bits)


_NUMBERED_EDGES = sorted({x + d for x in (0, 99, 100, 101, 199, 200, 10_000) for d in range(-2, 3)})


def _writer_patterns():
    """Every pattern the streamed writers pass to ``_numbered``: the sequence rows,
    the cell rows for m = 1, 3 and 10, and the trace's trials."""
    seen, numbered = set(), freq_seq._numbered

    def spy(lo, hi, pattern):
        seen.add(pattern)
        return numbered(lo, hi, pattern)

    with mock.patch.object(freq_seq, "_numbered", spy), \
            mock.patch.object(event_seq, "_numbered", spy):
        sequence_csv(CumulativeSequence((0, 1)))
        "".join(freq_seq._sequence_rows([[0, 1]], "json"))
        for fmt in ("csv", "json"):
            for m in (1, 3, 10):
                "".join(cell_dist.cell_chunks(cell_dist.cell_column_chunks([F(1, m)] * m, 2), m, fmt))
            "".join(event_seq.trace_chunks(F(1, 2), 2, fmt))
    return sorted(seen)


_WRITER_PATTERNS = _writer_patterns()


@pytest.mark.parametrize("pattern", [*_WRITER_PATTERNS, "k,k\n", *ORACLE_ROWS.values()])
def test_numbered_matches_naive_rows(pattern):
    first = _NUMBERED_EDGES[0]
    naive = [pattern.replace("k", str(k)) for k in range(first, _NUMBERED_EDGES[-1])]
    for lo in _NUMBERED_EDGES:
        for hi in _NUMBERED_EDGES:
            expected = "".join(naive[lo - first:hi - first]) if lo < hi else ""
            assert freq_seq._numbered(lo, hi, pattern) == expected, (lo, hi)
    # a part of one block past the first (a slice of the block), parts of adjacent
    # blocks, and ranges anywhere below 300,000, of up to 1,000 rows
    draw = random.Random(pattern)
    ranges = [(150, 170), (101, 199), (1_234, 1_277), (10_050, 10_099), (99_901, 100_000),
              (150, 260), (999, 1_001), (9_950, 10_050), (99_999, 100_001), (123_456, 123_567)]
    for lo in (draw.randrange(300_000) for _ in range(100)):
        ranges.append((lo, lo + draw.randrange(1_000)))
    for lo, hi in ranges:
        expected = "".join(pattern.replace("k", str(k)) for k in range(lo, hi))
        assert freq_seq._numbered(lo, hi, pattern) == expected, (lo, hi)


def test_numbered_builds_a_pattern_block_once_and_rebuilds_an_evicted_one_unchanged():
    freq_seq._block.cache_clear()
    for lo in range(1, 50_000, freq_seq.ROWS_PER_CHUNK):  # one block for every chunk of a pattern
        freq_seq._numbered(lo, lo + freq_seq.ROWS_PER_CHUNK, "k,%s\n")
    assert freq_seq._block.cache_info().misses == 1
    patterns = [f"k;{i}\n" for i in range(2 * freq_seq._block.cache_info().maxsize)]
    for pattern in patterns * 2:  # more patterns than the cache keeps
        expected = "".join(pattern.replace("k", str(k)) for k in range(95, 1234))
        assert freq_seq._numbered(95, 1234, pattern) == expected, pattern


def test_writer_patterns_have_no_letter_k_but_their_number_slots():
    # _numbered writes the row number over every letter k, so a k in a key or a
    # label would be overwritten: each k must stand alone, and the rows have one
    # number.  The sequence rows have two (their frequency is a(k)/k), and so do
    # their value pools, which write each term twice as its row's one %s slot.
    sequence_patterns = {*freq_seq._ROW.values(), *freq_seq._POOL.values()}
    assert len(_WRITER_PATTERNS) == 4 + 6 + 3
    assert sequence_patterns <= set(_WRITER_PATTERNS)
    for pattern in _WRITER_PATTERNS:
        assert re.findall(r"[A-Za-z]*k[A-Za-z]*", pattern) == ["k"] * pattern.count("k"), pattern
        assert pattern.count("k") == (2 if pattern in sequence_patterns else 1), pattern


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.one_of(st.integers(min_value=-2, max_value=4),
                             st.sampled_from([True, False, 0.0, 1.0, 2.0, F(1), F(1, 2)])),
                   max_size=40),
)
def test_stream_check_raises_the_materialized_error(terms):
    """Arbitrary terms: CumulativeSequence, the check every sequence's terms meet
    once, fails at the first bad step of the oracle or at the first term that
    equals an int but is not one, whichever comes first."""
    assert freq_seq.check_cumulative_form(terms) == oracle_check_cumulative_form(terms)
    typed = list(itertools.takewhile(lambda term: type(term) is int, terms))
    ok, index = oracle_check_cumulative_form(typed)
    if ok and len(typed) < len(terms):
        ok, index = False, len(typed) + 1
    expected = ("ok", tuple(terms)) if ok else (
        ValueError, f"not a cumulative-success sequence at index {index}")
    assert outcome(lambda: CumulativeSequence(terms).terms) == expected


@pytest.mark.parametrize("bad", [True, 1.0, F(1)])
def test_stream_rejects_a_term_that_is_not_an_exact_int_where_the_class_does(bad):
    # each of these equals 1 and steps by 0 or 1, so only the exact-int rule rejects it
    for terms, index in [([bad], 1), ([0, bad, 1, 2], 2), ([0, 1, bad, 2], 3), ([0, 0, 1, bad], 4)]:
        expected = (ValueError, f"not a cumulative-success sequence at index {index}")
        assert outcome(lambda: CumulativeSequence(terms)) == expected


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.one_of(st.integers(min_value=-1, max_value=2),
                               st.sampled_from([True, False, 0.0, 1.0, F(1), 255, 256, 2**70])),
                     max_size=30))
def test_binary_check_matches_the_three_pass_oracle(bits):
    got = outcome(lambda: BinaryTrialSequence(bits).bits)
    assert got == outcome(lambda: oracle_binary_check(bits))


def test_cumulative_form_check_takes_steps_of_exactly_0_or_1():
    # a step equal to 0 or 1 passes whatever its type; a fractional one fails
    cases = {
        (0, 0.5): (False, 2),
        (0.5, 1.5, 1.25): (False, 1),
        (0.0, 1.0, 3.0): (False, 3),
        (True, True, False): (False, 3),
        (1.0, True, 2, 2.0): (True, None),
    }
    for terms, expected in cases.items():
        assert freq_seq.check_cumulative_form(terms) == expected
        assert oracle_check_cumulative_form(terms) == expected


# ------------------------------------------------------------------ reader


def _mutations(text, row, rng_digit):
    """Variants of canonical sequence CSV, most of them off the writer's layout."""
    lines = text.split("\n")
    i = min(row, len(lines) - 2)  # a data row when there is one, else the header
    k, _, rest = lines[i].partition(",")
    out = {
        "quoted": lines[:i] + [f'"{k}",{rest}'] + lines[i + 1:],
        "space": lines[:i] + [f" {k},{rest}"] + lines[i + 1:],
        "plus": lines[:i] + [f"+{k},{rest}"] + lines[i + 1:],
        "zeros": lines[:i] + [f"0{k},{rest}"] + lines[i + 1:],
        "extra": lines[:i] + [f"{lines[i]},0"] + lines[i + 1:],
        "short": lines[:i] + [k] + lines[i + 1:],
        "empty-a": lines[:i] + [f"{k},,,{k}"] + lines[i + 1:],
        "blank": lines[:i] + [""] + lines[i:],
        "swap": lines[:i] + lines[i + 1:i + 2] + [lines[i]] + lines[i + 2:],
        "nonascii": lines[:i] + [lines[i].replace(rng_digit, chr(0x0660 + int(rng_digit)))]
        + lines[i + 1:],
    }
    variants = {name: "\n".join(parts) for name, parts in out.items()}
    variants["crlf"] = text.replace("\n", "\r\n")
    variants["no-final-newline"] = text[:-1]
    variants["trailing-blank"] = text + "\n"
    variants["no-header"] = "\n".join(lines[1:])
    variants["header-only"] = lines[0] + "\n"
    variants["empty"] = ""
    variants["changed-a"] = text.replace(f"\n{k},", f"\n{k},9", 1)
    return variants


def sequence_layout_error(text):
    """``sequence_from_csv``'s error for text off ``sequence_csv``'s layout, else None."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[0] != ",".join(CSV_HEADER):
        return "missing sequence CSV header"
    for k, line in enumerate(lines[1:], 1):
        last = k == len(lines) - 1  # the piece after the final newline
        if last and not line:
            return None
        if last or not re.fullmatch(rf"{k},([0-9]+),\1,{k}", line):
            return f"inconsistent sequence CSV row {k}"


def read_or_name_the_row(oracle, layout_error, text):
    """What a reader must do: the csv oracle's outcome on text in its writer's
    layout, and the layout's error on any other text."""
    error = layout_error(text)
    return outcome(lambda: oracle(text)) if error is None else (ValueError, error)


# Pieces of a few bytes put piece cuts at most rows of a 300-row text.
small_pieces = st.sampled_from([freq_seq.PIECE, 0, 1, 5, 20, 64])


@settings(max_examples=150, deadline=None)
@given(
    seq=cumulative,
    row=st.integers(min_value=1, max_value=300),
    digit=st.sampled_from("0123456789"),
    piece=small_pieces,
)
def test_reader_reads_writer_text_and_names_the_first_row_off_its_layout(seq, row, digit, piece):
    text = oracle_sequence_csv(seq)
    with mock.patch.object(freq_seq, "PIECE", piece):
        assert sequence_from_csv(text) == oracle_sequence_from_csv(text) == seq
        for name, variant in _mutations(text, row, digit).items():
            assert outcome(lambda: sequence_from_csv(variant)) == read_or_name_the_row(
                oracle_sequence_from_csv, sequence_layout_error, variant), name


def _piece_cut(text):
    """The row whose line ends the reader's first piece of a sequence CSV."""
    end = text.find("\n", len(freq_seq._CSV_HEADER_LINE) + freq_seq.PIECE)
    return text.count("\n", 0, end)


def _break_row(text, k):
    return text.replace(f"\n{k},", f"\n+{k},", 1)


def test_reader_names_rows_broken_on_either_side_of_a_piece_cut():
    n = 3 * freq_seq.ROWS_PER_CHUNK + 1
    text = sequence_csv(oracle_canonical_prefix(F(3, 7), n))
    cut = _piece_cut(text)
    assert 1 < cut < n  # the text is read in more than one piece
    named = {
        _break_row(text, cut): cut,
        _break_row(text, cut + 1): cut + 1,
        _break_row(_break_row(text, cut + 1), cut): cut,
        _break_row(text[:-1], cut + 1): cut + 1,
        text[:-1]: n,
    }
    for variant, row in named.items():
        assert outcome(lambda: sequence_from_csv(variant)) == (
            ValueError, f"inconsistent sequence CSV row {row}")
    # the per-row oracle compiles a pattern per row: check it on one variant
    assert read_or_name_the_row(oracle_sequence_from_csv, sequence_layout_error, text[:-1]) == (
        ValueError, f"inconsistent sequence CSV row {n}")


@pytest.mark.parametrize("piece, n", [(0, 300), (7, 300), (freq_seq.PIECE, 3 * freq_seq.ROWS_PER_CHUNK)])
def test_reader_names_a_layout_error_after_a_step_error(piece, n):
    # row 2 jumps by 2, and the last row, pieces later, is off the layout
    terms = [0, 2, *range(2, n)]
    text = ",".join(CSV_HEADER) + "\n" + "".join(f"{k},{a},{a},{k}\n" for k, a in enumerate(terms, 1))
    for variant, error in [(text, "not a cumulative-success sequence at index 2"),
                           (text[:-1] + ",\n", f"inconsistent sequence CSV row {n}")]:
        if n <= 300:  # the layout oracle compiles a pattern per row
            assert read_or_name_the_row(oracle_sequence_from_csv, sequence_layout_error, variant) == (
                ValueError, error)
        with mock.patch.object(freq_seq, "PIECE", piece):
            assert outcome(lambda: sequence_from_csv(variant)) == (ValueError, error)


def test_reader_fast_path_skips_the_csv_reader():
    for n in (50, 3 * freq_seq.ROWS_PER_CHUNK + 1):  # one piece, then more than one
        text = sequence_csv(oracle_canonical_prefix(F(3, 7), n))
        assert (len(text) > freq_seq.PIECE) == (n > 50)
        with mock.patch.object(freq_seq, "_is_row", side_effect=AssertionError), \
                mock.patch.object(csv, "reader", side_effect=AssertionError):
            assert sequence_from_csv(text) == oracle_canonical_prefix(F(3, 7), n)


def test_reader_memory_stays_within_a_few_texts():
    # a split of the whole text builds three strings per row: a peak of 12x this text
    text = sequence_csv(oracle_canonical_prefix(F(3, 7), 10**5))
    tracemalloc.start()
    try:
        sequence_from_csv(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(st.integers(min_value=0, max_value=12), max_size=40), piece=small_pieces)
def test_reader_raises_the_sequence_error_for_bad_terms_in_the_writer_layout(terms, piece):
    text = ",".join(CSV_HEADER) + "\n" + "".join(f"{k},{a},{a},{k}\n" for k, a in enumerate(terms, 1))
    assert sequence_layout_error(text) is None
    with mock.patch.object(freq_seq, "PIECE", piece):
        assert outcome(lambda: sequence_from_csv(text)) == outcome(lambda: oracle_sequence_from_csv(text))


HUGE = "1" * 5000  # past int's default limit of 4,300 digits read from text
ZEROS = "0" * 5000  # leading zeros count toward that limit too


@pytest.mark.parametrize("piece", [0, 8, freq_seq.PIECE])  # 8: rows 3 and 4 share a piece
def test_reader_names_a_term_past_the_int_digit_limit_by_its_sequence_error(piece):
    # Such a term is never a(k) <= k, so the step check fails there, not int's
    # limit; a layout error anywhere in the text still wins.
    head = ",".join(CSV_HEADER) + "\n"
    cases = {
        f"{head}1,{HUGE},{HUGE},1\n": (ValueError, "not a cumulative-success sequence at index 1"),
        f"{head}1,0,0,1\n2,1,1,2\n3,1,1,3\n4,{HUGE},{HUGE},4\n5,2,2,5\n": (
            ValueError, "not a cumulative-success sequence at index 4"),
        f"{head}1,1,1,1\n2,{ZEROS}1,{ZEROS}1,2\n": ("ok", CumulativeSequence((1, 1))),
        f"{head}1,{HUGE},{HUGE},1\n2,1,1,2\n3,1,1,+3\n": (ValueError, "inconsistent sequence CSV row 3"),
    }
    with mock.patch.object(freq_seq, "PIECE", piece):
        for text, expected in cases.items():
            assert outcome(lambda: sequence_from_csv(text)) == expected


@contextlib.contextmanager
def unlimited_int_digits():
    """No limit on the digits of an int read from text, so the csv oracle reads a
    term past the default limit as the int it is."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _with_term(text, k, a):
    """Sequence CSV text with row k's two term fields written as ``a``."""
    lines = text.split("\n")
    lines[k] = f"{k},{a},{a},{k}"
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(seq=cumulative, piece=small_pieces, data=st.data())
def test_reader_at_change_points_matches_the_oracle(seq, piece, data):
    # writer text is read at its change points; each variant sends a piece, and every
    # piece after it, through the per-row read, which must give the oracle's outcome
    text = oracle_sequence_csv(seq)
    variants = {"writer": text}
    if len(seq):
        row = data.draw(st.integers(min_value=1, max_value=len(seq)), label="row")
        later = data.draw(st.integers(min_value=min(row + 1, len(seq)), max_value=len(seq)))
        a = seq.terms[row - 1]
        bad_step = _with_term(text, row, a + 2)
        variants.update({
            "leading-zeros": _with_term(text, row, "0" * data.draw(st.integers(1, 3)) + str(a)),
            "past-the-limit-in-zeros": _with_term(text, row, f"{ZEROS}{a}"),
            "past-the-limit": _with_term(text, row, HUGE),
            "bad-step": bad_step,
            "layout-after-a-bad-step": _break_row(bad_step, later),
        })
    with mock.patch.object(freq_seq, "PIECE", piece):
        for name, variant in variants.items():
            got = outcome(lambda: sequence_from_csv(variant))
            with unlimited_int_digits():
                expected = read_or_name_the_row(oracle_sequence_from_csv, sequence_layout_error, variant)
            assert got == expected, name


def test_writer_text_is_read_without_int_or_the_step_check():
    for n in (50, 3 * freq_seq.ROWS_PER_CHUNK + 1):  # one piece, then more than one
        for p in (F(3, 7), F(0), F(1)):
            seq = oracle_canonical_prefix(p, n)
            text = sequence_csv(seq)
            with mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError), \
                    mock.patch.object(freq_seq, "_digits_int", side_effect=AssertionError):
                got = sequence_from_csv(text)
            assert got == seq
    # a term past the digit limit in leading zeros still reads, through the per-row read
    head = ",".join(CSV_HEADER) + "\n"
    text = f"{head}1,1,1,1\n2,{ZEROS}1,{ZEROS}1,2\n3,2,2,3\n"
    with mock.patch.object(freq_seq, "_first_bad_step", wraps=freq_seq._first_bad_step) as steps, \
            mock.patch.object(freq_seq, "_digits_int", wraps=freq_seq._digits_int) as digits:
        assert sequence_from_csv(text) == CumulativeSequence((1, 1, 2))
    assert steps.called and digits.called
    # at bench size k gains digits at 10**5 and 10**6, and a(k) a hundred rows after it
    # (p = 999/1000) or with it (p = 1); no piece goes to the split rows
    for p in (F(999, 1000), F(1)):
        text = "".join(freq_seq.canonical_chunks(p, 10**6 + 1, None, "csv"))
        with mock.patch.object(freq_seq, "_split_rows", side_effect=AssertionError):
            got = sequence_from_csv(text)
        assert got.terms == tuple(canonical_terms(p, 10**6 + 1))


_ROW_RE = re.compile(r"([0-9]+),([0-9]+),\2,([0-9]+)")


def fast_sequence_layout_error(text):
    """``sequence_layout_error`` with one compiled pattern for every row, for long texts."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[0] != ",".join(CSV_HEADER):
        return "missing sequence CSV header"
    for k, line in enumerate(lines[1:], 1):
        if k == len(lines) - 1:  # the piece after the final newline
            return None if not line else f"inconsistent sequence CSV row {k}"
        row = _ROW_RE.fullmatch(line)
        if not row or row[1] != str(k) or row[3] != str(k):
            return f"inconsistent sequence CSV row {k}"


# Row counts around each change of k's width.
_WIDTH_ROWS = [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001]
_ASCII_TO_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))


def _fixed_width_variants(text, row, draw):
    """Variants of row ``row`` of writer text that the fixed-width read must not take."""
    lines = text.split("\n")
    k, a = str(row), lines[row].split(",")[1]
    t = int(a)

    def with_row(k1, a1, a2, k2):
        return "\n".join(lines[:row] + [f"{k1},{a1},{a2},{k2}"] + lines[row + 1:])

    def digit_changed(digits):
        i = draw(st.integers(0, len(digits) - 1))
        new = draw(st.sampled_from([d for d in "0123456789" if d != digits[i]]))
        return digits[:i] + new + digits[i + 1:]

    j, d = draw(st.integers(1, 2)), draw(st.integers(1, 9))
    sep = draw(st.sampled_from([";", "0", " ", ",,", ""]))
    variants = {
        # the last digit moves as before, a higher one does not carry with it: 19 -> 30 and
        # 20 -> 31 at d = 1, 99 -> 190 at d = 9
        "carry": with_row(k, t + d * 10**j, t + d * 10**j, k),
        "plus-two": with_row(k, t + 2, t + 2, k),
        # 10 -> 0 after a 9: the top digit goes from 9 to 0; any such drop is a step down
        "top-dropped": with_row(k, t % 10 ** (len(a) - 1), t % 10 ** (len(a) - 1), k)
        if len(a) > 1 else text,
        "second-copy-top": with_row(k, a, digit_changed(a[:1]) + a[1:], k),
        "first-copy-top": with_row(k, digit_changed(a[:1]) + a[1:], a, k),
        "k-first": with_row(digit_changed(k), a, a, k),
        "k-second": with_row(k, a, a, digit_changed(k)),
        "comma-1": f"{k}{sep}{a},{a},{k}",
        "comma-2": f"{k},{a}{sep}{a},{k}",
        "comma-3": f"{k},{a},{a}{sep}{k}",
        "leading-zero": with_row(k, "0" + a, "0" + a, k),
        "non-ascii": with_row(k, a.translate(_ASCII_TO_ARABIC), a.translate(_ASCII_TO_ARABIC), k),
        "non-ascii-k": with_row(k.translate(_ASCII_TO_ARABIC), a, a, k),
    }
    for name in ("comma-1", "comma-2", "comma-3"):
        variants[name] = "\n".join(lines[:row] + [variants[name]] + lines[row + 1:])
    variants["newline"] = "\n".join(lines[:row] + [lines[row] + sep + lines[row + 1]] + lines[row + 2:])
    return {name: variant for name, variant in variants.items() if variant != text}


@st.composite
def fixed_width_cases(draw):
    """Writer text of n rows around a change of k's width, with terms of density
    near 0, near 1 or anywhere, so terms cross 9/10 and 99/100 inside a piece; a
    row to break (often where k or the term gains a digit), and a piece size."""
    n = draw(st.sampled_from(_WIDTH_ROWS))
    density = draw(st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.95, 0.99, 1.0]), st.floats(0, 1)))
    draw_bit = random.Random(draw(st.integers(0, 2**32))).random
    seq = CumulativeSequence(tuple(itertools.accumulate(int(draw_bit() < density) for _ in range(n))))
    wider = [seq.terms.index(a) + 1 for a in (10, 100, 1000) if a in seq.terms] + [10, 100, 1000, 10000]
    wider = [k + d for k in wider for d in (-1, 0, 1) if 1 <= k + d <= n]
    row = draw(st.one_of(st.integers(1, n), st.sampled_from(wider or [n])))
    piece = draw(st.sampled_from([freq_seq.PIECE, 64, 500] + [0, 1, 20] * (n <= 101)))
    return seq, row, piece


@settings(max_examples=40, deadline=None)
@given(case=fixed_width_cases(), data=st.data())
def test_fixed_width_read_matches_the_oracle(case, data):
    seq, row, piece = case
    text = oracle_sequence_csv(seq)
    variants = _fixed_width_variants(text, row, data.draw)
    with mock.patch.object(freq_seq, "PIECE", piece):
        with mock.patch.object(freq_seq, "_split_rows", side_effect=AssertionError):
            assert sequence_from_csv(text) == oracle_sequence_from_csv(text) == seq
        for name, variant in variants.items():
            with mock.patch.object(freq_seq, "_split_rows", wraps=freq_seq._split_rows) as split:
                got = outcome(lambda: sequence_from_csv(variant))
            error = fast_sequence_layout_error(variant)
            expected = outcome(lambda: oracle_sequence_from_csv(variant)) if error is None else (
                ValueError, error)
            assert got == expected, name
            assert split.called, name  # none of them is read as writer text


@pytest.mark.parametrize("piece", [0, 20, freq_seq.PIECE])
@pytest.mark.parametrize("prev, bad", [(19, 30), (20, 31), (99, 190), (9, 0), (99, 101), (10, 1)])
def test_fixed_width_read_rejects_a_step_that_keeps_the_last_digit(piece, prev, bad):
    # each term steps by 0 or 1 up to ``prev`` at row prev + 1, then row prev + 2 holds ``bad``
    terms = [0, *range(prev + 1), bad, bad]
    text = ",".join(CSV_HEADER) + "\n" + "".join(f"{k},{a},{a},{k}\n" for k, a in enumerate(terms, 1))
    with mock.patch.object(freq_seq, "PIECE", piece):
        assert outcome(lambda: sequence_from_csv(text)) == (
            ValueError, f"not a cumulative-success sequence at index {prev + 3}")


@pytest.mark.parametrize("piece", [0, 20, freq_seq.PIECE])
def test_terms_with_leading_zeros_are_read_by_the_split_rows(piece):
    # from row 10 on, each term is written zero-filled to two digits
    terms = [k // 3 for k in range(1, 300)]
    texts = [str(a).zfill(1 + (k >= 10)) for k, a in enumerate(terms, 1)]
    text = ",".join(CSV_HEADER) + "\n" + "".join(f"{k},{a},{a},{k}\n" for k, a in enumerate(texts, 1))
    with mock.patch.object(freq_seq, "PIECE", piece), \
            mock.patch.object(freq_seq, "_split_rows", wraps=freq_seq._split_rows) as split:
        assert sequence_from_csv(text) == oracle_sequence_from_csv(text) == CumulativeSequence(terms)
    assert split.call_args[0][2] == 10  # rows 1 to 9 are read as writer text


@pytest.mark.parametrize("n", [0, 1, 99, 100, 101, 199, 200, 12345])
def test_index_columns_start_with_the_naive_rows(n):
    naive = "".join(f"{k},{k}\n" for k in range(1, n + 1))
    assert freq_seq._numbered(1, n + 1, "k,k\n").startswith(naive)


# ------------------------------------------------------------------ counts


def oracle_counts(bits):
    """Trials, ones and runs of a stream of 0/1 outcomes, one index at a time."""
    seq = tuple(bits)
    for i, bit in enumerate(seq, 1):
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"trial {i} outcome must be 0 or 1")
    runs = 1 + sum(1 for i in range(1, len(seq)) if seq[i] != seq[i - 1]) if seq else 0
    return (len(seq), sum(seq), runs)


@settings(max_examples=200, deadline=None)
@given(bits=bit_lists)
def test_counts_match_tuple_counts(bits):
    assert tuple(stats_harness._counts(BinaryTrialSequence(bits))) == oracle_counts(bits)


def fractions_up_to(max_den):
    """p = num/den in [0, 1] with den drawn from 1..max_den."""
    return st.integers(min_value=1, max_value=max_den).flatmap(
        lambda den: st.integers(min_value=0, max_value=den).map(lambda num: F(num, den))
    )


# den up to 64 meets every short period; den up to 2**40 puts the word's
# first repeat far beyond n
canonical_probabilities = st.one_of(fractions_up_to(64), fractions_up_to(1 << 40))


@settings(max_examples=300, deadline=None)
@given(p=canonical_probabilities, n=st.integers(min_value=0, max_value=5000))
@example(p=F(0), n=0)
@example(p=F(0), n=1)
@example(p=F(1, 2), n=0)
@example(p=F(1, 2), n=1)
@example(p=F(1), n=0)
@example(p=F(1), n=1)
@example(p=F(4093, 8191), n=10**6)
@example(p=F(577215, 1000003), n=10**6)
def test_canonical_counts_match_closed_form(p, n):
    bits = oracle_to_binary(oracle_canonical_prefix(p, n)).bits
    assert stats_harness.canonical_counts(p, n) == oracle_counts(bits)


@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(probabilities, st.sampled_from([F(-1, 2), F(3, 2), -1, 2])),
    n=st.integers(min_value=-3, max_value=3),
)
def test_canonical_counts_reject_what_the_terms_reject(p, n):
    expected = outcome(lambda: oracle_counts(oracle_to_binary(oracle_canonical_prefix(p, n))))
    assert outcome(lambda: tuple(stats_harness.canonical_counts(p, n))) == expected


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(
        st.sampled_from([0, 1, 0, 1, 0, 1, -1, 2, 0.5, 1.0, 0.0, True, False]), max_size=40
    )
)
def test_counts_reject_what_the_sequence_rejects(bits):
    got = outcome(lambda: tuple(stats_harness._counts(BinaryTrialSequence(bits))))
    assert got == outcome(lambda: oracle_counts(bits))


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=120),
    alpha=st.sampled_from([0.05, 0.01, 0.2]),
)
def test_runs_test_matches_oracle(bits, alpha):
    seq = BinaryTrialSequence(bits)
    expected = outcome(lambda: oracle_runs_test(seq, alpha))
    assert outcome(lambda: stats_harness.runs_test(seq, alpha)) == expected
    counts = BitCounts(*oracle_counts(bits))
    assert outcome(lambda: stats_harness.runs_test(counts, alpha)) == expected


@settings(max_examples=100, deadline=None)
@given(
    p=probabilities,
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=_MASK64),
)
def test_prng_matches_oracle(p, n, seed):
    expected = oracle_bernoulli_prng(p, n, seed)
    assert stats_harness.bernoulli_prng(p, n, seed) == expected


# Thresholds at the edges of the packed comparison: z < 2**32, z < 2**64 - 1,
# and a denominator above 2**64.
prng_probabilities = st.one_of(
    probabilities,
    st.sampled_from([F(1, 1 << 32), F(_MASK64, 1 << 64), F(1, (1 << 64) + 1)]),
)
prng_seeds = st.one_of(st.sampled_from([0, _MASK64]), st.integers(min_value=0, max_value=_MASK64))


@settings(max_examples=200, deadline=None)
@given(
    p=prng_probabilities,
    n=st.integers(min_value=0, max_value=200),
    seed=prng_seeds,
    lanes=small_chunks,
)
def test_packed_lanes_match_oracle(p, n, seed, lanes):
    # few lanes put several chunk boundaries, and a short last chunk, inside n
    expected = oracle_bernoulli_prng(p, n, seed)
    with mock.patch.object(stats_harness, "_LANES", lanes):
        assert stats_harness.bernoulli_prng(p, n, seed) == expected
        assert tuple(stats_harness.prng_counts(p, n, seed)) == oracle_counts(expected.bits)


@settings(max_examples=30, deadline=None)
@given(p=prng_probabilities, n=st.integers(min_value=0, max_value=9000), seed=prng_seeds)
def test_prng_counts_match_oracle_across_full_chunks(p, n, seed):
    expected = oracle_bernoulli_prng(p, n, seed)
    assert stats_harness.prng_counts(p, n, seed) == oracle_counts(expected.bits)


@settings(max_examples=60, deadline=None)
@given(
    p=probabilities,
    n=st.integers(min_value=-2, max_value=5),
    seed=st.integers(min_value=-1, max_value=1 << 64),
)
def test_prng_counts_reject_what_the_oracle_rejects(p, n, seed):
    expected = outcome(lambda: oracle_counts(oracle_bernoulli_prng(p, n, seed).bits))
    assert outcome(lambda: tuple(stats_harness.prng_counts(p, n, seed))) == expected
    assert outcome(lambda: stats_harness.bernoulli_prng(p, n, seed).bits) == outcome(
        lambda: oracle_bernoulli_prng(p, n, seed).bits
    )


@settings(max_examples=60, deadline=None)
@given(
    p=probabilities,
    n=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=-1, max_value=1 << 64),
    alpha=st.sampled_from([0.05, 0.01]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_compare_matches_oracle(p, n, seed, alpha, fmt):
    def oracle_reports():
        check_seed(seed)
        designed = oracle_to_binary(oracle_canonical_prefix(p, n))
        return oracle_compare(designed, p, seed, alpha)

    expected = outcome(oracle_reports)
    argv = ["compare", "--p", str(p), "--n", str(n), "--seed", str(seed),
            "--alpha", str(alpha), "--format", fmt]
    if expected[0] != "ok":
        assert run_main(argv) == (2, "")
        return
    reports = expected[1]
    designed = event_seq.to_binary(oracle_canonical_prefix(p, n))
    assert designed == oracle_to_binary(oracle_canonical_prefix(p, n))
    assert stats_harness.compare(designed, p, seed, alpha) == reports
    if fmt == "csv":
        text = oracle_reports_csv(reports)
        assert reports_csv(reports) == text
    else:
        text = "".join(json.dumps(r.as_json_dict()) + "\n" for r in reports)
    assert run_main(argv) == (0, text)


@settings(max_examples=100, deadline=None)
@given(
    p=probabilities,
    n=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=_MASK64),
    alpha=st.sampled_from([0.05, 0.01, 0.2]),
)
def test_compare_rejects_what_the_oracle_rejects(p, n, seed, alpha):
    # the checks run before either stream is drawn, and raise what the oracle raises
    designed = oracle_to_binary(oracle_canonical_prefix(p, n))
    expected = outcome(lambda: oracle_compare(designed, p, seed, alpha))
    assert outcome(lambda: stats_harness.compare(designed, p, seed, alpha)) == expected
    if alpha == 0.2:  # not a CLI choice
        return
    argv = ["compare", "--p", str(p), "--n", str(n), "--seed", str(seed),
            "--alpha", str(alpha)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_main(argv)
    if expected[0] == "ok":
        assert code == 0
    else:
        assert (code, out, err.getvalue()) == (2, "", f"error: {expected[1]}\n")


def test_compare_rejects_bad_arguments_before_drawing():
    start = time.perf_counter()
    for counts, p, alpha in [
        (BitCounts(10**9, 0, 1), F(0), 0.01),
        (BitCounts(10**9, 10**9, 1), F(1), 0.01),
        (BitCounts(10**9, 5 * 10**8, 2), F(1, 2), 0.2),
    ]:
        expected = outcome(lambda: stats_harness.frequency_test(counts, p, alpha))
        assert expected[0] is ValueError
        assert outcome(lambda: stats_harness.compare(counts, p, 42, alpha)) == expected
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ other writers


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    n=st.integers(min_value=0, max_value=80),
)
def test_cell_csv_matches_csv_writer(weights, n):
    probs = [F(w, sum(weights)) for w in weights]
    assignment, sequences = cell_dist.build_cell_sequences(probs, n)
    assert cell_dist.cell_csv(assignment, sequences) == oracle_cell_csv(assignment, sequences)


def test_reports_csv_matches_oracle_without_seed():
    reports = [
        TestReport("frequency", "designed", -0.0, 0.05, True, 30),
        TestReport("runs", "prng", 1e-300, 0.01, False, 31, 0, PRNG_VERSION),
        TestReport("chi_square", "designed", float("inf"), 0.01, False, 32, 7, None),
    ]
    assert reports_csv(reports) == oracle_reports_csv(reports)
    assert reports_csv([]) == oracle_reports_csv([])


# ------------------------------------------------------------------ cell stream

# Vectors with zero shares and single cells; bad vectors now and then.
cell_weights = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6).filter(any)
cell_vectors = cell_weights.map(lambda ws: [F(w, sum(ws)) for w in ws])
cell_vector_texts = st.one_of(
    cell_vectors.map(lambda probs: ",".join(map(str, probs))),
    st.sampled_from(["", "x", "1/2,1/3", "1/2,-1/2,1", "1/2,,1/2", "2"]),
)


def oracle_cell_table_from_csv(text):
    """The csv-module cell reader, which also took quoted, signed or padded fields."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if header[:2] != ["t", "assigned_cell"]:
        raise ValueError("missing cell CSV header")
    m = len(header) - 2
    if m < 1 or header != ["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)]:
        raise ValueError("malformed cell CSV header")
    fields = []
    for expected, row in enumerate(reader, 1):
        if len(row) != m + 2 or int(row[0]) != expected:
            raise ValueError(f"inconsistent cell CSV row {expected}")
        fields += row
    ints = list(map(int, fields))
    _, chosen, *columns = (tuple(ints[k :: m + 2]) for k in range(m + 2))
    return CellAssignment(chosen, m), [CumulativeSequence(col) for col in columns]


def cell_layout_error(text):
    """``cell_table_from_csv``'s error for text off ``cell_csv``'s layout, else None."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if header[:2] != ["t", "assigned_cell"]:
        return "missing cell CSV header"
    m = len(header) - 2
    if m < 1 or header[2:] != [f"a_{k}" for k in range(1, m + 1)] or len(lines) == 1:
        return "malformed cell CSV header"
    for t, line in enumerate(lines[1:], 1):
        last = t == len(lines) - 1
        if last and not line:
            return None
        if last or not re.fullmatch(rf"{t}(,[0-9]+){{{m + 1}}}", line):
            return f"inconsistent cell CSV row {t}"


def _cell_mutations(text, row):
    lines = text.split("\n")
    i = min(row, len(lines) - 2)
    t, _, rest = lines[i].partition(",")
    out = {
        "quoted": f'"{t}",{rest}',
        "plus": f"+{t},{rest}",
        "space": f" {t},{rest}",
        "zeros": f"0{t},{rest}",
    }
    variants = {name: "\n".join(lines[:i] + [line] + lines[i + 1:]) for name, line in out.items()}
    variants["crlf"] = text.replace("\n", "\r\n")
    variants["no-final-newline"] = text[:-1]
    return variants


@settings(max_examples=100, deadline=None)
@given(probs=cell_vectors, n=st.integers(min_value=0, max_value=120),
       row=st.integers(min_value=1, max_value=120))
def test_cell_reader_reads_writer_text_and_names_the_first_row_off_its_layout(probs, n, row):
    table = cell_dist.build_cell_sequences(probs, n)
    text = oracle_cell_csv(*table)
    assert cell_dist.cell_table_from_csv(text) == oracle_cell_table_from_csv(text) == table
    for name, variant in _cell_mutations(text, row).items():
        assert outcome(lambda: cell_dist.cell_table_from_csv(variant)) == read_or_name_the_row(
            oracle_cell_table_from_csv, cell_layout_error, variant
        ), name


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=4))
def test_cell_reader_raises_the_table_errors_for_bad_terms_in_the_writer_layout(data, m):
    n = data.draw(st.integers(min_value=0, max_value=30))
    rows = [(t, *data.draw(st.lists(st.integers(min_value=0, max_value=m + 1), min_size=m + 1,
                                    max_size=m + 1))) for t in range(1, n + 1)]
    text = old_cell_writer(rows, m, "csv")
    assert cell_layout_error(text) is None
    assert outcome(lambda: cell_dist.cell_table_from_csv(text)) == outcome(
        lambda: oracle_cell_table_from_csv(text))


def oracle_table_by_rows(text):
    """The per-row cell reader, before consistent tables were read from their cell
    column: every row's fields checked, then every field parsed."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if header[:2] != ["t", "assigned_cell"]:
        raise ValueError("missing cell CSV header")
    m = len(header) - 2
    if m < 1 or header != ["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)] or len(
            lines) == 1:
        raise ValueError("malformed cell CSV header")
    fields = []
    for expected, line in enumerate(lines[1:-1], 1):
        row = line.split(",")
        if len(row) != m + 2 or row[0] != str(expected) or "" in row or not (
                line.isascii() and "".join(row).isdigit()):
            raise ValueError(f"inconsistent cell CSV row {expected}")
        fields += row
    if lines[-1]:  # the last row has no final newline
        raise ValueError(f"inconsistent cell CSV row {len(lines) - 1}")
    ints = list(map(int, fields))
    _, chosen, *columns = (tuple(ints[k :: m + 2]) for k in range(m + 2))
    return CellAssignment(chosen, m), [CumulativeSequence(col) for col in columns]


def count_columns(cells, m):
    """a_1, ..., a_m of a cell column, one trial at a time."""
    counts, columns = [0] * m, [[] for _ in range(m)]
    for cell in cells:
        counts[cell - 1] += 1
        for column, a in zip(columns, counts):
            column.append(a)
    return columns


def _edit_field(text, row, field, edit):
    """The text with ``edit`` applied to one field of one row (both cut to the table)."""
    lines = text.split("\n")
    i = min(row, len(lines) - 2)
    fields = lines[i].split(",")
    j = min(field, len(fields) - 1)
    fields[j] = edit(fields[j])
    return "\n".join(lines[:i] + [",".join(fields)] + lines[i + 1:])


ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=12))
def test_cell_reader_matches_the_per_row_parser_on_any_cell_column(data, m):
    cells = data.draw(st.lists(st.integers(min_value=1, max_value=m), max_size=300))
    columns = count_columns(cells, m)
    table = CellAssignment(cells, m), [CumulativeSequence(column) for column in columns]
    text = cell_dist.cell_csv(*table)
    row = data.draw(st.integers(min_value=1, max_value=300))
    lines = text.split("\n")
    variants = {"table": text, **_cell_mutations(text, row),
                "cell-zero": _edit_field(text, row, 1, "0".__add__),
                "count-zero": _edit_field(text, row, data.draw(st.integers(2, m + 1)), "0".__add__),
                "arabic-cell": _edit_field(text, row, 1, lambda field: field.translate(ARABIC_DIGITS)),
                "count-renamed": text.replace(",a_1", ",b_1", 1),
                "no-counts": "".join(",".join(line.split(",")[:2]) + "\n" for line in lines[:-1])}
    # One count moved by 1 where its column keeps unit steps: rows that no longer add up.
    nudges = [(k, t, d) for k, column in enumerate(columns) for t in range(len(cells))
              for d in (-1, 1)
              if column[t] + d - (column[t - 1] if t else 0) in (0, 1)
              and (t + 1 == len(cells) or column[t + 1] - column[t] - d in (0, 1))]
    if nudges:
        k, t, d = data.draw(st.sampled_from(nudges))
        nudged = [list(column) for column in columns]
        nudged[k][t] += d
        inconsistent = CellAssignment(cells, m), [CumulativeSequence(c) for c in nudged]
        variants["nudged"] = cell_dist.cell_csv(*inconsistent)
        assert cell_dist.cell_table_from_csv(variants["nudged"]) == inconsistent
        assert not cell_dist.validate_cell_table(inconsistent[1], [F(1, m)] * m).conservation
    assert cell_dist.cell_table_from_csv(text) == table
    for name, variant in variants.items():
        got = outcome(lambda: cell_dist.cell_table_from_csv(variant))
        assert got == outcome(lambda: oracle_table_by_rows(variant)), name
        assert got == read_or_name_the_row(
            oracle_cell_table_from_csv, cell_layout_error, variant), name
        if got[0] == "ok":
            assignment, sequences = got[1]
            terms = [*assignment.entries, *itertools.chain.from_iterable(sequences)]
            assert all(type(x) is int for x in terms), name


@pytest.mark.parametrize("probs", ["1/6,1/3,1/2", ",".join(["1/10"] * 10)])
def test_cell_reader_reads_gen_dist_text_from_its_cell_column(probs):
    n = 2 * freq_seq.ROWS_PER_CHUNK + 5
    code, text = run_main(["gen-dist", "--probs", probs, "--n", str(n)])
    table = cell_dist.build_cell_sequences(cell_dist.parse_probability_vector(probs), n)
    with mock.patch.object(cell_dist, "_table_by_rows", side_effect=AssertionError):
        assert cell_dist.cell_table_from_csv(text) == table
    assert code == 0
    assert cell_dist.cell_csv(*table) == text  # the library writer writes the CLI's bytes


def test_cell_reader_memory_stays_within_the_text_on_a_wide_header_over_short_rows():
    # m count columns n long would be 500 x 5,000 entries (20 MB) from 37 kB of text
    m, n = 500, 5000
    text = ",".join(["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)]) + "\n"
    text += "".join(f"{t},1\n" for t in range(1, n + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^inconsistent cell CSV row 1$"):
            cell_dist.cell_table_from_csv(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(text)


def test_cell_reader_names_a_field_past_the_int_digit_limit_by_its_table_error():
    # Such a field is never a cell in 1..m or a count a_k(t) <= t: the table's
    # own check fails there, not int's limit; a layout error anywhere still wins.
    head = "t,assigned_cell,a_1,a_2\n"
    cases = {
        f"{head}1,1,1,0\n2,{HUGE},1,1\n": (ValueError, "trial 2 assigned outside 1..2"),
        f"{head}1,1,1,0\n2,2,1,{HUGE}\n": (ValueError, "not a cumulative-success sequence at index 2"),
        f"{head}1,1,{HUGE},0\n": (ValueError, "not a cumulative-success sequence at index 1"),
        f"{head}1,{ZEROS}1,1,{ZEROS}\n": ("ok", (CellAssignment((1,), 2), [CumulativeSequence((1,)),
                                                                             CumulativeSequence((0,))])),
        f"{head}1,1,1,0\n2,2,1,{HUGE}\n3,1,2\n": (ValueError, "inconsistent cell CSV row 3"),
    }
    for text, expected in cases.items():
        assert outcome(lambda: cell_dist.cell_table_from_csv(text)) == expected


def oracle_gen_dist(text, n, fmt):
    probs = cell_dist.parse_probability_vector(text)
    assignment, sequences = oracle_build_cell_sequences(probs, n)
    if fmt == "csv":
        return oracle_cell_csv(assignment, sequences)
    return "".join(json.dumps(row) + "\n" for row in cell_json_rows(assignment, sequences))


def run_main_err(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_main(argv)
    return code, out, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    text=cell_vector_texts,
    n=st.integers(min_value=-2, max_value=300),
    fmt=st.sampled_from(["csv", "json"]),
    chunk=any_chunk,
)
def test_gen_dist_stream_matches_materialized_oracle(text, n, fmt, chunk):
    expected = outcome(lambda: oracle_gen_dist(text, n, fmt))
    argv = ["gen-dist", "--probs", text, "--n", str(n), "--format", fmt]
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk):
        got = run_main_err(argv)
        if expected[0] != "ok":
            # main reports the error on stderr with exit 2 and writes no row.
            assert got == (2, "", f"error: {expected[1]}\n")
            return
        assert got == (0, expected[1], "")
        probs = cell_dist.parse_probability_vector(text)
        table = cell_dist.build_cell_sequences(probs, n)
        assert table == oracle_build_cell_sequences(probs, n)
        assert {type(a) for seq in table[1] for a in seq.terms} <= {int}  # exact ints, not bools
        assert cell_dist.cell_csv(*table) == oracle_cell_csv(*table)


@st.composite
def tiled_cases(draw):
    """A share vector, a chunk budget and a tile cap (in value slots) each on either
    side of its period's den * (m + 1) slots, and n at 0, below den, at a multiple of
    den or between multiples."""
    weights = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5)
                   .filter(any))
    probs = [F(w, sum(weights)) for w in weights]
    den = math.lcm(*(p.denominator for p in probs))
    slots = den * (len(probs) + 1)
    chunk, cap = (draw(st.one_of(st.integers(min_value=1, max_value=slots),
                                 st.integers(min_value=slots, max_value=4 * slots)))
                  for _ in range(2))
    n = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=den),
                       st.integers(min_value=1, max_value=4).map(lambda q: q * den),
                       st.integers(min_value=0, max_value=5 * den + 3)))
    return probs, n, chunk, cap


def chunk_rows(den, m, chunk, cap):
    """The rows of every full cell column: a tile of whole periods filling the budget,
    or of one period past it, while the period's slots fit the cap; else the loop's
    chunk of the budget's rows, at least 64."""
    slots = den * (m + 1)
    return den * max(chunk // slots, 1) if slots <= cap else max(chunk // (m + 1), 64)


@settings(max_examples=200, deadline=None)
@given(case=tiled_cases(), fmt=st.sampled_from(["csv", "json"]))
@example(case=([F(1, 1)], 5, 1, 2), fmt="json")  # a one-row period past a one-slot budget
@example(case=([F(1, 1)], 70, 1, 1), fmt="csv")  # past the cap too: 64-row loop chunks
@example(case=([F(0), F(0), F(1)], 1, 1, 4), fmt="csv")  # cell 3 of a one-row period
@example(case=([F(0), F(2, 5), F(3, 5)], 11, 40, 40), fmt="csv")  # two periods a tile, one short
@example(case=([F(0), F(2, 5), F(3, 5)], 13, 10, 20), fmt="json")  # one period past the budget
@example(case=([F(1, 3), F(2, 3)], 200, 8, 8), fmt="csv")  # above the cap: the loop, ending mid-chunk
def test_gen_dist_tiles_match_the_loop_and_row_writer(case, fmt):
    probs, n, chunk, cap = case
    rows = loop_rows(probs, n)
    argv = ["gen-dist", "--probs", ",".join(map(str, probs)), "--n", str(n), "--format", fmt]
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk), \
            mock.patch.object(cell_dist, "TILE_SLOTS", cap):
        assert run_main_err(argv) == (0, old_cell_writer(rows, len(probs), fmt), "")
        chunks = list(cell_dist.cell_column_chunks(probs, n))
    assert decoded_rows(chunks, len(probs)) == [row[1:] for row in rows]
    # one chunk form on every route: an array('I') of cells
    assert all(type(column) is array.array and column.typecode == "I" for column in chunks)
    den = math.lcm(*(p.denominator for p in probs))
    full = chunk_rows(den, len(probs), chunk, cap)
    assert all(len(column) == full for column in chunks[:-1])
    assert 0 < len(chunks[-1]) <= full if n else not chunks
    if den * (len(probs) + 1) <= cap:  # every full chunk is the one tile
        assert len({id(column) for column in chunks if len(column) == full}) <= 1


@pytest.mark.parametrize("probs, n", [
    ("1/6,1/3,1/2", 40000),  # 1,365 periods of 6 rows a chunk, five chunks
    ("1/16411,16410/16411", 20000),  # a period of 49,233 slots, past a chunk: its own tile
    ("1/8209,8208/8209", 2 * 8192 + 5),  # the same, ending mid-tile
])
def test_gen_dist_matches_the_loop_at_full_chunks(probs, n):
    rows = loop_rows(cell_dist.parse_probability_vector(probs), n)
    for fmt in ("csv", "json"):
        code, out = run_main(["gen-dist", "--probs", probs, "--n", str(n), "--format", fmt])
        assert (code, out) == (0, old_cell_writer(rows, len(rows[0]) - 2, fmt))


def test_a_period_that_ends_off_its_shares_raises():
    cells = [1, 2, 1, 2]  # a_1(4) = 2, not 1: deficits -4 and 4
    with mock.patch.object(cell_dist, "_cells", lambda den, nums, n: iter(cells[:n])):
        with pytest.raises(RuntimeError, match="^greedy deficits are not all 0 at trial 4$"):
            next(cell_dist.cell_column_chunks([F(1, 4), F(3, 4)], 9))


def decoded_rows(chunks, m):
    """The rows (cell, a_1, ..., a_m) that cell columns stand for: a_k counts the cells k so far."""
    cells = list(itertools.chain(*chunks))
    counts = [list(itertools.accumulate(int(cell == k) for cell in cells)) for k in range(1, m + 1)]
    return list(zip(cells, *counts))


def _corrupted(columns, cells):
    """Cell columns with each one that differs from its slice of ``cells`` replaced by
    that slice, a new array: the full chunks of a tiled run are one object."""
    done = 0
    for column in columns:
        want = array.array("I", cells[done:done + len(column)])
        done += len(column)
        yield column if column == want else want


@settings(max_examples=200, deadline=None)
@given(
    probs=cell_vectors,
    n=st.integers(min_value=1, max_value=120),
    fault=st.sampled_from(["cell 0", "cell m+1"]),
    at=st.integers(min_value=0, max_value=119),
    fmt=st.sampled_from(["csv", "json"]),
    chunk=any_chunk,
)
@example(probs=[F(1, 6), F(1, 3), F(1, 2)], n=100, fault="cell m+1", at=70, fmt="csv", chunk=24)
def test_cell_stream_check_raises_the_materialized_error(probs, n, fault, at, fmt, chunk):
    # The fault goes into the cell columns gen-dist generates, tiled from one
    # period when the period fits a chunk, at any row: past the first period
    # and past a chunk boundary too.  Counts derived from cells cannot be faulty.
    m = len(probs)
    assignment, sequences = oracle_build_cell_sequences(probs, n)
    cells = list(assignment.entries)
    cells[at % n] = 0 if fault == "cell 0" else m + 1
    expected = outcome(lambda: (CellAssignment(cells, m), sequences))
    assert expected == (ValueError, f"trial {at % n + 1} assigned outside 1..{m}")
    argv = ["gen-dist", "--probs", ",".join(map(str, probs)), "--n", str(n), "--format", fmt]
    generate = cell_dist._chunks
    with mock.patch.object(cell_dist, "_chunks",
                           lambda den, nums, n: _corrupted(generate(den, nums, n), cells)), \
            mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk):
        code, _, err = run_main_err(argv)
        assert outcome(lambda: cell_dist.build_cell_sequences(probs, n)) == expected
        injected = list(itertools.chain(*cell_dist.cell_column_chunks(probs, n)))
    assert injected == cells
    assert (code, err) == (2, f"error: {expected[1]}\n")


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.one_of(st.integers(min_value=0, max_value=4), st.booleans(),
                             st.floats(min_value=0, max_value=4), st.just(F(1))), max_size=40),
    chunk=st.integers(min_value=1, max_value=8),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(cells=[1, 2, 9, 1.0], chunk=2, fmt="csv")  # out of range, then a float, in chunk 2
@example(cells=[1, 2.0, 9, 1], chunk=2, fmt="csv")  # a float in chunk 1, out of range in chunk 2
@example(cells=[True], chunk=1, fmt="json")
@example(cells=[1, 1.0], chunk=1, fmt="csv")  # a float equal to the cell checked before it
def test_cell_chunks_raise_the_assignment_error_for_cells_that_are_not_ints(cells, chunk, fmt):
    # A stream of cells fails where ``CellAssignment`` fails: at the first trial
    # whose cell is not an int, or is an int outside 1..m.  Lists of equal cells
    # (1, 1.0, True) are each checked.
    expected = outcome(lambda: CellAssignment(cells, 3))
    assert (expected[0] is ValueError) == any(type(c) is not int or not 1 <= c <= 3 for c in cells)
    chunks = (cells[lo:lo + chunk] for lo in range(0, len(cells), chunk))
    got = outcome(lambda: "".join(cell_dist.cell_chunks(chunks, 3, fmt)))
    if got[0] == "ok":
        rows = [(t, *row) for t, row in enumerate(decoded_rows([cells], 3), 1)]
        expected = ("ok", old_cell_writer(rows, 3, fmt))
    assert got == expected


@pytest.mark.parametrize("n", [6 * 6 * 5, 6 * 6 * 5 + 4])
def test_tiled_chunks_get_the_full_check_once_per_shape(n):
    # 1/6,1/3,1/2 with a 36-slot budget: 6-row tiles of one 24-slot period, thirty
    # full ones, then a short one or none
    probs, check = [F(1, 6), F(1, 3), F(1, 2)], cell_dist._check_cells
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", 36), \
            mock.patch.object(cell_dist, "_check_cells", wraps=check) as spy:
        got = "".join(cell_dist.cell_chunks(cell_dist.cell_column_chunks(probs, n), 3, "csv"))
    assert got == old_cell_writer(loop_rows(probs, n), 3, "csv")
    assert spy.call_count == (1 if n % 6 == 0 else 2)


def _threshold_cases():
    """(m, den, budget, cap): den on both sides of the budget and of the cap, at the
    module's constants for m = 2, 10 and 100; m = 1 (den 1) and the 64-row floor of
    the loop's chunks need a smaller budget and cap."""
    budget, cap = freq_seq.ROWS_PER_CHUNK, cell_dist.TILE_SLOTS
    cases = [(1, 1, budget, cap), (1, 1, 1, 2), (1, 1, 1, 1), (10, 745, 64, 9000)]
    for m in (2, 10, 100):
        for limit in (budget, cap):
            below = limit // (m + 1)
            cases += [(m, below, budget, cap), (m, below + 1, budget, cap)]
    return cases


@pytest.mark.parametrize("m, den, budget, cap", _threshold_cases())
def test_cell_columns_are_sized_by_value_slots(m, den, budget, cap):
    k = min(m, den)  # cells of non-zero share, all but the last 1/den
    probs = [F(1, den)] * (k - 1) + [F(den - k + 1, den)] + [F(0)] * (m - k)
    slots, tiled = den * (m + 1), den * (m + 1) <= cap
    rows = max(budget // (m + 1), 64)  # the most rows of a column, but for one period
    full = den * max(budget // slots, 1) if tiled else rows
    n = 3 * full + max(full // 2, 1)  # ends mid-column unless a column is one row
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", budget), \
            mock.patch.object(cell_dist, "TILE_SLOTS", cap), \
            mock.patch.object(cell_dist, "_check_cells", wraps=cell_dist._check_cells) as spy:
        columns = list(cell_dist.cell_column_chunks(probs, n))
        text = "".join(cell_dist.cell_chunks(columns, m, "csv"))
    assert [len(column) for column in columns] == [full] * (n // full) + [n % full] * (n % full > 0)
    assert full <= rows or (tiled and full == den and slots > budget)  # one period past the budget
    if tiled:  # the tile, and the short last column if any
        assert spy.call_count == (1 if n % full == 0 else 2)
    expected = loop_rows(probs, n)
    assert list(itertools.chain(*columns)) == [row[1] for row in expected]
    assert text.endswith(old_cell_writer(expected[-full:], m, "csv", header=False))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_column_changed_in_place_after_its_check_is_checked_again(fmt):
    column = array.array("I", [1, 2, 3] * 4)

    def columns():
        yield column
        column[5] = 4  # trial 12 + 6, out of 1..3
        yield column

    cells = [1, 2, 3] * 4 + [1, 2, 3, 1, 2, 4] + [1, 2, 3] * 2
    expected = outcome(lambda: CellAssignment(cells, 3))
    assert expected == (ValueError, "trial 18 assigned outside 1..3")
    assert outcome(lambda: "".join(cell_dist.cell_chunks(columns(), 3, fmt))) == expected


@settings(max_examples=40, deadline=None)
@given(probs=cell_vectors, n=st.integers(min_value=1, max_value=30))
def test_cell_operator_realization_matches_oracle_table(probs, n):
    assignment, _ = oracle_build_cell_sequences(probs, n)
    direct = cell_dist.trials_to_tuples(assignment, len(probs))
    got = [cell_dist.cell_operator_realization(probs, n, t) for t in range(1, n + 1)]
    assert got == direct


# ------------------------------------------------------------------ realize


def oracle_realize(p, n, fmt):
    """realize's output through the operator route: realize C(outcomes,{G}) on {G}."""
    trace = realize_trace(p, n)
    form = canonical_form(trace_operator(p, n))
    if fmt == "json":
        return json.dumps({"trials": rows(trace), "operator": form}) + "\n"
    return f"{trace.text()}\n{form}\n"


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(probabilities, st.sampled_from([F(-1, 2), F(3, 2)])),
    n=st.integers(min_value=-2, max_value=300),
    fmt=st.sampled_from(["csv", "json"]),
    chunk=any_chunk,
)
def test_realize_stream_matches_operator_route(p, n, fmt, chunk):
    expected = outcome(lambda: oracle_realize(p, n, fmt))
    argv = ["realize", f"--p={p}", "--n", str(n), "--format", fmt]
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk):
        got = run_main_err(argv)
    if expected[0] == "ok":
        assert got == (0, expected[1], "")
    else:
        # main reports the error on stderr with exit 2 and writes nothing.
        assert got == (2, "", f"error: {expected[1]}\n")


def test_trace_chunks_checks_arguments_when_called():
    for p, n in ((F(1, 2), -1), (F(3, 2), 10**9), (F(-1, 2), 10**9)):
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError):
                event_seq.trace_chunks(p, n, fmt)  # raises before any chunk is asked for


def test_trace_tokens_render_the_statements():
    # each part's pattern, filled by outcome bit, is its separator and then the
    # statement (or the JSON trial) for trial j
    for _, pattern, labels in [*event_seq._PARTS["csv"], *event_seq._PARTS["json"]]:
        sep = pattern[:len(pattern) - len(pattern.lstrip(", "))]
        for j in (1, 9, 10, 99, 100, 101, 16385, 10**12):
            if "trial" in pattern:
                expected = [json.dumps({"trial": j, "event": bit}) for bit in (False, True)]
            else:
                expected = [str(non_event(j)), str(event(j))]
            got = [freq_seq._numbered(j, j + 1, pattern) % label for label in labels]
            assert got == [sep + text for text in expected], (pattern, j)


def test_realize_reads_no_term_and_checks_none():
    # realize takes each outcome from the closed form: no canonical term is
    # built and none is checked, on either side of each chunk edge
    cases = [(p, n, fmt) for p in (F(0), F(1), F(1, 3), F(3, 2 * _R + 1))
             for n in (_R - 1, _R, _R + 1, 2 * _R + 1) for fmt in ("csv", "json")]
    expected = [(0, oracle_realize(p, n, fmt)) for p, n, fmt in cases]
    with mock.patch.object(freq_seq, "canonical_terms", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_typed", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "_first_bad_step", side_effect=AssertionError):
        got = [run_main(["realize", "--p", str(p), "--n", str(n), "--format", fmt])
               for p, n, fmt in cases]
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([F(0), F(1), F(1, 2), F(3, 2 * _R + 1), F(_R, _R + 1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=3 * _R),
    ),
    k=st.one_of(st.integers(min_value=1, max_value=4 * _R),
                st.sampled_from([1, 2, _R - 1, _R, _R + 1, 2 * _R, 2 * _R + 1])),
)
def test_closed_form_outcome_is_the_canonical_step(p, k):
    # a(k) - a(k-1) = [(k*num) mod den < num], the outcome realize writes for trial k
    a = list(canonical_terms(p, k))
    step = a[-1] - (a[-2] if k > 1 else 0)
    assert list(event_seq._outcomes(p.numerator, p.denominator, k, k + 1)) == [step]
    window = range(max(1, k - 3), k + 1)
    assert list(event_seq._outcomes(p.numerator, p.denominator, window[0], k + 1)) == [
        a[j - 1] - (a[j - 2] if j > 1 else 0) for j in window]


# ------------------------------------------------------------------ CLI bytes

TEN_CELLS = ",".join(["1/10"] * 10)
TEN_SHARES = "3/28,3/28,1/8,9/56,9/56,1/14,1/28,3/56,1/28,1/7"  # a 56-row period
TEN_8191 = ",".join(["1/8191"] * 9 + ["8182/8191"])
TEN_40009 = ",".join(["1/40009"] * 9 + ["40000/40009"])
FORTY_CELLS = ",".join(["1/40"] * 40)

# sha256 of stdout: every pin on the CLI's bytes.  The first were recorded from the
# materializing implementation; the 20,000-row and larger ones cross chunk edges.
GOLDEN = [
    (("gen-seq", "--p", "4093/8191", "--n", "5000"),
     "fc6e626c5e9efeae8c7844343807659617f0290902b093c1cb86c0756169dd6c"),
    (("gen-seq", "--p", "4093/8191", "--n", "3000", "--m", "1234", "--format", "json"),
     "e30287497b474b6fc1669aac90f3f3792092bd942c393113bedf6ba61c16eaff"),
    (("gen-seq", "--p", "0", "--n", "100"),
     "f7f8a8cdca4b4d8813df3bd124acc1d8e78c5fc0c015f3a0b594263b1bad3dbf"),
    (("gen-seq", "--p", "1", "--n", "100", "--m", "100", "--format", "json"),
     "dfdeb3aaf001f8e0bf01792da3ff1d1ef9a594e17128be27eb406f9fd3b314a6"),
    (("gen-seq", "--p", "2/5", "--n", "0"),
     "2ba2c87da4ac940785278f38f31a0b0960b0ee39be7e00f0e8b809198951a595"),
    (("gen-nonconv", "--low", "2/7", "--high", "4/7", "--n", "5000"),
     "cc977dd0061e7316ea02cffd24257d06f4414b7d1fb3f5d7520dd956f16825ad"),
    (("gen-nonconv", "--low", "0", "--high", "1", "--n", "300", "--format", "json"),
     "8f0435c9e9fdd05a8d0eb950787b70a62c5c5c317abbf16675903172813d8686"),
    (("compare", "--p", "4093/8191", "--n", "5000", "--seed", "12345678901234567890",
      "--alpha", "0.01"),
     "9465a13e70af07406487f2644860c75e95cde2bcfa504eec987173e4375c45ee"),
    (("compare", "--p", "3/7", "--n", "777", "--seed", "0", "--alpha", "0.05",
      "--format", "json"),
     "488a7a78ccebb6b974c797892875492db339b94ac363fa7eb5b5d59353235dcc"),
    # p > 1/2: the designed runs count takes the closed form's other branch
    (("compare", "--p", "5/7", "--n", "4000", "--seed", "9", "--alpha", "0.05",
      "--format", "json"),
     "427a99c55dd64aed133ec58a4466f3bf4824346b51cbae850788c310f51ca09f"),
    (("realize", "--p", "4093/8191", "--n", "300"),
     "2944cdd79c7e30aa728a4e1101e60cd1a13636f9a0d5a28c43befcb7acde7217"),
    (("realize", "--p", "3/7", "--n", "20", "--format", "json"),
     "7241227ed182368027f08a918a2a85cd1dda4e17dd268c3343c5f481224ccddd"),
    (("gen-dist", "--probs", "1/6,1/3,1/2", "--n", "2000"),
     "d8d44c6cffeadb3c8edcd61d6bfaee17c8eb8b6d228ec7443fd26cfaed59d8ac"),
    (("gen-dist", "--probs", TEN_CELLS, "--n", "1000", "--format", "json"),
     "d3f395fc5ffa3c40a727be6f82176c41e061fc841714c309a068e4da10c1bb97"),
    (("check-axioms", "--family", "--language-size", "4"),
     "6b9f838b40cd8e2dadefc65be140616c20202531d6bee5daec0836ac771185b2"),
    (("check-axioms", "--self-maps"),
     "6e017e19ce027f5ee2ccfcc552b3625d29f5d082d47b8070a57272971ab6d43c"),
    # gen-dist routes: chunks hold 8,192 value slots, a row its cell and m counts.  Ten
    # cells of a 56-row period: 137 full chunks of 13 whole periods, one tile checked once.
    (("gen-dist", "--probs", TEN_SHARES, "--n", "100000"),
     "09b70d70ae86dccf58b6f5e1b934e7c2824275e134ec162f9add4bc277b5b6d9"),
    (("gen-dist", "--probs", TEN_SHARES, "--n", "100000", "--format", "json"),
     "77fed1271144fc9cd130956277cf50929a93e092d19877b77d96f7ddafa4cbd7"),
    # a period of up to 2**17 slots is one tile: two cells of a 40,009-row period, and
    # ten of an 8,191-row one
    (("gen-dist", "--probs", "1/40009,40008/40009", "--n", "100000"),
     "6027fb411b22a27c5f55ad0e59246d52ca941d0e3de729eff29b9621b51542d6"),
    (("gen-dist", "--probs", "1/40009,40008/40009", "--n", "100000", "--format", "json"),
     "532fb7ff76c274a0619f97481fc97ed472d0c6415c13987a9e8f19fef08d42ff"),
    (("gen-dist", "--probs", TEN_8191, "--n", "50000"),
     "dbfbdc3ce287babd7b15dca7bb678ff020c50e0ed336440b1bd35607cfcc36fc"),
    # past the cap, the loop in chunks of 8192 // (m + 1) = 744 rows
    (("gen-dist", "--probs", TEN_40009, "--n", "30000"),
     "c545a530d8d62ef1224d5615f768faffac7c24864c1819624c9169165ab0fa35"),
    # forty cells of a 40-row period: tiles of 4 periods
    (("gen-dist", "--probs", FORTY_CELLS, "--n", "20000"),
     "5970ef7b1324f0d8d2af25588b9882a48d39a6c0bf885a05fdea07c2a5dafb98"),
    (("gen-dist", "--probs", FORTY_CELLS, "--n", "20000", "--format", "json"),
     "28984cb4b8bedbf21d51aec92af7a3d09aede28b2482e88492e874e620730a19"),
    # realize: 20,000 trials cross two chunk edges and the 5-digit numbered blocks;
    # outcomes from k*num mod den < num at a wide den, p = 0 and 1, and one past two chunks
    (("realize", "--p", "1/3", "--n", "20000"),
     "a75a4782dc8647cbd960bf21ceb3c40b1d8e915fa5491d6786d1999e258d3f94"),
    (("realize", "--p", "1/3", "--n", "20000", "--format", "json"),
     "3be7fe7dcc084a136b0105946eddcea00ff3c8d0ec94aacfd2079b43cf9ed17d"),
    (("realize", "--p", "577215/1000003", "--n", "20000"),
     "7f2f4fec56503cd0b68a1da112d0843cb1c5f5f910b9f90f6e5f2707d593422e"),
    (("realize", "--p", "0", "--n", "20000", "--format", "json"),
     "77449401d6528b99c2ad5e0c3244a29253b2748d6c9505ba4e744c6d79da5b96"),
    (("realize", "--p", "1", "--n", "20000"),
     "2115faa046729c7a0a63760c5d2a5d9b692adbb67e60a336eaca5df3de144eba"),
    (("realize", "--p", "4093/8191", "--n", "16385", "--format", "json"),
     "3c7e1c4b836abd399fc560756c06a5e6bed88fe1a082784094066b718673ce5c"),
    # pooled rows over two chunks: den past a chunk, a freeze in the second chunk,
    # p = 0 and 1, and nonconvergent sequences with low = 0 and with high = 1
    (("gen-seq", "--p", "577215/1000003", "--n", "20000"),
     "94bc1af97e79c3084cf0a83666d4b01299ac8d25a0830ace45857660a4a54edf"),
    (("gen-seq", "--p", "5/11", "--n", "20000", "--m", "9000", "--format", "json"),
     "a0a2bd259b8eee6e346d36dc656c0deaf7153f155257f12f13796c67b51085ee"),
    (("gen-seq", "--p", "0", "--n", "20000"),
     "36f75fc3532b7f4a2dc2bef2aa63da61bf9cf7cdb718d60c91a6e1370116d8c1"),
    (("gen-seq", "--p", "1", "--n", "20000", "--format", "json"),
     "1ce076559003f03359394ed3030640d6ac9aafd531c5abc900659fbc00eadd94"),
    (("gen-nonconv", "--low", "0", "--high", "1/2", "--n", "20000"),
     "9c6d42694085e122377d8aa523cdeb9b1791084fc5912a62d45d32e9047db158"),
    (("gen-nonconv", "--low", "1/2", "--high", "1", "--n", "20000", "--format", "json"),
     "bc8397aabb3b4c312af925677078c5b2227133dadb796fe27cfe6deef1451dae"),
]


def test_cli_stdout_matches_golden_hashes():
    # in-process through main; a subprocess and a second hash seed are covered by
    # test_criterion_13_round_trip_and_cli_determinism and
    # test_stdout_is_the_same_under_a_second_hash_seed
    mismatches = []
    for argv, digest in GOLDEN:
        code, out, err = run_main_err(argv)
        if (code, err, hashlib.sha256(out.encode()).hexdigest()) != (0, "", digest):
            mismatches.append((argv, code, err))
    assert not mismatches, mismatches


class _Sink:
    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def _peak_bytes(argv):
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.bytes > 0
    return peak


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-seq", "--p", "4093/8191"),
        ("gen-seq", "--p", "4093/8191", "--m", "7", "--format", "json"),
        ("gen-nonconv", "--low", "2/7", "--high", "4/7"),
        ("compare", "--p", "4093/8191"),
        ("gen-dist", "--probs", "1/6,1/3,1/2"),
        ("gen-dist", "--probs", TEN_CELLS, "--format", "json"),
        ("realize", "--p", "4093/8191"),
        ("realize", "--p", "4093/8191", "--format", "json"),
    ],
)
def test_streaming_verbs_memory_is_flat_in_n(argv):
    """Four times the trials, same peak: nothing n-sized is held.

    Small chunks keep the traced run short; holding the 15,000 extra terms
    as a tuple of ints alone would add over 500 kB.
    """
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", 256):
        small = _peak_bytes([*argv, "--n", "5000"])
        large = _peak_bytes([*argv, "--n", "20000"])
    assert large - small < 100_000, (small, large)


def test_gen_dist_memory_is_flat_in_the_cell_count():
    """Ten times the cells, same peak: a chunk holds a budget of value slots, not of rows.

    Rows of 3 and of 30 cells at the module's chunk budget; a budget of rows would
    hold 8,192 rows of 31 slots at 30 cells, over 5 MB more than at 3.
    """
    argvs = [("gen-dist", "--probs", ",".join([f"1/{m}"] * m)) for m in (3, 30)]
    for argv in argvs:  # the modules and each row pattern's block are built before tracing
        _peak_bytes([*argv, "--n", "300"])
    few, many = (_peak_bytes([*argv, "--n", "20000"]) for argv in argvs)
    assert many - few < 250_000, (few, many)


def probed_chunks(chunks, held):
    """Yield ``chunks``; as each chunk after the first is pulled, append to
    ``held`` the references the consumer still holds to the chunk before (CPython
    reference counts; the full chunks of a tiled run are one array)."""
    chunks = list(chunks)
    before = list(map(sys.getrefcount, chunks))

    def pull():
        for i in range(len(chunks)):
            if i:
                held.append(sys.getrefcount(chunks[i - 1]) - before[i - 1])
            yield chunks[i]

    return pull()


def probed_texts(texts, held):
    """Yield ``texts``; as realize builds each chunk after the first of a part, append
    to ``held`` the references the stream still holds to the text it yielded before
    (CPython reference counts: the probe's list holds one, ``getrefcount`` one)."""
    kept, numbered = [], event_seq._numbered

    def spy(lo, hi, pattern):
        if lo > 1:  # the text before is this part's chunk before
            held.append(sys.getrefcount(kept[-1]) - 2)
        return numbered(lo, hi, pattern)

    with mock.patch.object(event_seq, "_numbered", spy):
        for _ in map(kept.append, texts):  # no name here keeps the last text
            yield kept[-1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("verb", ["sequence_chunks", "cell_chunks", "long_period_cell_chunks",
                                  "loop_cell_chunks", "trace_chunks"])
def test_streams_drop_each_chunk_before_reading_the_next(verb, fmt):
    # The sequence rows of the canonical 2/5 sequence for n trials, cut into chunks,
    # are probed as the writer reads each chunk; realize's texts as it builds each one.
    # The chunk budget is 8 rows of a sequence, or 8 value slots of a cell table.
    chunk, n, held = 8, 60, []
    terms = list(canonical_terms(F(2, 5), n))
    streams = {  # each stream and the number of its chunks
        "sequence_chunks": (lambda: freq_seq._sequence_rows(probed_chunks(
            [terms[lo:lo + chunk] for lo in range(0, n, chunk)], held), fmt), 8),
        # one period of 4 rows (16 slots, past the budget), so 4-row tiles of that period
        "cell_chunks": (lambda: cell_dist.cell_chunks(
            probed_chunks(cell_dist.cell_column_chunks([F(1, 4), F(1, 2), F(1, 4)], n), held),
            3, fmt,
        ), 15),
        # a period of 9 rows (27 slots), again one tile: 9-row tiles, the last one short
        "long_period_cell_chunks": (lambda: cell_dist.cell_chunks(
            probed_chunks(cell_dist.cell_column_chunks([F(1, 9), F(8, 9)], n), held), 2, fmt,
        ), 7),
        # past a 26-slot cap: the loop's cells, in chunks of 64 rows
        "loop_cell_chunks": (lambda: cell_dist.cell_chunks(
            probed_chunks(cell_dist.cell_column_chunks([F(1, 9), F(8, 9)], 3 * 64 + 5), held),
            2, fmt,
        ), 4),
        "trace_chunks": (lambda: probed_texts(event_seq.trace_chunks(F(2, 5), n, fmt), held), 8),
    }
    stream, chunks = streams[verb]
    cap = 26 if verb == "loop_cell_chunks" else cell_dist.TILE_SLOTS
    with mock.patch.object(freq_seq, "ROWS_PER_CHUNK", chunk), \
            mock.patch.object(cell_dist, "TILE_SLOTS", cap):
        collections.deque(stream(), maxlen=0)
    # one probe as each chunk after the first is read; realize has two parts
    assert len(held) == (2 if verb == "trace_chunks" else 1) * (chunks - 1)
    assert set(held) == {0}, held
