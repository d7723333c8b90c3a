import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmimic.freq_seq import (
    CumulativeSequence,
    FrequencyPoint,
    backshift_variant,
    build_nonconvergent,
    canonical_chunks,
    canonical_prefix,
    canonical_terms,
    check_cumulative_form,
    check_probability,
    count_phase_switches,
    frequency_points,
    max_deviation,
    parse_probability,
    sequence_csv,
    sequence_from_csv,
    sequence_json_rows,
    truncate_freeze,
    variant_to_one,
    variant_to_zero,
)

F = Fraction


def bracket_oracle(p, k):
    """Independent route: search the unique j with j/k <= p < (j+1)/k."""
    matches = [j for j in range(k + 1) if F(j, k) <= p < F(j + 1, k)]
    assert len(matches) == 1
    return matches[0]


def test_parse_probability():
    assert parse_probability("1/2") == F(1, 2)
    assert parse_probability("0.25") == F(1, 4)
    assert parse_probability("1") == 1
    assert parse_probability("0") == 0


def test_parse_probability_rejects_bad_input():
    for text in ("3/2", "-1/4", "abc", "1/0"):
        with pytest.raises(ValueError):
            parse_probability(text)
    with pytest.raises(ValueError, match="probability out of range"):
        check_probability(F(5, 4))


def test_parse_probability_bounds_decimal_exponents_before_parsing():
    # Fraction would compute 10**10000000 first; the bound is Python's 4,300-digit int limit
    assert parse_probability("1e-4300") == F(1, 10**4300)
    assert parse_probability("25E-2") == parse_probability(" 0.0025e+02 ") == F(1, 4)
    start = time.perf_counter()
    for text in ("1e-4301", "1E+4301", "1e-10000000", "1e-30000000", "1e-1_0000000", "0.5e-99999"):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse probability: '{text}'")):
            parse_probability(text)
    assert time.perf_counter() - start < 0.5


def test_check_probability_names_a_long_value_by_its_bit_lengths():
    # str() refuses a 4,301-digit int, and spells out a 4,300-digit one
    for value, name in [(F(5, 4), "5/4"), (F(-1, 2**100), f"-1/{2**100}"),
                        (F(10**4300), "14285-bit/1-bit fraction"),
                        (F(10**4299), "14281-bit/1-bit fraction"),
                        (F(-(10**4299), 3), "-14281-bit/2-bit fraction")]:
        with pytest.raises(ValueError) as info:
            check_probability(value)
        assert str(info.value) == f"probability out of range: {name}"


def test_check_cumulative_form():
    assert check_cumulative_form([0, 1, 1, 2]) == (True, None)
    assert check_cumulative_form(iter([0, 1, 1, 2])) == (True, None)
    assert check_cumulative_form(a for a in (0, 2)) == (False, 2)
    assert check_cumulative_form([]) == (True, None)
    assert check_cumulative_form([2, 3]) == (False, 1)
    assert check_cumulative_form([0, 2]) == (False, 2)
    assert check_cumulative_form([1, 1, 0]) == (False, 3)
    assert check_cumulative_form([0.5, 1]) == (False, 1)


def test_cumulative_sequence_validates():
    with pytest.raises(ValueError, match="index 2"):
        CumulativeSequence((0, 2))
    assert len(CumulativeSequence((0, 1))) == 2
    with pytest.raises(ValueError, match="index 1"):
        CumulativeSequence((0.5, 1))  # a step inside [0, 1] but not 0 or 1


def test_canonical_prefix_half():
    assert canonical_prefix(F(1, 2), 8).terms == (0, 1, 1, 2, 2, 3, 3, 4)


def test_canonical_prefix_quarter_matches_oracle():
    seq = canonical_prefix(F(1, 4), 8)
    assert seq.terms == (0, 0, 0, 1, 1, 1, 1, 2)
    assert seq.terms == tuple(bracket_oracle(F(1, 4), k) for k in range(1, 9))


def test_canonical_prefix_degenerate():
    assert canonical_prefix(0, 5).terms == (0, 0, 0, 0, 0)
    assert canonical_prefix(1, 5).terms == (1, 2, 3, 4, 5)


def test_canonical_prefix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        canonical_prefix(F(3, 2), 4)
    with pytest.raises(ValueError):
        canonical_prefix(F(1, 2), -1)


@pytest.mark.parametrize("bad, name", [(True, "bool"), (2.0, "float"), (F(3), "Fraction")])
def test_canonical_lengths_and_freeze_indexes_must_be_ints(bad, name):
    with pytest.raises(ValueError, match=f"^prefix length must be an int, got {name}$"):
        canonical_prefix(F(1, 2), bad)
    with pytest.raises(ValueError, match=f"^prefix length must be an int, got {name}$"):
        canonical_chunks(F(1, 2), bad, None, "csv")
    with pytest.raises(ValueError, match=f"^freeze index must be an int, got {name}$"):
        canonical_terms(F(1, 2), 4, bad)
    with pytest.raises(ValueError, match=f"^freeze index must be an int, got {name}$"):
        canonical_chunks(F(1, 2), 4, bad, "csv")


@given(
    st.fractions(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=48),
)
@settings(max_examples=150)
def test_canonical_prefix_matches_bracket_oracle(p, n):
    seq = canonical_prefix(p, n)
    if p < 1:
        assert seq.terms == tuple(bracket_oracle(p, k) for k in range(1, n + 1))
    else:
        assert seq.terms == tuple(range(1, n + 1))


@given(
    st.fractions(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=100)
def test_canonical_prefix_prefixes_are_stable(p, n):
    longer = canonical_prefix(p, n + 5)
    assert canonical_prefix(p, n).terms == longer.terms[:n]


@given(
    st.fractions(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=100)
def test_canonical_prefix_within_unit_bound(p, n):
    assert max_deviation(canonical_prefix(p, n), p).within_bound


def test_frequency_points_half():
    points = frequency_points(canonical_prefix(F(1, 2), 8))
    assert points == [
        FrequencyPoint(1, 0),
        FrequencyPoint(2, 1),
        FrequencyPoint(3, 1),
        FrequencyPoint(4, 2),
        FrequencyPoint(5, 2),
        FrequencyPoint(6, 3),
        FrequencyPoint(7, 3),
        FrequencyPoint(8, 4),
    ]
    assert points[3].fraction == F(1, 2)
    assert points[4].fraction == F(2, 5)


def test_frequency_points_degenerate():
    assert [tuple(pt) for pt in frequency_points(CumulativeSequence((0, 0, 0)))] == [
        (1, 0), (2, 0), (3, 0),
    ]
    assert [tuple(pt) for pt in frequency_points(canonical_prefix(1, 2))] == [
        (1, 1), (2, 2),
    ]


def test_max_deviation_half():
    got = max_deviation(canonical_prefix(F(1, 2), 8), F(1, 2))
    assert got.max_deviation == F(1, 2)  # worst at k=1: |0 - 1/2|
    assert got.within_bound


def test_max_deviation_all_zero_at_p_zero():
    got = max_deviation(CumulativeSequence((0, 0, 0)), 0)
    assert got.max_deviation == 0
    assert got.within_bound


def test_max_deviation_detects_violation():
    got = max_deviation(CumulativeSequence((0, 0)), 1)
    assert got.max_deviation == 1
    assert not got.within_bound


def test_variant_to_zero():
    assert variant_to_zero(2, 6).terms == (0, 1, 2, 2, 2, 2)
    assert variant_to_zero(3, 4).terms == (0, 1, 2, 3)
    seq = variant_to_zero(5, 10_000)
    assert seq.terms[-1] == 5
    with pytest.raises(ValueError):
        variant_to_zero(1, 4)


def test_variant_to_one():
    assert variant_to_one(2, 6).terms == (0, 0, 1, 2, 3, 4)
    assert variant_to_one(3, 3).terms == (0, 0, 0)
    seq = variant_to_one(2, 10_000)
    assert seq.terms[-1] == 10_000 - 2
    with pytest.raises(ValueError):
        variant_to_one(1, 4)


def test_backshift_variant_clamps_to_zero():
    seq = CumulativeSequence((0, 1, 1, 2, 2, 3))
    shifted = backshift_variant(seq, 5)
    assert shifted.terms == (0, 0, 0, 1, 2, 3)
    # contract: tail from the block on is untouched, result stays well-formed
    assert shifted.terms[4:] == seq.terms[4:]
    assert check_cumulative_form(shifted.terms).ok


def test_backshift_variant_without_clamp_region():
    seq = CumulativeSequence((0, 1, 2, 3, 4, 4))
    shifted = backshift_variant(seq, 6)
    assert shifted.terms == (0, 0, 1, 2, 3, 4)
    assert shifted.terms[5:] == seq.terms[5:]


def test_backshift_variant_block_one_is_identity():
    seq = CumulativeSequence((0, 1, 1, 2))
    assert backshift_variant(seq, 1).terms == seq.terms


def backshift_walk(seq, block_index):
    """The backward walk: each earlier term drops by one until one would reach
    or pass zero; that term and everything before it become zero."""
    n = len(seq)
    if not 1 <= block_index <= n:
        raise ValueError("block index out of range")
    terms = list(seq.terms)
    if block_index > 1 and terms[block_index - 1] != terms[block_index - 2]:
        raise ValueError("block index must sit inside a repeated-count block")
    out = terms[:]
    for k in range(block_index - 1, 0, -1):
        lowered = terms[k - 1] - 1
        if lowered <= 0:
            for j in range(k):
                out[j] = 0
            break
        out[k - 1] = lowered
    return CumulativeSequence(out)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=40),
    block_index=st.integers(min_value=-1, max_value=42),
)
def test_backshift_variant_matches_the_backward_walk(bits, block_index):
    seq = CumulativeSequence(tuple(itertools.accumulate(bits)))

    def result(variant):
        try:
            return variant(seq, block_index)
        except ValueError as exc:
            return str(exc)

    assert result(backshift_variant) == result(backshift_walk)


def test_backshift_variant_rejects_bad_blocks():
    seq = CumulativeSequence((0, 1, 1, 2, 2, 3))
    with pytest.raises(ValueError):
        backshift_variant(seq, 2)  # 1 does not repeat 0
    with pytest.raises(ValueError):
        backshift_variant(seq, 7)
    with pytest.raises(ValueError):
        backshift_variant(seq, 0)


def test_truncate_freeze():
    base = canonical_prefix(F(1, 2), 8)
    frozen = truncate_freeze(base, 4, 8)
    assert frozen.terms == (0, 1, 1, 2, 2, 2, 2, 2)
    assert truncate_freeze(base, 8, 8) == base
    with pytest.raises(ValueError):
        truncate_freeze(base, 9, 12)
    with pytest.raises(ValueError):
        truncate_freeze(base, 4, 3)


def test_truncate_freeze_frequency_drops():
    base = canonical_prefix(F(1, 2), 100)
    frozen = truncate_freeze(base, 100, 10_000)
    assert frozen.terms[-1] == 50
    assert F(frozen.terms[-1], len(frozen)) == F(1, 200)


def test_build_nonconvergent_worked_example():
    seq = build_nonconvergent(F(1, 3), F(1, 2), 24)
    assert seq.terms == (
        0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4,
        5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    )
    for k in (2, 4, 8, 16):
        assert F(seq.terms[k - 1], k) == F(1, 2)
    for k in (3, 6, 12, 24):
        assert F(seq.terms[k - 1], k) == F(1, 3)


def test_build_nonconvergent_rejects_bad_bounds():
    with pytest.raises(ValueError):
        build_nonconvergent(F(1, 2), F(1, 3), 10)
    with pytest.raises(ValueError):
        build_nonconvergent(F(1, 2), F(1, 2), 10)
    with pytest.raises(ValueError):
        build_nonconvergent(F(1, 3), F(1, 2), 0)


def test_count_phase_switches_worked_example():
    seq = build_nonconvergent(F(1, 3), F(1, 2), 24)
    assert count_phase_switches(seq) == 7


def loop_phase_switches(seq):
    """``count_phase_switches`` as a loop over consecutive steps: the oracle."""
    terms = seq.terms
    switches = 0
    prev_step = None
    for i in range(1, len(terms)):
        step = terms[i] - terms[i - 1]
        if prev_step is not None and step != prev_step:
            switches += 1
        prev_step = step
    return switches


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=60))
def test_count_phase_switches_matches_the_step_loop(bits):
    seq = CumulativeSequence(tuple(itertools.accumulate(bits)))
    assert count_phase_switches(seq) == loop_phase_switches(seq)


@pytest.mark.parametrize(
    "low,high",
    [(F(1, 3), F(1, 2)), (F(2, 5), F(1, 2)), (F(1, 2), F(3, 5))],
)
def test_nonconvergent_oscillates_enough(low, high):
    # both phase growth ratios stay at or below 3/2 for these pairs, so the
    # switch count keeps up with log_{3/2}(n/4)
    import math

    n = 10_000
    seq = build_nonconvergent(low, high, n)
    floor_bound = math.floor(math.log(n / 4) / math.log(1.5))
    assert count_phase_switches(seq) >= floor_bound
    ratios = [F(a, k) for k, a in enumerate(seq.terms, 1)]
    assert max(ratios) >= high
    assert min(ratios[1:]) <= low


def test_sequence_csv_round_trip():
    seq = canonical_prefix(F(3, 7), 40)
    text = sequence_csv(seq)
    assert sequence_from_csv(text) == seq
    first_lines = text.splitlines()[:3]
    assert first_lines == ["n,a_n,freq_num,freq_den", "1,0,0,1", "2,0,0,2"]


def test_sequence_from_csv_rejects_corruption():
    seq = canonical_prefix(F(1, 2), 4)
    text = sequence_csv(seq)
    with pytest.raises(ValueError):
        sequence_from_csv(text.replace("4,2,2,4", "4,2,3,4"))
    with pytest.raises(ValueError):
        sequence_from_csv("nope\n1,0,0,1\n")


def test_sequence_json_rows():
    rows = sequence_json_rows(canonical_prefix(F(1, 2), 3))
    assert rows == [
        {"n": 1, "a": 0, "freq": [0, 1]},
        {"n": 2, "a": 1, "freq": [1, 2]},
        {"n": 3, "a": 1, "freq": [1, 3]},
    ]
