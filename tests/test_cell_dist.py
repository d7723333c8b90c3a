import copy
import itertools
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqmimic import cell_dist, freq_seq
from freqmimic.cell_dist import (
    CellAssignment,
    CellTableReport,
    OneHotTrial,
    ProbabilityVector,
    build_cell_sequences,
    cell_csv,
    cell_operator_realization,
    cell_table_from_csv,
    discrepancy,
    parse_probability_vector,
    trials_to_tuples,
    validate_cell_table,
    _shares,
)
from freqmimic.freq_seq import CumulativeSequence, check_cumulative_form
from freqmimic.language_core import (
    Statement,
    StatementKind,
    _labeled,
    event,
    non_event,
    source_statement,
)
from test_stream_oracle import cell_json_rows, loop_rows

F = Fraction

QUARTERS = (F(1, 4), F(1, 2), F(1, 4))

# hand-checkable fixture: one-hot, conservative, every column well-formed;
# worst gap is |a_1(4) - 4*1/4| = |2 - 1| = 1 (also cell 3 at t=4)
FIXTURE = [
    [1, 1, 1, 2, 2, 2],
    [0, 1, 2, 2, 2, 3],
    [0, 0, 0, 0, 1, 1],
]
FIXTURE_PROBS = QUARTERS


def fraction_greedy(probs, n):
    """Slow reference: compare deficits directly as Fractions."""
    counts = [F(0)] * len(probs)
    chosen = []
    for t in range(1, n + 1):
        deficits = [t * p - c for p, c in zip(probs, counts)]
        best = deficits.index(max(deficits))
        counts[best] += 1
        chosen.append(best + 1)
    return chosen


def _as_terms(seq):
    if isinstance(seq, CumulativeSequence):
        return seq.terms
    return tuple(seq)


def oracle_validate_cell_table(sequences, probs):
    """The index-scanning validator, kept as the oracle of the one-pass one."""
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


def oracle_trials_to_tuples(assignment, m):
    """One ``Statement`` per coordinate: the oracle of ``trials_to_tuples``."""
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


def outcome(call):
    try:
        return ("ok", call())
    except ValueError as exc:
        return (ValueError, str(exc))


def test_probability_vector_validates():
    with pytest.raises(ValueError):
        ProbabilityVector(())
    with pytest.raises(ValueError):
        ProbabilityVector((F(1, 2), F(-1, 2), F(1)))
    with pytest.raises(ValueError):
        ProbabilityVector((F(1, 2), F(1, 3)))
    vec = ProbabilityVector(QUARTERS)
    assert len(vec) == 3 and vec[1] == F(1, 2)


def test_parse_probability_vector():
    vec = parse_probability_vector("1/4,1/2,1/4")
    assert tuple(vec) == QUARTERS
    with pytest.raises(ValueError):
        parse_probability_vector("1/4,1/4")
    with pytest.raises(ValueError):
        parse_probability_vector("")


def test_cell_assignment_validates():
    with pytest.raises(ValueError):
        CellAssignment((1, 4), 3)
    with pytest.raises(ValueError):
        CellAssignment((0,), 3)


@pytest.mark.parametrize("entries, error", [
    ((1.5,), "trial 1 assigned a float, not an int cell"),
    ((True, 2), "trial 1 assigned a bool, not an int cell"),
    ((2.0, 1), "trial 1 assigned a float, not an int cell"),
    ((1, 2, Fraction(1)), "trial 3 assigned a Fraction, not an int cell"),
    ((2, "1"), "trial 2 assigned a str, not an int cell"),
    ((1, 3, 1.5), "trial 2 assigned outside 1..2"),  # the first bad trial is named
    ((1, 1.5, 3), "trial 2 assigned a float, not an int cell"),
])
def test_cell_assignment_rejects_cells_that_are_not_ints(entries, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        CellAssignment(entries, 2)


def test_greedy_small_run():
    assignment, sequences = build_cell_sequences(QUARTERS, 6)
    assert assignment.entries == (2, 1, 3, 2, 2, 1)
    assert [seq.terms for seq in sequences] == [
        (0, 1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3, 3),
        (0, 0, 1, 1, 1, 1),
    ]
    assert [seq.terms[-1] for seq in sequences] == [2, 3, 1]


def test_greedy_matches_fraction_reference():
    for probs, n in [
        (QUARTERS, 60),
        ((F(1, 3), F(2, 3)), 50),
        ((F(1, 7), F(2, 7), F(4, 7)), 70),
        ((F(1, 2), F(1, 2)), 40),
    ]:
        assignment, _ = build_cell_sequences(probs, n)
        assert list(assignment.entries) == fraction_greedy(probs, n)


def test_greedy_zero_probability_cell_starves():
    assignment, sequences = build_cell_sequences((F(0), F(1)), 5)
    assert assignment.entries == (2, 2, 2, 2, 2)
    assert sequences[0].terms == (0, 0, 0, 0, 0)


def test_greedy_single_cell_takes_everything():
    assignment, sequences = build_cell_sequences((F(1),), 4)
    assert assignment.entries == (1, 1, 1, 1)
    assert sequences[0].terms == (1, 2, 3, 4)
    assert discrepancy(sequences, (F(1),)) == 0


def test_greedy_table_invariants_at_scale():
    probs = (F(1, 6), F(1, 3), F(1, 2))
    assignment, sequences = build_cell_sequences(probs, 10_000)
    report = validate_cell_table(sequences, probs)
    assert report.all_ok
    assert discrepancy(sequences, probs) <= 1
    assert sum(seq.terms[-1] for seq in sequences) == len(assignment)


def test_validate_cell_table_fixture():
    report = validate_cell_table(FIXTURE, FIXTURE_PROBS)
    assert report.membership and report.one_hot and report.conservation
    assert report.all_ok


def test_validate_cell_table_flags_violations():
    bad_membership = [[1, 1, 3], [0, 1, 1], [0, 0, 0]]
    report = validate_cell_table(bad_membership, FIXTURE_PROBS)
    assert not report.membership

    bad_one_hot = [[1, 2, 2], [0, 1, 2], [0, 0, 0]]
    report = validate_cell_table(bad_one_hot, FIXTURE_PROBS)
    assert not report.one_hot

    bad_conservation = [[0, 1, 1], [0, 1, 1], [0, 0, 1]]
    report = validate_cell_table(bad_conservation, FIXTURE_PROBS)
    assert not report.conservation

    # half steps conserve the trial count, but no trial has an outcome
    fractional, halves = [[0.5, 1], [0.5, 1]], (F(1, 2), F(1, 2))
    report = validate_cell_table(fractional, halves)
    assert report == CellTableReport(False, False, True)
    assert report == oracle_validate_cell_table(fractional, halves)

    with pytest.raises(ValueError):
        validate_cell_table([[0, 1], [0, 0, 1]], (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        validate_cell_table([[0, 1]], (F(1, 2), F(1, 2)))


def oracle_discrepancy(sequences, probs):
    """The per-trial double loop, kept as the oracle of the mapped one."""
    tables = [_as_terms(s) for s in sequences]
    _, den, nums = _shares(probs)
    if len(tables) != len(nums):
        raise ValueError("one sequence per cell is required")
    if len({len(t) for t in tables}) > 1:
        raise ValueError("cell sequences must share one length")
    worst = 0
    for k, table in enumerate(tables):
        for t, a in enumerate(table, 1):
            gap = abs(a * den - t * nums[k])
            if gap > worst:
                worst = gap
    return Fraction(worst, den)


def test_discrepancy_values():
    assert discrepancy(FIXTURE, FIXTURE_PROBS) == 1
    _, sequences = build_cell_sequences(QUARTERS, 6)
    assert discrepancy(sequences, QUARTERS) == F(1, 2)


def test_discrepancy_rejects_unequal_column_lengths():
    with pytest.raises(ValueError, match="cell sequences must share one length"):
        discrepancy([[0, 1, 1], [1]], (F(1, 2), F(1, 2)))


@pytest.mark.parametrize("weights, worst", [
    ((3, 5, 11, 11, 1, 11), F(43, 42)),
    ((5, 9, 11, 11, 3, 3, 1, 9), F(53, 52)),
])
def test_greedy_discrepancy_can_exceed_one(weights, worst):
    probs = [F(w, sum(weights)) for w in weights]
    for periods in (1, 3):
        _, sequences = build_cell_sequences(probs, periods * sum(weights))
        assert discrepancy(sequences, probs) == worst == oracle_discrepancy(sequences, probs)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8).filter(any),
    n=st.integers(min_value=0, max_value=120),
)
def test_greedy_counts_stay_within_the_documented_bounds(weights, n):
    # a count exceeds t*p_k by at most 1 - 1/m and falls short by at most (m - 1)(1 - 1/m)
    m, probs = len(weights), [F(w, sum(weights)) for w in weights]
    _, sequences = build_cell_sequences(probs, n)
    gaps = [a - t * p for seq, p in zip(sequences, probs) for t, a in enumerate(seq.terms, 1)]
    assert max(gaps, default=0) <= 1 - F(1, m)
    assert -min(gaps, default=0) <= (m - 1) * (1 - F(1, m))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6).filter(any),
    n=st.integers(min_value=0, max_value=10**4),
)
@example(weights=[3, 5, 11, 11, 1, 11], n=4 * 42 + 5)  # the 43/42 vector, past its period
def test_discrepancy_of_n_rows_is_that_of_one_period(weights, n):
    # every deficit repeats with period den, so rows past den add no new gap
    probs, den, _ = _shares([F(w, sum(weights)) for w in weights])
    n %= 4 * den + 6
    _, rows = build_cell_sequences(probs, n)
    _, period = build_cell_sequences(probs, min(n, den))
    assert discrepancy(rows, probs) == discrepancy(period, probs)


@settings(max_examples=200, deadline=None)
@given(p=st.fractions(min_value=0, max_value=1, max_denominator=60))
@example(p=F(1, 2))  # trial 1 ties, and the lower cell takes it
def test_two_cell_greedy_counts_round_t_times_p_half_up(p):
    # for m = 2 the first count is floor(t*p + 1/2): the mechanical word with
    # intercept 1/2, not the floor(t*p) word of ``canonical_counts``
    num, den = p.numerator, p.denominator
    _, (first, _) = build_cell_sequences([p, 1 - p], 3 * den + 5)
    assert first.terms == tuple((2 * t * num + den) // (2 * den) for t in range(1, 3 * den + 6))


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8).filter(any),
    n=st.integers(min_value=0, max_value=60),
)
@example(weights=[7], n=0)  # m = 1: den is 1
@example(weights=[0, 3, 0, 2], n=4)  # zero shares never take a trial; n < den
def test_greedy_deficits_are_all_zero_after_one_period(weights, n):
    # the module docstring's proof: at t = den every deficit is 0, so the rows repeat
    probs, den, nums = _shares([F(w, sum(weights)) for w in weights])
    rows = loop_rows(probs, den + n)
    deficits = [den * num - a * den for num, a in zip(nums, rows[den - 1][2:])]
    assert deficits == [0] * len(nums)
    for t, cell, *counts in rows[den:]:
        _, first_cell, *first = rows[t - den - 1]
        assert (cell, counts) == (first_cell, [a + num for a, num in zip(first, nums)])


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5).filter(any),
    data=st.data(),
)
def test_cell_operator_realization_past_the_period_matches_the_loop(weights, data):
    probs = [F(w, sum(weights)) for w in weights]
    _, den, _ = _shares(probs)
    t = data.draw(st.integers(min_value=den + 1, max_value=4 * den + 3))
    *_, (_, cell, *_) = loop_rows(probs, t)
    got = cell_operator_realization(probs, t + data.draw(st.integers(0, 5)), t)
    assert (got.trial, got.cell) == (t, cell)


@st.composite
def discrepancy_tables(draw):
    """Greedy tables with zero shares, raw term lists that break the form, one cell, no trials."""
    kind = draw(st.sampled_from(["greedy", "raw", "single", "empty", "mismatched"]))
    m = 1 if kind == "single" else draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=m, max_size=m))
    weights[draw(st.integers(0, m - 1))] += 1
    probs = [F(w, sum(weights)) for w in weights]
    n = 0 if kind == "empty" else draw(st.integers(min_value=0, max_value=60))
    if kind == "raw":
        column = st.lists(st.integers(min_value=-5, max_value=70), max_size=n)
        return draw(st.lists(column, min_size=m, max_size=m)), probs
    table = _greedy_table(weights, n)
    if kind == "mismatched":
        table = table[1:] if draw(st.booleans()) else table + [[0] * n]
    return table, probs


@settings(max_examples=400, deadline=None)
@given(case=discrepancy_tables())
def test_discrepancy_matches_double_loop(case):
    table, probs = case
    expected = outcome(lambda: oracle_discrepancy(table, probs))
    assert outcome(lambda: discrepancy(table, probs)) == expected
    sequences = outcome(lambda: [CumulativeSequence(column) for column in table])
    if sequences[0] == "ok":
        assert outcome(lambda: discrepancy(sequences[1], probs)) == expected


@st.composite
def unit_step_tables(draw):
    """Unit-step columns of one length, not one-hot: random, all zero, a step at
    every trial, or random from a(1) = 0 or a(1) = 1; shares with num = 0 and num = den."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=60))
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "zeros", "steps", "from-0", "from-1"]))
        bits = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
        if kind in ("zeros", "steps"):
            bits = [int(kind == "steps")] * n
        elif n and kind.startswith("from-"):
            bits[0] = int(kind[-1])
        columns.append(tuple(itertools.accumulate(bits)))
    den = draw(st.integers(min_value=1, max_value=12))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=den), min_size=m - 1, max_size=m - 1)))
    return columns, [F(hi - lo, den) for lo, hi in zip([0, *cuts], [*cuts, den])]


@settings(max_examples=400, deadline=None)
@given(case=unit_step_tables())
@example(case=([(0, 1, 1, 2), (0, 0, 0, 0)], [F(1), F(0)]))  # num = den, then num = 0
@example(case=([(1, 2, 3), (0, 0, 0)], [F(0), F(1)]))  # a step at every trial, then none
@example(case=([()], [F(1)]))  # no trials
def test_discrepancy_at_change_points_equals_the_per_trial_formula(case):
    # a CumulativeSequence column is read at its change points; the same terms as
    # raw tuples take the per-trial formula
    columns, probs = case
    got = discrepancy([CumulativeSequence(column) for column in columns], probs)
    assert got == discrepancy(columns, probs) == oracle_discrepancy(columns, probs)


def test_discrepancy_at_change_points_on_seeded_tables():
    # greedy tables of 1e5 rows at 3 and 10 cells, weights 1..9 drawn as the
    # benchmark's cells workload draws them at seed 1
    rng = random.Random("freqmimic-bench/cells/1")
    for m in (3, 10):
        weights = [rng.randint(1, 9) for _ in range(m)]
        probs = [F(w, sum(weights)) for w in weights]
        _, sequences = build_cell_sequences(probs, 10**5)
        assert discrepancy(sequences, probs) == discrepancy([s.terms for s in sequences], probs) <= 1


def test_one_hot_trial_validates():
    OneHotTrial((non_event(3), event(3)))
    with pytest.raises(ValueError):
        OneHotTrial((event(1), event(1)))
    with pytest.raises(ValueError):
        OneHotTrial((event(1), non_event(2)))
    with pytest.raises(ValueError):
        OneHotTrial((source_statement(), event(1)))
    with pytest.raises(ValueError):
        OneHotTrial(())


def test_trials_to_tuples():
    assignment, _ = build_cell_sequences(QUARTERS, 3)
    tuples = trials_to_tuples(assignment, 3)
    assert [t.cell for t in tuples] == [2, 1, 3]
    assert [t.trial for t in tuples] == [1, 2, 3]
    assert tuples[0].coordinates == (non_event(1), event(1), non_event(1))
    with pytest.raises(ValueError):
        trials_to_tuples(assignment, 2)


def test_trials_to_tuples_two_cells():
    tuples = trials_to_tuples(CellAssignment((2, 1), 2), 2)
    assert [t.coordinates for t in tuples] == [
        (non_event(1), event(1)),
        (event(2), non_event(2)),
    ]


def test_trials_to_tuples_single_cell():
    tuples = trials_to_tuples(CellAssignment((1, 1, 1), 1), 1)
    assert [t.coordinates for t in tuples] == [
        (event(1),), (event(2),), (event(3),),
    ]


def test_cell_operator_realization_first_trial():
    got = cell_operator_realization(QUARTERS, 6, 1)
    assert got.coordinates == (non_event(1), event(1), non_event(1))
    assert got.cell == 2


def test_cell_operator_realization_agrees_with_direct_route():
    probs = (F(1, 6), F(1, 3), F(1, 2))
    assignment, _ = build_cell_sequences(probs, 20)
    direct = trials_to_tuples(assignment, 3)
    for t in range(1, 21):
        assert cell_operator_realization(probs, 20, t) == direct[t - 1]


def test_cell_operator_realization_reads_only_the_prefix():
    # the greedy table is prefix-stable, so trial t needs t trials, not n
    start = time.perf_counter()
    got = cell_operator_realization(QUARTERS, 10**9, 3)
    assert time.perf_counter() - start < 1.0
    assert got == cell_operator_realization(QUARTERS, 3, 3)
    for t in (0, 10**9 + 1):
        with pytest.raises(ValueError, match="trial index out of range"):
            cell_operator_realization(QUARTERS, 10**9, t)


def test_cell_operator_realization_single_cell():
    got = cell_operator_realization((F(1),), 3, 2)
    assert got.coordinates == (event(2),)


def test_cell_operator_realization_range_check():
    with pytest.raises(ValueError):
        cell_operator_realization(QUARTERS, 6, 7)
    with pytest.raises(ValueError):
        cell_operator_realization(QUARTERS, 6, 0)


def test_cell_csv_round_trip():
    assignment, sequences = build_cell_sequences(QUARTERS, 6)
    text = cell_csv(assignment, sequences)
    assert text.splitlines()[0] == "t,assigned_cell,a_1,a_2,a_3"
    assert text.splitlines()[1] == "1,2,0,1,0"
    back_assignment, back_sequences = cell_table_from_csv(text)
    assert back_assignment == assignment
    assert back_sequences == sequences


def test_cell_csv_memory_beside_the_text_is_flat_in_the_cell_count():
    # slices of a fixed number of value slots: the peak beyond the returned text at
    # 100 cells stays within twice that at 3 (slices of 8,192 rows held 25x as much)
    beside = {}
    for m in (3, 100):
        table = build_cell_sequences([F(1, m)] * m, 2 * 10**4)
        tracemalloc.start()
        try:
            text = cell_csv(*table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beside[m] = peak - len(text)
        del text
    assert beside[100] <= 2 * beside[3]


def test_cell_csv_rejects_columns_of_unequal_length():
    assignment, (first, second, third) = build_cell_sequences(QUARTERS, 6)
    shorter = CumulativeSequence(second.terms[:-1])
    longer = CumulativeSequence(second.terms + second.terms[-1:])
    tables = [
        (assignment, [first, shorter, third]),
        (assignment, [first, longer, third]),
        (CellAssignment(assignment.entries + (1,), 3), [first, second, third]),
    ]
    for table in tables:
        with pytest.raises(ValueError, match="^cell sequences must share one length$"):
            cell_csv(*table)


@pytest.mark.parametrize("table", [
    (CellAssignment((1, 1), 2), [CumulativeSequence((1, 2)), CumulativeSequence((0, 0)),
                                 CumulativeSequence((0, 0))]),  # one sequence more than cells
    (CellAssignment((1, 2), 2), [CumulativeSequence((1, 1))]),  # one fewer
])
def test_cell_csv_needs_one_sequence_per_cell(table):
    # a table with another number of sequences than cells would not read back as itself
    with pytest.raises(ValueError, match="^one sequence per cell is required$"):
        cell_csv(*table)


def test_cell_table_from_csv_rejects_corruption():
    assignment, sequences = build_cell_sequences(QUARTERS, 3)
    text = cell_csv(assignment, sequences)
    with pytest.raises(ValueError):
        cell_table_from_csv(text.replace("t,assigned_cell", "x,assigned_cell"))
    with pytest.raises(ValueError):
        cell_table_from_csv(text.replace("2,1,1,1,0", "3,1,1,1,0"))


def test_cell_json_rows():
    assignment, sequences = build_cell_sequences(QUARTERS, 2)
    assert cell_json_rows(assignment, sequences) == [
        {"trial": 1, "cell": 2, "counts": [0, 1, 0]},
        {"trial": 2, "cell": 1, "counts": [1, 1, 0]},
    ]


def _greedy_table(weights, n):
    probs = [F(w, sum(weights)) for w in weights]
    _, sequences = build_cell_sequences(probs, n)
    return [list(seq.terms) for seq in sequences]


@st.composite
def cell_tables(draw):
    """Small integer tables: arbitrary, greedy, or greedy with one entry moved;
    now and then with a ragged column or one column too few or too many."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=8))
    weights = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=m, max_size=m))
    kind = draw(st.sampled_from(["arbitrary", "greedy", "moved"]))
    if kind == "arbitrary":
        column = st.lists(st.integers(min_value=-1, max_value=4), min_size=n, max_size=n)
        table = draw(st.lists(column, min_size=m, max_size=m))
    else:
        table = _greedy_table(weights, n)
        if kind == "moved" and n:
            k, t = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            table[k][t] += draw(st.sampled_from([-2, -1, 1, 2]))
    shape = draw(st.sampled_from(["ok"] * 8 + ["ragged", "fewer", "more"]))
    if shape == "ragged":
        table[0] = table[0] + [0]
    elif shape == "fewer":
        table = table[1:]
    elif shape == "more":
        table = table + [[0] * n]
    return table, [F(w, sum(weights)) for w in weights]


@settings(max_examples=400, deadline=None)
@given(case=cell_tables())
def test_one_pass_validator_matches_index_scan(case):
    table, probs = case
    expected = outcome(lambda: oracle_validate_cell_table(table, probs))
    assert outcome(lambda: validate_cell_table(table, probs)) == expected


@settings(max_examples=400, deadline=None)
@given(case=cell_tables(), data=st.data())
def test_validator_trusts_built_columns_and_matches_the_full_rescan(case, data):
    """Well-formed columns passed as ``CumulativeSequence``s are not scanned
    again; the report, broken tables included, is that of the full re-scan."""
    table, probs = case
    wrap = st.booleans()
    mixed = [
        CumulativeSequence(column) if check_cumulative_form(column).ok and data.draw(wrap)
        else column
        for column in table
    ]
    expected = outcome(lambda: oracle_validate_cell_table(table, probs))
    assert outcome(lambda: oracle_validate_cell_table(mixed, probs)) == expected
    assert outcome(lambda: validate_cell_table(mixed, probs)) == expected
    assert outcome(lambda: validate_cell_table(iter(mixed), probs)) == expected


def test_validator_scans_raw_columns_only(monkeypatch):
    from freqmimic import cell_dist

    scanned = []
    real = cell_dist.check_cumulative_form
    monkeypatch.setattr(cell_dist, "check_cumulative_form",
                        lambda terms: scanned.append(tuple(terms)) or real(terms))
    built = [CumulativeSequence(column) for column in FIXTURE]
    assert validate_cell_table(built, FIXTURE_PROBS).all_ok
    assert scanned == []
    raw = [built[0], [0, 2, 2, 2, 2, 3], built[2]]  # a raw column that jumps by 2
    report = validate_cell_table(raw, FIXTURE_PROBS)
    assert (report.membership, report.one_hot, report.conservation) == (False, False, False)
    assert scanned == [(0, 2, 2, 2, 2, 3)]


def _quarters_csv(n=3):
    return cell_csv(*build_cell_sequences(QUARTERS, n))


def test_cell_table_from_csv_rejects_extra_fields():
    text = _quarters_csv().replace("\n1,2,0,1,0\n", "\n1,2,0,1,0,99\n")
    with pytest.raises(ValueError, match="^inconsistent cell CSV row 1$"):
        cell_table_from_csv(text)


def test_cell_table_from_csv_rejects_short_row():
    text = _quarters_csv().replace("\n2,1,1,1,0\n", "\n2,1,1,1\n")
    with pytest.raises(ValueError, match="^inconsistent cell CSV row 2$"):
        cell_table_from_csv(text)


def test_cell_table_from_csv_rejects_blank_line():
    text = _quarters_csv().replace("\n2,1,1,1,0\n", "\n\n2,1,1,1,0\n")
    with pytest.raises(ValueError, match="^inconsistent cell CSV row 2$"):
        cell_table_from_csv(text)


def test_cell_table_from_csv_rejects_trailing_blank_line():
    with pytest.raises(ValueError, match="^inconsistent cell CSV row 4$"):
        cell_table_from_csv(_quarters_csv() + "\n")
    assert cell_table_from_csv(_quarters_csv()) == build_cell_sequences(QUARTERS, 3)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.integers(min_value=1, max_value=6), max_size=40),
    m=st.integers(min_value=0, max_value=7),
)
def test_trials_to_tuples_matches_statement_per_coordinate_oracle(entries, m):
    assignment = CellAssignment(entries, max(entries, default=1))
    expected = outcome(lambda: oracle_trials_to_tuples(assignment, m))
    assert outcome(lambda: trials_to_tuples(assignment, m)) == expected


def test_validate_cell_table_conservation_without_one_hot():
    """Row sums 1, 2, ... while a column jumps by 2 or falls: not one-hot."""
    halves = (F(1, 2), F(1, 2))
    for table in ([[0, 2], [1, 0]], [[1, 0, 1], [0, 2, 2]], [[0, 2, 3], [1, 0, 0]]):
        report = validate_cell_table(table, halves)
        assert report == oracle_validate_cell_table(table, halves)
        assert (report.membership, report.one_hot, report.conservation) == (False, False, True)


def assert_same_object(built, validated):
    """Equal, of one type, with one field dict and one hash, and unchanged by
    pickle and deepcopy round trips."""
    assert type(built) is type(validated) and vars(built) == vars(validated)
    assert built == validated and hash(built) == hash(validated)
    for back in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert type(back) is type(built) and back == built and hash(back) == hash(built)
        assert vars(back) == vars(built)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.integers(min_value=1, max_value=6), max_size=30),
    extra=st.integers(min_value=0, max_value=3),
    label=st.integers(min_value=1, max_value=10**30),
)
def test_unchecked_builds_equal_the_validated_objects(entries, extra, label):
    assert_same_object(_labeled(StatementKind.EVENT, label), event(label))
    assert_same_object(_labeled(StatementKind.NON_EVENT, label), non_event(label))
    m = max(entries, default=1) + extra
    assignment = CellAssignment(entries, m)
    built = trials_to_tuples(assignment, m)
    validated = oracle_trials_to_tuples(assignment, m)
    assert len(built) == len(validated)
    for trial, expected in zip(built, validated):
        assert_same_object(trial, expected)
        for coordinate, statement in zip(trial.coordinates, expected.coordinates):
            assert_same_object(coordinate, statement)
    if entries:
        counts = [[entries[:t].count(k) for t in range(1, len(entries) + 1)] for k in range(1, m + 1)]
        table = assignment, [CumulativeSequence(column) for column in counts]
        back = cell_table_from_csv(cell_csv(*table))
        assert back == table
        for sequence, expected in zip(back[1], table[1]):
            assert_same_object(sequence, expected)
            assert all(type(term) is int for term in sequence.terms)


def test_trials_and_a_consistent_table_are_built_without_their_checks():
    assignment, sequences = build_cell_sequences((F(1, 6), F(1, 3), F(1, 2)), 200)
    text = cell_csv(assignment, sequences)
    trials = oracle_trials_to_tuples(assignment, 3)
    with mock.patch.object(OneHotTrial, "__post_init__", side_effect=AssertionError), \
            mock.patch.object(Statement, "__post_init__", side_effect=AssertionError), \
            mock.patch.object(freq_seq, "check_cumulative_form", side_effect=AssertionError):
        assert trials_to_tuples(assignment, 3) == trials
        assert cell_table_from_csv(text) == (assignment, sequences)
        assert build_cell_sequences((F(1, 6), F(1, 3), F(1, 2)), 200) == (assignment, sequences)
        with pytest.raises(AssertionError):  # the per-row route checks every column
            cell_dist._table_by_rows(text)
        with pytest.raises(AssertionError):  # and the oracle every statement
            oracle_trials_to_tuples(assignment, 3)


def test_trials_to_tuples_names_the_first_cell_beyond_the_arity_before_building():
    assignment = CellAssignment((1, 3, 2, 3), 3)
    with mock.patch.object(cell_dist, "_labeled", side_effect=AssertionError), \
            pytest.raises(ValueError, match="^trial 2 assigned to cell 3, beyond arity 2$"):
        trials_to_tuples(assignment, 2)
