import time
from fractions import Fraction

import pytest

from freqmimic.cell_dist import (
    CellAssignment,
    OneHotTrial,
    ProbabilityVector,
    build_cell_sequences,
    cell_csv,
    cell_json_rows,
    cell_operator_realization,
    cell_table_from_csv,
    discrepancy,
    parse_probability_vector,
    trials_to_tuples,
    validate_cell_table,
)
from freqmimic.language_core import event, non_event, source_statement

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

    with pytest.raises(ValueError):
        validate_cell_table([[0, 1], [0, 0, 1]], (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        validate_cell_table([[0, 1]], (F(1, 2), F(1, 2)))


def test_discrepancy_values():
    assert discrepancy(FIXTURE, FIXTURE_PROBS) == 1
    _, sequences = build_cell_sequences(QUARTERS, 6)
    assert discrepancy(sequences, QUARTERS) == F(1, 2)


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
