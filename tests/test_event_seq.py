import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmimic import event_seq, freq_seq
from freqmimic.closure_ops import (
    SourceConditionalOperator,
    canonical_form,
    join_family,
    realize,
)
from freqmimic.event_seq import (
    BinaryTrialSequence,
    LabeledEventSequence,
    from_binary,
    label_events,
    realize_trace,
    to_binary,
    trace_operator,
)
from freqmimic.freq_seq import CumulativeSequence, canonical_prefix, truncate_freeze
from freqmimic.language_core import StatementKind, event, non_event, source_statement

F = Fraction


def singleton_operators(p, n):
    """One operator per trial, each attaching a single labeled outcome."""
    labeled = label_events(to_binary(canonical_prefix(p, n)))
    source = source_statement()
    return [
        SourceConditionalOperator(frozenset({entry}), source) for entry in labeled.entries
    ]


def rows(labeled):
    """JSON rows of a labeled sequence: the oracle of ``realize --format json``."""
    return [
        {"trial": j, "event": entry.kind is StatementKind.EVENT}
        for j, entry in enumerate(labeled.entries, 1)
    ]


def fold_singletons(p, n):
    """Join all single-outcome operators; must agree with ``trace_operator``."""
    source = source_statement()
    combined = SourceConditionalOperator(frozenset(), source)
    for op in singleton_operators(p, n):
        combined = join_family(combined, op)
    return combined

well_formed = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=1), min_size=n, max_size=n
    )
)


def test_to_binary_half_prefix():
    seq = canonical_prefix(F(1, 2), 5)
    assert to_binary(seq).bits == (0, 1, 0, 1, 0)


def test_to_binary_requires_well_formed_counts():
    binary = to_binary(canonical_prefix(F(1, 4), 8))
    assert binary.bits == (0, 0, 0, 1, 0, 0, 0, 1)
    assert binary.ones == 2


def test_to_binary_degenerate():
    assert to_binary(canonical_prefix(0, 4)).bits == (0, 0, 0, 0)
    assert to_binary(canonical_prefix(1, 3)).bits == (1, 1, 1)


def test_binary_sequence_validates_bits():
    with pytest.raises(ValueError):
        BinaryTrialSequence((0, 2, 1))
    assert BinaryTrialSequence(()).bits == ()


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, F(1), F(0)])
def test_bits_that_are_not_ints_are_rejected_with_the_trial_number(bad):
    # countOf counts each of these as 0 or 1; the first bad trial is named either way round
    for bits, trial in [((0, 1, bad, 1), 3), ((1, bad, 2), 2), ((2, bad), 1), ((bad,) * 3, 1)]:
        with pytest.raises(ValueError, match=f"^trial {trial} outcome must be 0 or 1$"):
            BinaryTrialSequence(bits)
        with pytest.raises(ValueError, match=f"^trial {trial} outcome must be 0 or 1$"):
            from_binary(bits)


def test_event_seq_keeps_the_names_the_bench_reads():
    assert event_seq.BinaryTrialSequence is freq_seq.BinaryTrialSequence
    assert callable(event_seq.to_binary) and callable(event_seq.from_binary)


def test_from_binary_small_cases():
    assert from_binary(BinaryTrialSequence(())).terms == ()
    assert from_binary(BinaryTrialSequence((1, 1))).terms == (1, 2)


def oracle_from_binary(bits):
    """The two-scan route: check that each bit is the int 0 or 1, then the prefix sums' steps."""
    bits = tuple(bits)
    for j, bit in enumerate(bits, 1):
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"trial {j} outcome must be 0 or 1")
    return CumulativeSequence(tuple(itertools.accumulate(bits)))


def _outcome(call):
    try:
        return ("ok", call())
    except ValueError as exc:
        return (ValueError, str(exc))


@given(st.lists(st.sampled_from([0, 1, 0, 1, True, False, 1.0, 0.0, F(1), 2, -1, 0.5]),
                max_size=40))
@settings(max_examples=300)
def test_from_binary_matches_the_two_scan_route(bits):
    got, expected = _outcome(lambda: from_binary(bits)), _outcome(lambda: oracle_from_binary(bits))
    assert got == expected
    if got[0] == "ok":
        assert set(map(type, got[1].terms)) <= {int}


def test_from_binary_inverts_to_binary():
    seq = canonical_prefix(F(3, 7), 50)
    assert from_binary(to_binary(seq)) == seq


@given(well_formed)
@settings(max_examples=120)
def test_round_trip_on_arbitrary_bits(bits):
    binary = BinaryTrialSequence(tuple(bits))
    assert to_binary(from_binary(binary)) == binary


def test_partial_rows_are_prefix_stable():
    # emitting n rows of the p=1/2 design, for growing n, never rewrites
    # an earlier row
    rows = [to_binary(canonical_prefix(F(1, 2), n)).bits for n in range(1, 6)]
    for shorter, longer in zip(rows, rows[1:]):
        assert longer[: len(shorter)] == shorter


def test_label_events():
    binary = to_binary(canonical_prefix(F(1, 2), 5))
    labeled = label_events(binary)
    assert labeled.text() == "E'_1 E_2 E'_3 E_4 E'_5"
    assert labeled.entries[1] == event(2)
    assert labeled.entries[2] == non_event(3)


def test_label_events_small_cases():
    assert label_events(BinaryTrialSequence(())).entries == ()
    assert label_events(BinaryTrialSequence((1,))).entries == (event(1),)


def test_labeled_sequence_validates_positions():
    with pytest.raises(ValueError):
        LabeledEventSequence((event(2),))
    with pytest.raises(ValueError):
        LabeledEventSequence((event(1), source_statement()))


def test_labeled_rows():
    labeled = label_events(BinaryTrialSequence((1, 0)))
    assert rows(labeled) == [
        {"trial": 1, "event": True},
        {"trial": 2, "event": False},
    ]


def test_trace_operator_attaches_every_trial():
    op = trace_operator(F(1, 2), 4)
    assert op.attachments == frozenset(
        {non_event(1), event(2), non_event(3), event(4)}
    )
    assert op.source == source_statement()


def test_trace_operator_all_non_events_at_p_zero():
    op = trace_operator(0, 2)
    assert canonical_form(op) == "C({E'_1,E'_2},{G})"


def test_trace_operator_canonical_form_half_five():
    assert canonical_form(trace_operator(F(1, 2), 5)) == (
        "C({E'_1,E_2,E'_3,E_4,E'_5},{G})"
    )


def test_trace_operator_equals_singleton_fold():
    for n in range(1, 9):
        assert fold_singletons(F(1, 2), n) == trace_operator(F(1, 2), n)


def test_singleton_operators_each_carry_one_statement():
    ops = singleton_operators(F(1, 4), 4)
    assert [len(op.attachments) for op in ops] == [1, 1, 1, 1]
    assert [str(next(iter(op.attachments))) for op in ops] == [
        "E'_1",
        "E'_2",
        "E'_3",
        "E_4",
    ]


def test_realize_trace_half_eight():
    got = realize_trace(F(1, 2), 8)
    assert [str(s) for s in got] == [
        "E'_1",
        "E_2",
        "E'_3",
        "E_4",
        "E'_5",
        "E_6",
        "E'_7",
        "E_8",
    ]


def test_realize_trace_all_events_at_p_one():
    assert [str(s) for s in realize_trace(1, 3)] == ["E_1", "E_2", "E_3"]


def test_realize_trace_matches_direct_labeling():
    for p in (F(0), F(1, 3), F(1, 2), F(1)):
        direct = label_events(to_binary(canonical_prefix(p, 12))).entries
        assert tuple(realize_trace(p, 12)) == direct


def test_realize_trace_restricts_termwise():
    full = realize_trace(F(1, 3), 12)
    for j in range(1, 13):
        assert realize_trace(F(1, 3), j).entries == full.entries[:j]


def test_realize_trace_superset_invariance():
    op = trace_operator(F(1, 2), 6)
    base = realize(op, {source_statement()})
    assert realize(op, {source_statement(), event(99)}) == base
    assert base == op.attachments


def test_trace_operator_on_frozen_design():
    frozen = truncate_freeze(canonical_prefix(F(1, 2), 4), 4, 8)
    labeled = label_events(to_binary(frozen))
    assert labeled.text() == "E'_1 E_2 E'_3 E_4 E'_5 E'_6 E'_7 E'_8"
