import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmimic import stats_harness
from freqmimic.cell_dist import build_cell_sequences
from freqmimic.event_seq import to_binary
from freqmimic.freq_seq import BinaryTrialSequence, canonical_prefix, truncate_freeze
from freqmimic.stats_harness import (
    CHI_SQUARE_CRITICAL,
    NORMAL_CRITICAL,
    PRNG_VERSION,
    BitCounts,
    TestReport,
    bernoulli_prng,
    chi_square_cells,
    compare,
    frequency_test,
    prng_counts,
    reports_csv,
    reports_from_csv,
    runs_test,
)

F = Fraction

scipy_stats = pytest.importorskip("scipy.stats")


def test_embedded_criticals_match_scipy():
    for alpha, crit in NORMAL_CRITICAL.items():
        assert math.isclose(
            crit, scipy_stats.norm.ppf(1 - alpha / 2), abs_tol=5e-6
        )
    for alpha, row in CHI_SQUARE_CRITICAL.items():
        for df, crit in row.items():
            assert math.isclose(
                crit, scipy_stats.chi2.ppf(1 - alpha, df), abs_tol=5e-6
            )


def test_prng_degenerate_probabilities():
    assert bernoulli_prng(0, 64, 42).bits == (0,) * 64
    assert bernoulli_prng(1, 64, 42).bits == (1,) * 64


def test_prng_is_deterministic():
    a = bernoulli_prng(F(1, 2), 256, 42)
    b = bernoulli_prng(F(1, 2), 256, 42)
    assert a == b
    assert a != bernoulli_prng(F(1, 2), 256, 43)


def test_prng_frozen_prefix_seed_42():
    # regression pin for the versioned generator; a change here means the
    # stream format is no longer splitmix64-v1
    got = bernoulli_prng(F(1, 2), 16, 42)
    assert got.bits == (0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1)


def test_prng_matches_published_splitmix64_outputs():
    # the first outputs of Vigna's reference splitmix64.c for seed 0; trial t
    # succeeds exactly when z_t < p * 2**64, so p = z_t / 2**64 sits on the edge
    for t, z in enumerate([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]):
        assert bernoulli_prng(F(z, 1 << 64), 3, 0).bits[t] == 0
        assert bernoulli_prng(F(z + 1, 1 << 64), 3, 0).bits[t] == 1


def test_prng_seed_range_edges():
    assert len(bernoulli_prng(F(1, 2), 8, 0)) == 8
    assert len(bernoulli_prng(F(1, 2), 8, (1 << 64) - 1)) == 8
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            bernoulli_prng(F(1, 2), 8, seed)


@pytest.mark.parametrize("seed, name", [(True, "bool"), (2.0, "float"), (F(3), "Fraction")])
def test_a_seed_that_is_not_an_int_is_rejected_before_any_stream_is_drawn(seed, name):
    # True would be written as the CSV seed "True", which reports_from_csv rejects
    designed = to_binary(canonical_prefix(F(1, 2), 100))
    calls = [lambda: compare(designed, F(1, 2), seed, 0.01),
             lambda: bernoulli_prng(F(1, 2), 8, seed),
             lambda: prng_counts(F(1, 2), 8, seed)]
    with mock.patch.object(stats_harness, "_splitmix64_chunks", side_effect=AssertionError):
        for call in calls:
            with pytest.raises(ValueError, match=f"^seed must be an int, got {name}$"):
                call()


@pytest.mark.parametrize("n, name", [(True, "bool"), (2.0, "float"), (F(3), "Fraction")])
def test_a_trial_count_that_is_not_an_int_is_rejected_before_any_stream_is_drawn(n, name):
    # True once counted as BitCounts(n=True, ...), and 2.0 failed in the lane packing
    with mock.patch.object(stats_harness, "_splitmix64_chunks", side_effect=AssertionError):
        for call in (lambda: bernoulli_prng(F(1, 2), n, 1), lambda: prng_counts(F(1, 2), n, 1)):
            with pytest.raises(ValueError, match=f"^trial count must be an int, got {name}$"):
                call()
    with pytest.raises(ValueError, match=f"^prefix length must be an int, got {name}$"):
        stats_harness.canonical_counts(F(1, 2), n)


def test_prng_one_count_within_six_sigma():
    got = bernoulli_prng(F(1, 2), 10**5, 42)
    assert got.ones == 50064
    assert 49000 <= got.ones <= 51000


def test_prng_threshold_is_exact():
    # p just below 1 must still allow zeros eventually, p tiny must allow ones
    dense = bernoulli_prng(F((1 << 64) - 1, 1 << 64), 10**4, 42)
    assert 0 < dense.ones <= 10**4
    sparse = bernoulli_prng(F(1, 1 << 32), 10**4, 42)
    assert sparse.ones < 10


def test_frequency_test_all_ones():
    report = frequency_test(BinaryTrialSequence((1,) * 100), F(1, 2), 0.01)
    assert report.statistic == 10.0
    assert not report.passed
    assert report.test == "frequency" and report.n == 100


def test_frequency_test_exact_mean_passes():
    designed = to_binary(canonical_prefix(F(1, 2), 100))
    report = frequency_test(designed, F(1, 2), 0.01)
    assert report.statistic == 0.0
    assert report.passed


def test_frequency_test_rejects_bad_input():
    with pytest.raises(ValueError):
        frequency_test(BinaryTrialSequence((0, 1) * 10), F(1, 2), 0.01)
    with pytest.raises(ValueError):
        frequency_test(BinaryTrialSequence((0, 1) * 50), 0, 0.01)
    with pytest.raises(ValueError):
        frequency_test(BinaryTrialSequence((0, 1) * 50), 1, 0.01)
    with pytest.raises(ValueError):
        frequency_test(BinaryTrialSequence((0, 1) * 50), F(1, 2), 0.2)


@given(
    st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
    st.integers(min_value=100, max_value=2000),
)
@settings(max_examples=60)
def test_designed_streams_always_pass_frequency(p, n):
    # |ones - n*p| <= 1 by the deviation bound, so z stays tiny
    designed = to_binary(canonical_prefix(p, n))
    assert frequency_test(designed, p, 0.01).passed


def test_runs_test_alternating_fails():
    designed = to_binary(canonical_prefix(F(1, 2), 100))
    assert designed.bits == (0, 1) * 50
    report = runs_test(designed, 0.01)
    assert math.isclose(report.statistic, 9.849873095629203)
    assert not report.passed


def test_runs_test_rejects_single_symbol():
    with pytest.raises(ValueError):
        runs_test(BinaryTrialSequence((1,) * 100), 0.01)
    with pytest.raises(ValueError):
        runs_test(BinaryTrialSequence((0, 1) * 10), 0.01)


def test_runs_test_prng_passes():
    report = runs_test(bernoulli_prng(F(1, 2), 10**5, 42), 0.01)
    assert math.isclose(report.statistic, -2.0170284295997005)
    assert report.passed


def test_chi_square_small_table():
    report = chi_square_cells((2, 3, 1), 6, (F(1, 4), F(1, 2), F(1, 4)), 0.05)
    assert report.statistic == pytest.approx(1 / 3, abs=1e-15)
    assert report.passed
    assert report.test == "chi_square"


def test_chi_square_exact_expectation():
    report = chi_square_cells((25, 50, 25), 100, (F(1, 4), F(1, 2), F(1, 4)), 0.01)
    assert report.statistic == 0.0
    assert report.passed


def test_chi_square_greedy_output_is_nearly_exact():
    probs = (F(1, 4), F(1, 2), F(1, 4))
    _, sequences = build_cell_sequences(probs, 10**4)
    counts = [seq.terms[-1] for seq in sequences]
    report = chi_square_cells(counts, 10**4, probs, 0.05)
    assert report.statistic <= 0.01
    assert report.passed


def test_chi_square_rejects_bad_tables():
    probs = (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        chi_square_cells((3, 2), 6, probs, 0.05)
    with pytest.raises(ValueError):
        chi_square_cells((3,), 3, (F(1),), 0.05)
    with pytest.raises(ValueError):
        chi_square_cells((1, 0), 1, probs, 0.05)  # expected counts below 1
    with pytest.raises(ValueError):
        chi_square_cells(tuple([1] * 12), 12, tuple([F(1, 12)] * 12), 0.05)
    for counts in ((-1, 31), (14.5, 15.5), (True, 29), (29, False)):
        with pytest.raises(ValueError, match="cell counts must be non-negative integers"):
            chi_square_cells(counts, 30, probs, 0.01)
    with pytest.raises(ValueError, match="^cell probabilities must sum to 1$"):
        chi_square_cells((15, 15), 30, (F(1, 2), F(2, 3)), 0.01)
    for n in (30.0, True):
        with pytest.raises(ValueError, match="^trial count must be an integer$"):
            chi_square_cells((15, 15), n, probs, 0.01)


def test_frequency_test_rejects_a_variance_that_underflows():
    # n*p*(1-p) = 1e-328 is 0.0 as a float
    with pytest.raises(ValueError, match="^frequency test needs n\\*p\\*\\(1-p\\) above"):
        frequency_test(BitCounts(100, 0, 1), F(1, 10**330), 0.01)


def test_frequency_test_rejects_floats_that_overflow():
    # 10**400 / 4 and 10**310 are past the largest float: usage errors, not OverflowError
    with pytest.raises(ValueError, match=r"^frequency test needs n\*p\*\(1-p\) below the largest float$"):
        frequency_test(BitCounts(10**400, 10**400 // 2, 2), F(1, 2), 0.01)
    with pytest.raises(ValueError, match=r"^frequency test needs \|x - n\*p\| below the largest float$"):
        frequency_test(BitCounts(10**310, 10**310, 1), F(1, 10**20), 0.01)
    # n*p = 10**290 and x - n*p = 0 convert: the statistic is 0
    assert frequency_test(BitCounts(10**310, 10**290, 1), F(1, 10**20), 0.01).statistic == 0.0


def test_runs_test_rejects_floats_that_overflow():
    n = 10**400
    with pytest.raises(ValueError, match="^runs test needs a variance below the largest float$"):
        runs_test(BitCounts(n, n // 2, n // 2 + 1), 0.01)
    # the variance, about n/4, converts; runs - mean, about n/2, does not
    n = 4 * 10**308
    with pytest.raises(ValueError, match=r"^runs test needs \|runs - mean\| below the largest float$"):
        runs_test(BitCounts(n, n // 2, n), 0.01)


def test_compare_orders_and_tags_reports():
    designed = to_binary(canonical_prefix(F(1, 2), 10**4))
    reports = compare(designed, F(1, 2), 42, 0.01)
    assert [(r.test, r.stream) for r in reports] == [
        ("frequency", "designed"),
        ("runs", "designed"),
        ("frequency", "prng"),
        ("runs", "prng"),
    ]
    freq_designed, runs_designed, freq_prng, runs_prng = reports
    assert freq_designed.passed and freq_prng.passed
    assert not runs_designed.passed
    assert runs_prng.passed
    assert freq_designed.seed is None and freq_designed.prng_version is None
    assert freq_prng.seed == 42 and freq_prng.prng_version == PRNG_VERSION


def test_compare_is_deterministic():
    designed = to_binary(canonical_prefix(F(1, 2), 200))
    assert compare(designed, F(1, 2), 7, 0.05) == compare(designed, F(1, 2), 7, 0.05)


def test_report_json_dict():
    report = TestReport("runs", "prng", -0.5, 0.05, True, 64, 9, PRNG_VERSION)
    assert report.as_json_dict() == {
        "test": "runs",
        "stream": "prng",
        "statistic": -0.5,
        "alpha": 0.05,
        "pass": True,
        "n": 64,
        "seed": 9,
        "prng_version": PRNG_VERSION,
    }
    plain = TestReport("frequency", "designed", 0.0, 0.05, True, 64)
    assert "seed" not in plain.as_json_dict()


def test_reports_csv_round_trip_exact():
    designed = to_binary(canonical_prefix(F(1, 2), 500))
    reports = compare(designed, F(1, 2), 42, 0.01)
    back = reports_from_csv(reports_csv(reports))
    assert back == reports
    for a, b in zip(reports, back):
        assert abs(a.statistic - b.statistic) <= 1e-12


def test_reports_from_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        reports_from_csv("nope\n")


@pytest.mark.parametrize("field", ["TRUE", "maybe", ""])
def test_reports_from_csv_rejects_non_boolean_pass(field):
    designed = to_binary(canonical_prefix(F(1, 2), 100))
    text = reports_csv(compare(designed, F(1, 2), 42, 0.01))
    header, first, *rest = text.splitlines()
    fields = first.split(",")
    assert fields[4] == "true"
    fields[4] = field
    with pytest.raises(ValueError):
        reports_from_csv("\n".join([header, ",".join(fields), *rest]) + "\n")


@pytest.mark.parametrize("edit, row", [
    (lambda t: t.replace(",100,", ",1_00,", 1), 1),  # int() reads 100; the writer never writes it
    (lambda t: t.replace(",100,42,", ",+100,42,", 1), 3),
    (lambda t: t.replace(",0.01,", ",1e-2,", 1), 1),
    (lambda t: t.replace(",42,", ",042,", 1), 3),
    (lambda t: t.replace("\nruns,", "\n\nruns,", 1), 2),  # a blank line
    (lambda t: t.replace(",42,splitmix64-v1\n", ",42\n", 1), 3),  # a short row
    (lambda t: t.replace(",,\n", ",,,\n", 1), 1),  # a long row
    (lambda t: t[:-1], 4),  # no final newline
    (lambda t: t + "\n", 5),
])
def test_reports_from_csv_names_a_row_the_writer_never_writes(edit, row):
    text = reports_csv(compare(to_binary(canonical_prefix(F(1, 2), 100)), F(1, 2), 42, 0.01))
    assert edit(text) != text
    with pytest.raises(ValueError, match=f"^inconsistent report CSV row {row}$"):
        reports_from_csv(edit(text))
