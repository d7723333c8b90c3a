"""Classical randomness tests plus a deterministic reference generator.

The harness is self-contained: critical values are embedded constants
(two-sided normal at alpha 0.05 and 0.01, upper-tail chi-square through
10 degrees of freedom), counts are exact integers, and only the final
statistics live in double precision.

The reference generator is SplitMix64 (Steele, Lea, and Flood's 64-bit
mixer): state advances by the constant 0x9E3779B97F4A7C15 and each output
is the state scrambled by two xor-shift-multiply rounds.  It is hand-rolled
rather than taken from the platform so that seeded streams are reproducible
bit-for-bit across interpreter versions and machines; the version tag below
is carried in reports so recorded results stay attributable.  The stream is
evaluated 4,096 states per packed integer, one 128-bit lane each, and bit t
is still decided by the exact comparison z * den < num * 2**64.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import countOf, ne
from typing import Iterator, NamedTuple, Sequence

from .freq_seq import BinaryTrialSequence, check_canonical, check_probability

PRNG_VERSION = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Two-sided standard normal critical values.
NORMAL_CRITICAL = {0.05: 1.95996, 0.01: 2.57583}

# Upper-tail chi-square critical values by degrees of freedom.
CHI_SQUARE_CRITICAL = {
    0.05: {
        1: 3.84146, 2: 5.99146, 3: 7.81473, 4: 9.48773, 5: 11.07050,
        6: 12.59159, 7: 14.06714, 8: 15.50731, 9: 16.91898, 10: 18.30704,
    },
    0.01: {
        1: 6.63490, 2: 9.21034, 3: 11.34487, 4: 13.27670, 5: 15.08627,
        6: 16.81189, 7: 18.47531, 8: 20.09024, 9: 21.66599, 10: 23.20925,
    },
}


def _normal_critical(alpha: float) -> float:
    try:
        return NORMAL_CRITICAL[alpha]
    except KeyError:
        raise ValueError(f"unsupported alpha: {alpha}") from None


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is a SplitMix64 state, i.e. an int (not a bool) in [0, 2**64)."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def bernoulli_prng(p: Fraction | int, n: int, seed: int) -> BinaryTrialSequence:
    """n seeded pseudo-random trials with success probability p.

    Each SplitMix64 output z (uniform over [0, 2**64)) yields a success
    exactly when z / 2**64 < p, decided by the integer comparison
    z * p.denominator < p.numerator << 64, so the draw is exact: p = 0
    never succeeds and p = 1 always does.  The arguments are checked
    before the first trial is drawn.
    """
    chunks = _splitmix64_chunks(check_probability(p), _check_trials(n), check_seed(seed))
    return BinaryTrialSequence(
        tuple(b"".join(bits.to_bytes(16 * size, "little")[::16] for bits, size in chunks))
    )


def _check_trials(n: int) -> int:
    if n < 0:
        raise ValueError("trial count must be non-negative")
    return n


_LANES = 4096


def _splitmix64_chunks(p: Fraction, n: int, seed: int) -> Iterator[tuple[int, int]]:
    """The outcomes of trials 1..n in chunks of up to ``_LANES``, with each size.

    Lane i of a chunk is one 128-bit slot of a single int, bits [128i, 128i+64)
    holding its state, and each operation of the mixer runs on every lane at
    once: a lane's 64x64-bit product fits its slot, and masking after every
    shift keeps a neighbour's bits out.  Lane i's outcome is bit 128i.
    """
    lanes = min(_LANES, n)
    if not lanes:
        return
    ones = int.from_bytes((b"\1" + bytes(15)) * lanes, "little")
    mask = ones * _MASK64
    # z * den < num << 64 exactly when z <= limit; limit + 2**64 - z is in
    # [0, 2**65) in every lane, so bit 64 of the difference is the outcome.
    limit = ((p.numerator << 64) - 1) // p.denominator
    guard = ones * (limit + (1 << 64))
    step = ones * (lanes * _GAMMA & _MASK64)
    ramp = b"".join(i.to_bytes(16, "little") for i in range(1, lanes + 1))
    # lane i of chunk c holds state t = c*lanes + i + 1, i.e. seed + t*GAMMA
    state = (ones * seed + int.from_bytes(ramp, "little") * _GAMMA) & mask
    for done in range(0, n, lanes):
        z = state
        z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
        z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
        z ^= (z >> 31) & mask
        bits = ((guard - z) >> 64) & ones
        size = min(lanes, n - done)
        if size < lanes:
            bits &= (1 << 128 * size) - 1
        yield bits, size
        state = (state + step) & mask


class BitCounts(NamedTuple):
    """What the frequency and runs tests read from a 0/1 stream."""

    n: int
    ones: int
    runs: int  # maximal blocks of equal outcomes; 0 for an empty stream


def canonical_counts(p: Fraction | int, n: int) -> BitCounts:
    """The counts of bits floor(k*p) - floor((k-1)*p), k = 1..n, in closed form.

    The bits form a mechanical word (Lothaire, *Algebraic Combinatorics on
    Words*, ch. 2): for p <= 1/2 no two 1s touch, for p > 1/2 no two 0s do,
    and trial 1 is 0 unless p = 1.  The arguments are checked as
    ``canonical_terms`` checks them.
    """
    num, den = check_canonical(p, n)
    if not n:
        return BitCounts(0, 0, 0)
    ones = n * num // den
    last = ones - (n - 1) * num // den  # bit n
    if num in (0, den):
        runs = 1
    elif 2 * num <= den:
        runs = 2 * ones + 1 - last
    else:
        runs = 2 * (n - ones) - (1 - last)
    return BitCounts(n, ones, runs)


def prng_counts(p: Fraction | int, n: int, seed: int) -> BitCounts:
    """The counts of ``bernoulli_prng(p, n, seed)``, a chunk of trials at a time."""
    chunks = _splitmix64_chunks(check_probability(p), _check_trials(n), check_seed(seed))
    ones = runs = 0
    last = None
    for bits, size in chunks:
        # A run starts at each trial that differs from the one before it, and
        # at the first trial.  bits ^ (bits >> 128) marks lane i where trial
        # i+1 differs from trial i, and the top lane where its trial is 1.
        top = bits >> 128 * (size - 1)
        ones += bits.bit_count()
        runs += (bits ^ (bits >> 128)).bit_count() - top + ((bits & 1) != last)
        last = top
    return BitCounts(n, ones, runs)


def _counts(bits: BinaryTrialSequence | BitCounts) -> BitCounts:
    if isinstance(bits, BitCounts):
        return bits
    bits = bits.bits  # checked 0/1 when the sequence was built
    runs = countOf(map(ne, bits, bits[1:]), True) + 1 if bits else 0
    return BitCounts(len(bits), countOf(bits, 1), runs)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical test on one bit stream."""

    __test__ = False  # not a pytest class despite the name

    test: str
    stream: str
    statistic: float
    alpha: float
    passed: bool
    n: int
    seed: int | None = None
    prng_version: str | None = None

    def as_json_dict(self) -> dict:
        out = {
            "test": self.test,
            "stream": self.stream,
            "statistic": self.statistic,
            "alpha": self.alpha,
            "pass": self.passed,
            "n": self.n,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.prng_version is not None:
            out["prng_version"] = self.prng_version
        return out


def _float(value: Fraction | int, message: str) -> float:
    """``float(value)``, or a ValueError with ``message`` where that overflows."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(message) from None


def frequency_test(
    bits: BinaryTrialSequence | BitCounts,
    p: Fraction | int,
    alpha: float,
    stream: str = "designed",
) -> TestReport:
    """One-proportion z-test: z = (x - n*p) / sqrt(n*p*(1-p))."""
    p = check_probability(p)
    n, x, _ = _counts(bits)
    if n < 30:
        raise ValueError("frequency test needs at least 30 trials")
    if p == 0 or p == 1:
        raise ValueError("frequency test needs 0 < p < 1")
    crit = _normal_critical(alpha)
    variance = _float(n * p * (1 - p), "frequency test needs n*p*(1-p) below the largest float")
    if not variance:
        raise ValueError("frequency test needs n*p*(1-p) above the smallest positive float")
    z = _float(x - n * p, "frequency test needs |x - n*p| below the largest float")
    z /= math.sqrt(variance)
    return TestReport("frequency", stream, z, alpha, abs(z) <= crit, n)


def runs_test(
    bits: BinaryTrialSequence | BitCounts, alpha: float, stream: str = "designed"
) -> TestReport:
    """Wald-Wolfowitz runs test against the exchangeable null.

    With n0 zeros and n1 ones the null run count has mean 2*n0*n1/n + 1
    and variance 2*n0*n1*(2*n0*n1 - n) / (n^2 * (n-1)).
    """
    n, n1, runs = _counts(bits)
    if n < 30:
        raise ValueError("runs test needs at least 30 trials")
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("runs test needs both outcomes present")
    crit = _normal_critical(alpha)
    pairs = 2 * n0 * n1
    mean = Fraction(pairs, n) + 1
    variance = Fraction(pairs * (pairs - n), n * n * (n - 1))
    spread = math.sqrt(_float(variance, "runs test needs a variance below the largest float"))
    z = _float(runs - mean, "runs test needs |runs - mean| below the largest float") / spread
    return TestReport("runs", stream, z, alpha, abs(z) <= crit, n)


def chi_square_cells(
    counts: Sequence[int],
    n: int,
    probs: Sequence[Fraction],
    alpha: float,
    stream: str = "designed",
) -> TestReport:
    """Goodness of fit of cell counts against expectations n*p_k.

    Statistic sum((c_k - n*p_k)^2 / (n*p_k)) at m - 1 degrees of freedom;
    every expected count must be at least 1 and the table covers degrees
    of freedom 1 through 10.
    """
    counts = list(counts)
    if not all(type(c) is int and c >= 0 for c in counts):  # bools are not counts
        raise ValueError("cell counts must be non-negative integers")
    if type(n) is not int:
        raise ValueError("trial count must be an integer")
    probs = [Fraction(p) for p in probs]
    if sum(probs) != 1:
        raise ValueError("cell probabilities must sum to 1")
    if len(counts) != len(probs):
        raise ValueError("one count per cell is required")
    if len(counts) < 2:
        raise ValueError("chi-square needs at least two cells")
    if sum(counts) != n:
        raise ValueError("cell counts must sum to the trial count")
    df = len(counts) - 1
    try:
        crit = CHI_SQUARE_CRITICAL[alpha][df]
    except KeyError:
        raise ValueError(f"no critical value for alpha={alpha}, df={df}") from None
    statistic = Fraction(0)
    for c, p in zip(counts, probs):
        expected = n * p
        if expected < 1:
            raise ValueError("every expected cell count must be at least 1")
        statistic += Fraction((c - expected) ** 2, expected)
    value = float(statistic)
    return TestReport("chi_square", stream, value, alpha, value <= crit, n)


def compare(
    designed: BinaryTrialSequence | BitCounts,
    p: Fraction | int,
    seed: int,
    alpha: float,
) -> list[TestReport]:
    """Run frequency and runs tests on a designed stream and a seeded one.

    Returns four reports in fixed order: frequency then runs for the
    designed stream, then the same pair for the generator stream, which
    carries the seed and generator version.  The arguments are checked and
    the designed stream is tested before the generator stream is drawn;
    that stream is counted as it is drawn, never held.
    """
    p = check_probability(p)
    check_seed(seed)
    designed = _counts(designed)
    reports = [frequency_test(designed, p, alpha), runs_test(designed, alpha)]
    generated = prng_counts(p, designed.n, seed)
    tagged = frequency_test(generated, p, alpha, "prng"), runs_test(generated, alpha, "prng")
    return reports + [dataclasses.replace(r, seed=seed, prng_version=PRNG_VERSION) for r in tagged]


REPORT_CSV_HEADER = (
    "test", "stream", "statistic", "alpha", "pass", "n", "seed", "prng_version"
)


def _report_row(r: TestReport) -> str:
    return (f"{r.test},{r.stream},{r.statistic!r},{r.alpha!r},"
            f"{'true' if r.passed else 'false'},{r.n},"
            f"{'' if r.seed is None else r.seed},{r.prng_version or ''}\n")


def reports_csv(reports: Sequence[TestReport]) -> str:
    return ",".join(REPORT_CSV_HEADER) + "\n" + "".join(map(_report_row, reports))


def reports_from_csv(text: str) -> list[TestReport]:
    """Parse ``reports_csv`` output back: each row must render back as written, and
    every line must end in a newline; anything else raises ``ValueError`` naming the row."""
    lines = text.split("\n")
    if len(lines) == 1 or tuple(lines[0].split(",")) != REPORT_CSV_HEADER:
        raise ValueError("missing report CSV header")
    out = []
    for k, line in enumerate(lines[1:-1], 1):
        fields = line.split(",")
        if len(fields) != len(REPORT_CSV_HEADER):
            raise ValueError(f"inconsistent report CSV row {k}")
        test, stream, statistic, alpha, passed, n, seed, version = fields
        if passed not in ("true", "false"):
            raise ValueError(f"pass must be 'true' or 'false', got {passed!r}")
        try:
            report = TestReport(test, stream, float(statistic), float(alpha), passed == "true",
                                int(n), int(seed) if seed else None, version or None)
        except ValueError:  # a field that no report renders, such as "x" for a number
            report = None
        if report is None or _report_row(report) != line + "\n":
            raise ValueError(f"inconsistent report CSV row {k}")
        out.append(report)
    if lines[-1]:  # the last row has no final newline
        raise ValueError(f"inconsistent report CSV row {len(lines) - 1}")
    return out
