import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmimic import closure_ops
from freqmimic.cli import main
from freqmimic.language_core import prefix_language

GEN_SEQ_HALF_8 = """\
n,a_n,freq_num,freq_den
1,0,0,1
2,1,1,2
3,1,1,3
4,2,2,4
5,2,2,5
6,3,3,6
7,3,3,7
8,4,4,8
"""


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "freqmimic", *argv],
        capture_output=True,
        text=True,
    )


COMPARE_MODULES = ["cli", "freq_seq", "stats_harness"]
MODULE_LOADS = [
    ((), [], []),
    (("gen-seq", "--p", "1/3", "--n", "5"), ["cli", "freq_seq"], ["argparse"]),
    (("gen-seq", "--p", "1/3", "--n", "5", "--format", "json"), ["cli", "freq_seq"], ["argparse"]),
    (("gen-nonconv", "--low", "1/3", "--high", "1/2", "--n", "5"), ["cli", "freq_seq"],
     ["argparse"]),
    (("check-axioms", "--family", "--language-size", "3"), ["cli", "closure_ops", "language_core"],
     ["argparse"]),
    (("check-axioms", "--self-maps"), ["cli", "closure_ops", "language_core"], ["argparse"]),
    (("gen-dist", "--probs", "1/4,3/4", "--n", "5"),
     ["cell_dist", "cli", "freq_seq", "language_core"], ["argparse"]),
    (("realize", "--p", "1/2", "--n", "5", "--format", "json"),
     ["cli", "event_seq", "freq_seq", "language_core"], ["argparse"]),
    (("compare", "--p", "1/2", "--n", "100"), COMPARE_MODULES, ["argparse"]),
    (("compare", "--p", "1/2", "--n", "100", "--format", "json"), COMPARE_MODULES,
     ["argparse", "json"]),
]


# Each reader reads its writer's text, and rejects text with row 2 signed, without csv.
SEQ_READ = ("from freqmimic.freq_seq import canonical_prefix, sequence_csv, sequence_from_csv as read\n"
            "table = canonical_prefix(1, 3)\ntext = sequence_csv(table)\n")
CELL_READ = ("from freqmimic.cell_dist import build_cell_sequences, cell_csv, cell_table_from_csv as read\n"
             "table = build_cell_sequences([1], 3)\ntext = cell_csv(*table)\n")
ACCEPT = "assert read(text) == table"
REJECT = ("try:\n    read(text.replace('\\n2,', '\\n+2,'))\nexcept ValueError:\n    pass\n"
          "else:\n    raise AssertionError")
CELL_MODULES = ["cell_dist", "freq_seq", "language_core"]
READER_LOADS = [
    (SEQ_READ + ACCEPT, ["freq_seq"], []),
    (SEQ_READ + REJECT, ["freq_seq"], []),
    (CELL_READ + ACCEPT, CELL_MODULES, []),
    (CELL_READ + REJECT, CELL_MODULES, []),
]


def test_import_loads_no_serialization_or_cli_modules():
    """``import freqmimic`` loads none of its modules, and each verb or reader loads only the
    ones it runs.

    csv, json and argparse are left to the code paths that use them; no path loads csv.
    """
    probe = (
        "import sys, freqmimic\n"
        "exec(sys.argv[1])\n"
        "package = sorted(m[len('freqmimic.'):] for m in sys.modules if m.startswith('freqmimic.'))\n"
        "print(package, sorted({'csv', 'json', 'argparse'} & set(sys.modules)), file=sys.stderr)\n"
    )
    verbs = [(f"from freqmimic.cli import main\nassert main({list(argv)!r}) == 0" if argv else "",
              modules, stdlib) for argv, modules, stdlib in MODULE_LOADS]
    for code, modules, stdlib in verbs + READER_LOADS:
        proc = subprocess.run([sys.executable, "-c", probe, code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{modules} {stdlib}\n", code


def test_closed_stdout_exits_141_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "freqmimic", "gen-seq", "--p", "1/3", "--n", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,a_n,freq_num,freq_den\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_gen_seq_csv_golden(capsys):
    proc = run_cli("gen-seq", "--p", "1/2", "--n", "8")
    assert proc.returncode == 0
    assert proc.stdout == GEN_SEQ_HALF_8
    assert proc.stderr == ""
    # 300 rows cross the 100-row blocks the writer renders at once
    assert main(["gen-seq", "--p", "1/3", "--n", "300"]) == 0
    assert capsys.readouterr().out.endswith("\n300,100,100,300\n")


def test_gen_seq_rejects_out_of_range_probability():
    proc = run_cli("gen-seq", "--p", "5/4", "--n", "8")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: probability out of range: 5/4\n"


def test_unknown_verb_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_gen_seq_freeze_index(capsys):
    assert main(["gen-seq", "--p", "1/2", "--n", "8", "--m", "4",
                 "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["a"] for row in rows] == [0, 1, 1, 2, 2, 2, 2, 2]
    assert rows[7] == {"n": 8, "a": 2, "freq": [2, 8]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "8", "--m", "0"), "freeze index out of range"),
        (("--n", "8", "--m", "9"), "freeze index out of range"),
        (("--n", "-1"), "prefix length must be non-negative"),
        (("--n", "-1", "--m", "3"), "prefix length must be non-negative"),
    ],
)
def test_gen_seq_rejects_bad_lengths(capsys, argv, message):
    assert main(["gen-seq", "--p", "1/2", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "verb",
    [
        ("gen-seq", "--p", "1/2", "--n", "1000000000", "--m", "0"),
        ("gen-seq", "--p", "1/2", "--n", "1000000000", "--m", "1000000001"),
        ("gen-nonconv", "--low", "1/2", "--high", "1/3", "--n", "1000000000"),
        ("compare", "--p", "0", "--n", "1000000000"),
        ("compare", "--p", "1", "--n", "1000000000"),
        ("compare", "--p", "1/2", "--n", "29"),
        ("compare", "--p", "1/10000000000", "--n", "1000000000"),
        # decimal exponents past 4,300: Fraction would compute 10**e first
        ("gen-seq", "--p", "1e-30000000", "--n", "2"),
        ("gen-nonconv", "--low", "1e-10000000", "--high", "1/2", "--n", "2"),
        ("gen-nonconv", "--low", "0", "--high", "1E+10000000", "--n", "2"),
        ("gen-dist", "--probs", "1/2,1e-10000000", "--n", "2"),
        ("realize", "--p", "1e-10000000", "--n", "2"),
        ("compare", "--p", "1e-10000000", "--n", "100"),
        # past the self-map cap of 2 statements: rejected before a language is built
        ("check-axioms", "--self-maps", "--language-size", "1000000000"),
    ],
)
def test_bad_flags_are_rejected_before_generation(capsys, verb):
    start = time.perf_counter()
    assert main(list(verb)) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ""


def test_huge_decimal_exponent_exits_2_with_one_error_line():
    start = time.perf_counter()
    proc = run_cli("gen-seq", "--p", "1e-10000000", "--n", "2")
    assert time.perf_counter() - start < 5.0  # it took 11 s when Fraction parsed first
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot parse probability: '1e-10000000'\n"


@pytest.mark.parametrize("argv", [
    ("gen-seq", "--p", "1e4300", "--n", "2"),
    ("gen-seq", "--p", "1e4299", "--n", "2"),
    ("gen-dist", "--probs", "1e4300,0", "--n", "2"),
    ("gen-nonconv", "--low", "0", "--high", "1e4300", "--n", "2"),
    ("gen-seq", "--p=-" + "7" * 4000 + "/3", "--n", "2"),
])
def test_huge_probability_exits_2_with_one_short_error_line(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: probability out of range: ")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200


@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "7" * 4000 + "x"],
                         ids=["5000-digit-int", "4000-digit-denominator-then-x"])
def test_unparsable_long_probability_is_named_by_its_first_64_characters(text):
    proc = run_cli("gen-seq", "--p", text, "--n", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot parse probability: {text[:64]!r}\n"


@st.composite
def probability_texts(draw):
    """Tiny, near-1 and plain rationals with up to 4,000-digit denominators, and
    decimals with exponents up to +-5,000."""
    den = draw(st.one_of(st.integers(min_value=1, max_value=100),
                         st.integers(min_value=1, max_value=10**4000 - 1)))
    kind = draw(st.sampled_from(["tiny", "near-one", "ratio", "decimal"]))
    if kind == "tiny":
        return f"1/{den}"
    if kind == "near-one":
        return f"{den - 1}/{den}"
    if kind == "ratio":
        return f"{draw(st.integers(min_value=0, max_value=den + 1))}/{den}"
    mantissa = draw(st.sampled_from(["1", "5", "0.5", "25", "0.000001", "9" * 50]))
    return f"{mantissa}e{draw(st.integers(min_value=-5000, max_value=5000))}"


@st.composite
def extreme_argvs(draw):
    verb = draw(st.sampled_from(["gen-seq", "gen-nonconv", "gen-dist", "realize", "compare",
                                 "check-axioms"]))
    n = str(draw(st.integers(min_value=-2, max_value=64)))
    fmt = ["--format", draw(st.sampled_from(["csv", "json"]))]
    p = draw(probability_texts())
    if verb == "check-axioms":
        mode = draw(st.sampled_from(["--family", "--self-maps"]))
        return [verb, mode, "--language-size", str(draw(st.integers(min_value=0, max_value=3)))]
    if verb == "gen-nonconv":
        return [verb, "--low", p, "--high", draw(probability_texts()), "--n", n, *fmt]
    if verb == "gen-dist":
        parts = draw(st.lists(probability_texts(), min_size=1, max_size=3))
        with contextlib.suppress(ValueError, ZeroDivisionError):  # often, complete the vector
            rest = 1 - sum(map(Fraction, parts))
            if rest >= 0 and draw(st.booleans()):
                parts.append(str(rest))
        return [verb, "--probs", ",".join(parts), "--n", n, *fmt]
    if verb == "compare":
        n = str(draw(st.integers(min_value=29, max_value=64)))  # 30 trials at least, mostly
        return [verb, "--p", p, "--n", n, "--seed", str(draw(st.integers(0, 2**64 - 1))), *fmt]
    freeze = ["--m", str(draw(st.integers(min_value=0, max_value=65)))] if draw(st.booleans()) else []
    return [verb, "--p", p, "--n", n, *(freeze if verb == "gen-seq" else []), *fmt]


@settings(max_examples=200, deadline=None)
@given(argv=extreme_argvs())
def test_no_extreme_flag_value_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here fails the property
    lines = err.getvalue().splitlines()
    if code == 1:
        assert argv[0] == "check-axioms"
    elif code == 0:
        assert lines == []
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ")


def test_gen_nonconv_rejects_empty_prefix(capsys):
    assert main(["gen-nonconv", "--low", "1/3", "--high", "1/2", "--n", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: prefix length must be positive\n"


def test_gen_nonconv(capsys):
    assert main(["gen-nonconv", "--low", "1/3", "--high", "1/2",
                 "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "n,a_n,freq_num,freq_den",
        "1,0,0,1",
        "2,1,1,2",
        "3,1,1,3",
        "4,2,2,4",
        "5,2,2,5",
        "6,2,2,6",
    ]
    assert main(["gen-nonconv", "--low", "1/3", "--high", "1/2", "--n", "24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (len(lines), lines[-1]) == (25, "24,8,8,24")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_nonconv_cuts_a_hold_phase_longer_than_any_count_at_n(capsys, fmt):
    # at low = 1e-20 the first hold phase lasts about 1e20 trials, more than repeat() can count
    assert main(["gen-nonconv", "--low", "1e-20", "--high", "1/2", "--n", "3", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    rows = {"csv": "n,a_n,freq_num,freq_den\n1,0,0,1\n2,1,1,2\n3,1,1,3\n",
            "json": '{"n": 1, "a": 0, "freq": [0, 1]}\n{"n": 2, "a": 1, "freq": [1, 2]}\n'
                    '{"n": 3, "a": 1, "freq": [1, 3]}\n'}
    assert (out, err) == (rows[fmt], "")


def test_compare_rejects_a_frequency_variance_that_underflows(capsys):
    # n*p*(1-p) = 1e-328 is 0.0 as a float: a usage error, not a ZeroDivisionError
    assert main(["compare", "--p", "1e-330", "--n", "100"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: frequency test needs n*p*(1-p) above the smallest positive float\n")


def test_compare_rejects_a_frequency_variance_that_overflows(capsys):
    # n*p*(1-p) = 10**400 / 4 is past the largest float: a usage error, not an OverflowError
    assert main(["compare", "--p", "1/2", "--n", str(10**400)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: frequency test needs n*p*(1-p) below the largest float\n")


def test_gen_nonconv_rejects_inverted_bounds(capsys):
    assert main(["gen-nonconv", "--low", "1/2", "--high", "1/3",
                 "--n", "6"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_dist_json(capsys):
    assert main(["gen-dist", "--probs", "1/4,1/2,1/4", "--n", "3",
                 "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        {"trial": 1, "cell": 2, "counts": [0, 1, 0]},
        {"trial": 2, "cell": 1, "counts": [1, 1, 0]},
        {"trial": 3, "cell": 3, "counts": [1, 1, 1]},
    ]
    assert main(["gen-dist", "--probs", "1/6,1/3,1/2", "--n", "20000", "--format", "json"]) == 0
    last = '{"trial": 20000, "cell": 2, "counts": [3333, 6667, 10000]}'
    assert capsys.readouterr().out.endswith(f"\n{last}\n")


def test_gen_dist_csv_header(capsys):
    assert main(["gen-dist", "--probs", "1/2,1/2", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,assigned_cell,a_1,a_2"
    assert lines[1:] == ["1,1,1,0", "2,2,1,1"]
    # last rows across chunks of whole 6-row periods, and of a 16,411-row period that is one tile
    for probs, n, last in [("1/6,1/3,1/2", "40000", "40000,3,6667,13333,20000"),
                           ("1/16411,16410/16411", "20000", "20000,2,1,19999")]:
        assert main(["gen-dist", "--probs", probs, "--n", n]) == 0
        assert capsys.readouterr().out.endswith(f"\n{last}\n")


def test_realize_text(capsys):
    assert main(["realize", "--p", "1/2", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "E'_1 E_2 E'_3 E_4",
        "C({E'_1,E_2,E'_3,E_4},{G})",
    ]


def test_realize_json(capsys):
    assert main(["realize", "--p", "1/2", "--n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "trials": [
            {"trial": 1, "event": False},
            {"trial": 2, "event": True},
        ],
        "operator": "C({E'_1,E_2},{G})",
    }
    assert main(["realize", "--p", "1/2", "--n", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"trials": [{"trial": 1, "event": false}, {"trial": 2, "event": true}, '
        '{"trial": 3, "event": false}, {"trial": 4, "event": true}], '
        '"operator": "C({E\'_1,E_2,E\'_3,E_4},{G})"}\n')


def test_check_axioms_family(capsys):
    assert main(["check-axioms", "--family", "--language-size", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "extensive-idempotent: PASS",
        "monotone: PASS",
        "finitary: PASS",
        "operators checked: 14",
    ]


def test_check_axioms_default_size(capsys):
    assert main(["check-axioms"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "operators checked: 30"


def test_check_axioms_self_maps(capsys):
    assert main(["check-axioms", "--self-maps"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "monotonicity-implied: PASS",
        "maps checked: 256",
    ]


# stdout of every family sweep up to size 10 and of both self-map runs, recorded
# from the CLI while each verdict still came from the scalar meet loop
_PASS = "extensive-idempotent: PASS\nmonotone: PASS\nfinitary: PASS\noperators checked: "
CHECK_AXIOMS_BYTES = [
    (["--family", "--language-size", str(s)], f"{_PASS}{checked}\n")
    for s, checked in enumerate([2, 6, 14, 30, 62, 126, 254, 510, 1022, 2046], 1)
] + [
    (["--self-maps"], "monotonicity-implied: PASS\nmaps checked: 256\n"),
    (["--self-maps", "--language-size", "1"], "monotonicity-implied: PASS\nmaps checked: 4\n"),
]


@pytest.mark.parametrize("flags, stdout", CHECK_AXIOMS_BYTES)
def test_check_axioms_bytes_are_pinned(capsys, flags, stdout):
    assert main(["check-axioms", *flags]) == 0
    assert capsys.readouterr() == (stdout, "")


@pytest.mark.parametrize("size, message", [
    ("0", "language size must be positive"),
    ("3", "self-map enumeration is limited to 2 statements"),
    ("1000000000", "self-map enumeration is limited to 2 statements"),
])
def test_self_maps_reject_a_language_size_off_the_cap(capsys, size, message):
    assert main(["check-axioms", "--self-maps", "--language-size", size]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_axioms_flags_are_exclusive(capsys):
    assert main(["check-axioms", "--family", "--self-maps"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_axioms_rejects_oversized_language_before_work(capsys):
    start = time.perf_counter()
    assert main(["check-axioms", "--family", "--language-size", "13"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "error:" in err and str(closure_ops.MAX_CARRIER) in err


def test_check_axioms_counterexample_exits_one(capsys, monkeypatch):
    broken = closure_ops.AxiomReport(
        extensive_idempotent=True,
        monotone=False,
        finitary=True,
        counterexample=(frozenset(), frozenset()),
    )
    monkeypatch.setattr(closure_ops, "family_reports", lambda size: iter([(1, frozenset(), broken)]))
    assert main(["check-axioms", "--family", "--language-size", "2"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "monotone: FAIL" in lines
    assert captured.err == (
        "monotone: counterexample {}, {} for C({},{G}) on language size 1\n"
        "operators per language size: 1: 1\n"
    )


def test_check_axioms_witnesses_name_each_failing_axiom(capsys, monkeypatch):
    family = list(closure_ops.family_reports(3))
    size, attachments, _ = family[5]  # the last of size 2's four operators
    broken = closure_ops.AxiomReport(False, False, False, (frozenset(attachments),))
    family[5] = (size, attachments, broken)
    monkeypatch.setattr(closure_ops, "family_reports", lambda size: iter(family))
    assert main(["check-axioms", "--family", "--language-size", "3"]) == 1
    captured = capsys.readouterr()
    witness = "counterexample {G,E_1} for C({G,E_1},{G}) on language size 2"
    assert (size, attachments) == (2, prefix_language(2).statements)
    assert captured.err.splitlines() == [
        f"{name}: {witness}" for name in ("extensive-idempotent", "monotone", "finitary")
    ] + ["operators per language size: 1: 2, 2: 4, 3: 8"]


def test_self_maps_counterexample_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(closure_ops, "monotonicity_implied", lambda lang: False)
    assert main(["check-axioms", "--self-maps"]) == 1
    assert "monotonicity-implied: FAIL" in capsys.readouterr().out


def test_compare_csv(capsys):
    assert main(["compare", "--p", "1/2", "--n", "200", "--seed", "42",
                 "--alpha", "0.01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "test,stream,statistic,alpha,pass,n,seed,prng_version"
    assert lines[1] == "frequency,designed,0.0,0.01,true,200,,"
    assert lines[3] == (
        "frequency,prng,-0.7071067811865475,0.01,true,200,42,splitmix64-v1"
    )
    assert len(lines) == 5
    # the paper's headline: the canonical p = 1/2 design fails the runs test
    assert main(["compare", "--p", "1/2", "--n", "1000", "--seed", "42"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[2] == "runs,designed,31.575338477995764,0.01,false,1000,,"
    assert lines[4].endswith(",42,splitmix64-v1")


def test_compare_json(capsys):
    assert main(["compare", "--p", "1/2", "--n", "100", "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["test"] for row in rows] == [
        "frequency", "runs", "frequency", "runs",
    ]
    assert rows[2]["seed"] == 42
    assert rows[2]["prng_version"] == "splitmix64-v1"


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_compare_rejects_out_of_range_seed(capsys, seed):
    assert main(["compare", "--p", "1/2", "--n", "100", "--seed", str(seed)]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_compare_accepts_seed_range_edges(capsys, seed):
    assert main(["compare", "--p", "1/2", "--n", "100", "--seed", str(seed)]) == 0
    assert f",{seed},splitmix64-v1" in capsys.readouterr().out


def test_compare_rejects_tiny_n(capsys):
    assert main(["compare", "--p", "1/2", "--n", "10"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-seq", "--p", "3/7", "--n", "40"),
        ("gen-nonconv", "--low", "1/3", "--high", "1/2", "--n", "50"),
        ("gen-dist", "--probs", "1/4,1/2,1/4", "--n", "30"),
        ("realize", "--p", "1/2", "--n", "6", "--format", "json"),
        ("check-axioms", "--family", "--language-size", "3"),
        ("compare", "--p", "1/2", "--n", "100", "--seed", "7"),
    ],
)
def test_repeat_runs_are_byte_identical(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("check-axioms", "--family", "--language-size", "6"),
        ("realize", "--p", "1/3", "--n", "200"),
        ("gen-dist", "--probs", "1/6,1/3,1/2", "--n", "500"),
        ("compare", "--p", "1/3", "--n", "1000"),
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_the_same_under_a_second_hash_seed(argv):
    # no output may follow the iteration order of a set or dict of hashed strings
    stdout = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "freqmimic", *argv], capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout)
    assert stdout[0] == stdout[1]
