"""Command-line front end.

Verbs: gen-seq, gen-nonconv, gen-dist, realize, check-axioms, compare.
Output is a pure function of the flags (seeds included), so repeated runs
are byte-identical.  gen-seq and gen-nonconv write each chunk of rows from the
offsets a(k) - a0 of its terms above its first term a0 (k is the row's
position): gen-seq takes them from the closed form floor(k*p), gen-nonconv from
its phases, checked once where they join, so no term is checked again.  Each
row's one slot is filled from a pool of the chunk's value texts.  realize takes
each trial's outcome from the closed form k*num mod den < num (p = num/den), so it
builds no term a(k) and checks none.
gen-dist takes each trial's cell from the greedy loop, in chunks of cells alone
sized by value slots (a row's cell and m counts), so a chunk's memory does not
grow with m.  A period of up to ``cell_dist.TILE_SLOTS`` slots is run once and
repeated, so every full chunk is one tile; each count is the running count of its
cell, and a chunk equal to the last one checked reuses its check and its gather.
These four verbs write every row and trial number through one renderer,
``freq_seq._numbered``.  compare takes the designed stream's counts
from their closed form and counts the generated stream in packed chunks as it
is drawn.  So memory does not grow with --n; flags are checked before the first row.
Each verb imports only the modules it runs: compare loads ``freq_seq`` and
``stats_harness`` alone, and only check-axioms loads ``closure_ops``.
Exit codes: 0 on success, 2 on usage errors, 1 when an exhaustive invariant
check finds a counterexample (check-axioms names it on stderr), 141 when the
reader closes stdout early (128 + SIGPIPE, nothing on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

_AXIOM_FIELDS = (
    ("extensive-idempotent", "extensive_idempotent"),
    ("monotone", "monotone"),
    ("finitary", "finitary"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqmimic",
        description="deterministic success sequences, their generating operators, "
        "and a statistical comparison harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen_seq = sub.add_parser("gen-seq", help="canonical success-count prefix for p")
    gen_seq.add_argument("--p", required=True, help="probability, 'num/den' or decimal")
    gen_seq.add_argument("--n", required=True, type=int, help="number of trials")
    gen_seq.add_argument(
        "--m", type=int, default=None, help="optional freeze index: hold a(m) through n"
    )
    _add_format(gen_seq)

    gen_nonconv = sub.add_parser(
        "gen-nonconv", help="oscillating sequence whose frequency never settles"
    )
    gen_nonconv.add_argument("--low", required=True, help="lower frequency bound")
    gen_nonconv.add_argument("--high", required=True, help="upper frequency bound")
    gen_nonconv.add_argument("--n", required=True, type=int)
    _add_format(gen_nonconv)

    gen_dist = sub.add_parser(
        "gen-dist", help="greedy assignment of trials to cells with given shares"
    )
    gen_dist.add_argument(
        "--probs", required=True, help="comma-separated cell probabilities"
    )
    gen_dist.add_argument("--n", required=True, type=int)
    _add_format(gen_dist)

    realize = sub.add_parser(
        "realize", help="labeled outcome trace plus its generating operator"
    )
    realize.add_argument("--p", required=True)
    realize.add_argument("--n", required=True, type=int)
    _add_format(realize)

    check = sub.add_parser("check-axioms", help="exhaustive closure-axiom suites")
    check.add_argument(
        "--family",
        action="store_true",
        help="check every source-conditional operator on small languages",
    )
    check.add_argument(
        "--self-maps",
        action="store_true",
        help="check that extensive+idempotent+finitary self-maps are monotone",
    )
    check.add_argument("--language-size", type=int, default=None)

    compare = sub.add_parser(
        "compare", help="frequency and runs tests on designed vs generated streams"
    )
    compare.add_argument("--p", required=True)
    compare.add_argument("--n", required=True, type=int)
    compare.add_argument("--seed", type=int, default=42)
    compare.add_argument("--alpha", type=float, default=0.01, choices=[0.05, 0.01])
    _add_format(compare)

    return parser


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv")


def _cmd_gen_seq(args: argparse.Namespace) -> int:
    from . import freq_seq
    p = freq_seq.parse_probability(args.p)
    sys.stdout.writelines(freq_seq.canonical_chunks(p, args.n, args.m, args.format))
    return 0


def _cmd_gen_nonconv(args: argparse.Namespace) -> int:
    from . import freq_seq
    low = freq_seq.parse_probability(args.low)
    high = freq_seq.parse_probability(args.high)
    sys.stdout.writelines(freq_seq.nonconvergent_chunks(low, high, args.n, args.format))
    return 0


def _cmd_gen_dist(args: argparse.Namespace) -> int:
    from . import cell_dist
    probs = cell_dist.parse_probability_vector(args.probs)
    chunks = cell_dist.cell_column_chunks(probs, args.n)
    sys.stdout.writelines(cell_dist.cell_chunks(chunks, len(probs), args.format))
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    from . import event_seq, freq_seq
    p = freq_seq.parse_probability(args.p)
    sys.stdout.writelines(event_seq.trace_chunks(p, args.n, args.format))
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    from . import closure_ops, language_core
    if args.family and args.self_maps:
        raise ValueError("choose one of --family or --self-maps")
    if args.self_maps:
        size = 2 if args.language_size is None else args.language_size
        # three statements are past the 2-statement cap, so monotonicity_implied rejects
        # any larger size with its own error without that language being built
        ok = closure_ops.monotonicity_implied(language_core.prefix_language(min(size, 3)))
        maps = (1 << size) ** (1 << size)
        print(f"monotonicity-implied: {'PASS' if ok else 'FAIL'}")
        print(f"maps checked: {maps}")
        return 0 if ok else 1

    size = 4 if args.language_size is None else args.language_size
    counts, failing = {}, []  # operators per language size; the failing ones, for the witnesses
    for s, attachments, report in closure_ops.family_reports(size):
        counts[s] = counts.get(s, 0) + 1
        if not report.all_ok:
            failing.append((s, attachments, report))
    for name, field in _AXIOM_FIELDS:
        print(f"{name}: {'FAIL' if any(not getattr(r, field) for *_, r in failing) else 'PASS'}")
    print(f"operators checked: {sum(counts.values())}")
    if not failing:
        return 0
    # On stderr: each failing axiom's first operator and counterexample, and operators per size.
    render = closure_ops.render_statement_set
    for name, field in _AXIOM_FIELDS:
        for s, attachments, report in failing:
            if not getattr(report, field):
                witness = ", ".join(map(render, report.counterexample))
                print(f"{name}: counterexample {witness} for C({render(attachments)},{{G}})"
                      f" on language size {s}", file=sys.stderr)
                break
    per_size = ", ".join(f"{s}: {counts[s]}" for s in sorted(counts))
    print(f"operators per language size: {per_size}", file=sys.stderr)
    return 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import freq_seq, stats_harness
    p = freq_seq.parse_probability(args.p)
    designed = stats_harness.canonical_counts(p, args.n)
    reports = stats_harness.compare(designed, p, args.seed, args.alpha)
    if args.format == "csv":
        sys.stdout.write(stats_harness.reports_csv(reports))
    else:
        import json
        for report in reports:
            print(json.dumps(report.as_json_dict()))
    return 0


_HANDLERS = {
    "gen-seq": _cmd_gen_seq,
    "gen-nonconv": _cmd_gen_nonconv,
    "gen-dist": _cmd_gen_dist,
    "realize": _cmd_realize,
    "check-axioms": _cmd_check_axioms,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.verb](args)
        sys.stdout.flush()  # a closed pipe then raises here, not in the interpreter's last flush
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's last flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
