"""The three workloads: seeded inputs, CLI operations, checks and replays.

Every workload turns its seed into concrete inputs before timing starts; the
program only ever sees those inputs, as CLI flags or library arguments.  An
operation is a CLI invocation (run by ``run.py`` in a child process) or a
library call made in this process.  ``replay_ops`` repeats each CLI
invocation in-process as the same public library calls that ``freqmimic.cli``
makes, so the traced run can attribute a verb's time to layers; its rendered
bytes must hash the same as the child's stdout.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from freqmimic import cell_dist, closure_ops, event_seq, freq_seq, language_core, stats_harness

from spans import Tracer

F = Fraction
ALPHA = 0.01


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` judges its value."""

    name: str
    run: Callable[[Tracer], object]
    check: Callable[[object], bool]


@dataclass
class CliOp:
    name: str
    args: list[str]
    check: Callable[[bytes], bool]


def _lines(data: bytes) -> list[str]:
    return data.decode().splitlines()


def _encode(tr: Tracer, verb: str, text: str) -> bytes:
    with tr.span(f"cli.{verb}.render") as s:
        data = text.encode()
        s.items = len(data)
    return data


def _parse_p(tr: Tracer, text: str) -> Fraction:
    with tr.span("freq_seq.parse_probability"):
        return freq_seq.parse_probability(text)


def _sequence_csv(tr: Tracer, seq) -> str:
    with tr.span("freq_seq.sequence_csv") as s:
        text = freq_seq.sequence_csv(seq)
        s.items = len(text)
    return text


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.build(random.Random(f"freqmimic-bench/{self.name}/{seed}"))

    def build(self, rng: random.Random) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the generated inputs; equal seeds must give equal digests."""
        raise NotImplementedError

    def cli_ops(self) -> list[CliOp]:
        raise NotImplementedError

    def replay_ops(self, state: dict) -> dict[str, Callable[[Tracer], bytes]]:
        """Each CLI operation as in-process library calls returning its stdout bytes."""
        raise NotImplementedError

    def library_ops(self, outputs: dict[str, bytes]) -> list[Op]:
        raise NotImplementedError

    def anatomy_ops(self, state: dict) -> list[Op]:
        """Public calls that a replayed verb makes only indirectly, timed one by one."""
        return []


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# ---------------------------------------------------------------- seq

# Rational targets near 1/2 so that every seed writes rows of the same width;
# denominators run from 2 to about 2**21.
P_POOL = tuple(F(t) for t in (
    "1/2", "2/5", "3/5", "3/7", "4/7", "5/11", "7/16", "13/29", "31/64", "89/233",
    "377/987", "4093/8191", "27183/65536", "314159/1000000", "577215/1000003",
    "999983/2000000",
))
NONCONV_POOL = tuple((F(a), F(b)) for a, b in (
    ("1/3", "1/2"), ("1/4", "1/2"), ("2/5", "3/5"), ("1/3", "2/3"), ("3/10", "1/2"),
    ("2/7", "4/7"),
))


class Seq(Workload):
    """One-cell pipelines: generation, the PRNG comparison and serialization."""

    name = "seq"

    def __init__(self, seed: int, n: int = 10**6, n_json: int = 10**5, n_realize: int = 2 * 10**4):
        self.n, self.n_json, self.n_realize = n, n_json, n_realize
        super().__init__(seed)

    def build(self, rng: random.Random) -> None:
        self.p = rng.choice(P_POOL)
        self.low, self.high = rng.choice(NONCONV_POOL)
        self.m = rng.randrange(self.n_json // 4, self.n_json // 2)
        self.prng_seed = rng.getrandbits(64)

    def fingerprint(self) -> str:
        return _digest(self.p, self.low, self.high, self.m, self.prng_seed,
                       self.n, self.n_json, self.n_realize)

    # Expected values, computed once per run on first use.

    @cached_property
    def expected_prefix(self) -> tuple[int, ...]:
        return freq_seq.canonical_prefix(self.p, self.n).terms

    @cached_property
    def expected_nonconv_digest(self) -> str:
        seq = freq_seq.build_nonconvergent(self.low, self.high, self.n)
        return hashlib.sha256(freq_seq.sequence_csv(seq).encode()).hexdigest()

    @cached_property
    def expected_reports(self) -> list:
        designed = event_seq.to_binary(freq_seq.CumulativeSequence(self.expected_prefix))
        return stats_harness.compare(designed, self.p, self.prng_seed, ALPHA)

    def _frozen_term(self, k: int) -> int:
        return min(k, self.m) * self.p.numerator // self.p.denominator

    def _realize_text(self) -> str:
        num, den = self.p.numerator, self.p.denominator
        tokens = [
            f"E_{j}" if j * num // den - (j - 1) * num // den else f"E'_{j}"
            for j in range(1, self.n_realize + 1)
        ]
        return " ".join(tokens) + "\nC({" + ",".join(tokens) + "},{G})\n"

    # Checks on CLI stdout.  The content of gen-seq's CSV is verified through
    # its read-back operation, which runs on every pass; gen-nonconv's CSV is
    # compared byte for byte with the library's own rendering.

    def _check_seq_csv(self, data: bytes) -> bool:
        n = self.n
        last = n * self.p.numerator // self.p.denominator
        lines = _lines(data)
        return (
            len(lines) == n + 1
            and lines[0] == "n,a_n,freq_num,freq_den"
            and lines[-1] == f"{n},{last},{last},{n}"
        )

    def _check_json(self, data: bytes) -> bool:
        rows = [json.loads(line) for line in _lines(data)]
        return rows == [
            {"n": k, "a": self._frozen_term(k), "freq": [self._frozen_term(k), k]}
            for k in range(1, self.n_json + 1)
        ]

    def cli_ops(self) -> list[CliOp]:
        n = str(self.n)
        return [
            CliOp("gen-seq.csv", ["gen-seq", "--p", str(self.p), "--n", n], self._check_seq_csv),
            CliOp("gen-seq.json", ["gen-seq", "--p", str(self.p), "--n", str(self.n_json),
                                   "--m", str(self.m), "--format", "json"], self._check_json),
            CliOp("gen-nonconv", ["gen-nonconv", "--low", str(self.low), "--high", str(self.high),
                                  "--n", n],
                  lambda d: hashlib.sha256(d).hexdigest() == self.expected_nonconv_digest),
            CliOp("compare", ["compare", "--p", str(self.p), "--n", n, "--seed",
                              str(self.prng_seed), "--alpha", str(ALPHA)],
                  lambda d: d.decode() == stats_harness.reports_csv(self.expected_reports)),
            CliOp("realize", ["realize", "--p", str(self.p), "--n", str(self.n_realize)],
                  lambda d: d.decode() == self._realize_text()),
        ]

    def replay_ops(self, state: dict) -> dict[str, Callable[[Tracer], bytes]]:
        def gen_seq_csv(tr):
            p = _parse_p(tr, str(self.p))
            with tr.span("freq_seq.canonical_prefix", self.n):
                seq = freq_seq.canonical_prefix(p, self.n)
            state["prefix"] = seq
            return _encode(tr, "gen-seq.csv", _sequence_csv(tr, seq))

        def gen_seq_json(tr):
            p = _parse_p(tr, str(self.p))
            with tr.span("freq_seq.canonical_prefix", self.n_json):
                seq = freq_seq.canonical_prefix(p, self.n_json)
            with tr.span("freq_seq.truncate_freeze", self.n_json):
                seq = freq_seq.truncate_freeze(seq, self.m, self.n_json)
            with tr.span("freq_seq.sequence_json_rows", self.n_json):
                rows = freq_seq.sequence_json_rows(seq)
            with tr.span("cli.gen-seq.json.dumps", len(rows)):
                text = "".join(json.dumps(row) + "\n" for row in rows)
            return _encode(tr, "gen-seq.json", text)

        def gen_nonconv(tr):
            low = _parse_p(tr, str(self.low))
            high = _parse_p(tr, str(self.high))
            with tr.span("freq_seq.build_nonconvergent", self.n):
                seq = freq_seq.build_nonconvergent(low, high, self.n)
            return _encode(tr, "gen-nonconv", _sequence_csv(tr, seq))

        def compare(tr):
            p = _parse_p(tr, str(self.p))
            with tr.span("freq_seq.canonical_prefix", self.n):
                seq = freq_seq.canonical_prefix(p, self.n)
            with tr.span("event_seq.to_binary", self.n):
                designed = event_seq.to_binary(seq)
            with tr.span("stats_harness.compare", self.n):
                reports = stats_harness.compare(designed, p, self.prng_seed, ALPHA)
            with tr.span("stats_harness.reports_csv") as s:
                text = stats_harness.reports_csv(reports)
                s.items = len(text)
            state["designed"], state["reports"] = designed, reports
            return _encode(tr, "compare", text)

        def realize(tr):
            p = _parse_p(tr, str(self.p))
            with tr.span("event_seq.realize_trace", self.n_realize):
                trace = event_seq.realize_trace(p, self.n_realize)
            with tr.span("event_seq.trace_operator", self.n_realize):
                op = event_seq.trace_operator(p, self.n_realize)
            with tr.span("event_seq.LabeledEventSequence.text", self.n_realize):
                text = trace.text()
            with tr.span("closure_ops.canonical_form", self.n_realize):
                form = closure_ops.canonical_form(op)
            return _encode(tr, "realize", f"{text}\n{form}\n")

        return {
            "gen-seq.csv": gen_seq_csv,
            "gen-seq.json": gen_seq_json,
            "gen-nonconv": gen_nonconv,
            "compare": compare,
            "realize": realize,
        }

    def library_ops(self, outputs: dict[str, bytes]) -> list[Op]:
        def sequence(tr):
            text = outputs["gen-seq.csv"].decode()
            with tr.span("freq_seq.sequence_from_csv", len(text)):
                return freq_seq.sequence_from_csv(text)

        def reports(tr):
            text = outputs["compare"].decode()
            with tr.span("stats_harness.reports_from_csv", len(text)):
                return stats_harness.reports_from_csv(text)

        return [
            Op("readback.gen-seq.csv", sequence, lambda seq: seq.terms == self.expected_prefix),
            Op("readback.compare", reports, lambda got: got == self.expected_reports),
        ]

    def anatomy_ops(self, state: dict) -> list[Op]:
        n, nr = self.n, self.n_realize

        def representation(tr):
            seq = state["prefix"]
            with tr.span("freq_seq.CumulativeSequence.validate", n):
                freq_seq.CumulativeSequence(seq.terms)
            with tr.span("event_seq.to_binary", n):
                bits = event_seq.to_binary(seq)
            with tr.span("event_seq.BinaryTrialSequence.validate", n):
                event_seq.BinaryTrialSequence(bits.bits)
            with tr.span("event_seq.from_binary", n):
                back = event_seq.from_binary(bits)
            return back.terms == seq.terms

        def statistics(tr):
            designed = state["designed"]
            with tr.span("stats_harness.bernoulli_prng", n):
                generated = stats_harness.bernoulli_prng(self.p, n, self.prng_seed)
            got = []
            for bits, stream in ((designed, "designed"), (generated, "prng")):
                with tr.span("stats_harness.frequency_test", n):
                    got.append(stats_harness.frequency_test(bits, self.p, ALPHA, stream))
                with tr.span("stats_harness.runs_test", n):
                    got.append(stats_harness.runs_test(bits, ALPHA, stream))
            return [r.statistic for r in got] == [r.statistic for r in state["reports"]]

        def realization(tr):
            with tr.span("freq_seq.canonical_prefix", nr):
                seq = freq_seq.canonical_prefix(self.p, nr)
            with tr.span("event_seq.to_binary", nr):
                bits = event_seq.to_binary(seq)
            # the statements label_events builds, one per trial
            with tr.span("language_core.Statement", nr):
                [language_core.event(j) if b else language_core.non_event(j)
                 for j, b in enumerate(bits.bits, 1)]
            with tr.span("event_seq.label_events", nr):
                labeled = event_seq.label_events(bits)
            with tr.span("closure_ops.SourceConditionalOperator", nr):
                op = closure_ops.SourceConditionalOperator(
                    frozenset(labeled.entries), language_core.source_statement()
                )
            with tr.span("closure_ops.realize", nr):
                produced = closure_ops.realize(op, {op.source})
            return produced == frozenset(labeled.entries)

        return [
            Op("anatomy.gen-seq", representation, bool),
            Op("anatomy.compare", statistics, bool),
            Op("anatomy.realize", realization, bool),
        ]


# ---------------------------------------------------------------- cells


def _weights_vector(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(m)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


class Cells(Workload):
    """Greedy multi-cell tables at a narrow and a wide probability vector."""

    name = "cells"
    WIDTHS = (3, 10)

    def __init__(self, seed: int, n: int = 10**5, prefix: int = 2 * 10**4):
        self.n, self.prefix = n, prefix
        super().__init__(seed)

    def build(self, rng: random.Random) -> None:
        self.vectors = {m: _weights_vector(rng, m) for m in self.WIDTHS}

    def fingerprint(self) -> str:
        return _digest(self.vectors, self.n, self.prefix)

    def _probs_text(self, m: int) -> str:
        return ",".join(str(p) for p in self.vectors[m])

    def _check_table(self, data: bytes, m: int) -> bool:
        lines = _lines(data)
        last = [int(v) for v in lines[-1].split(",")]
        return (
            len(lines) == self.n + 1
            and lines[0] == ",".join(["t", "assigned_cell"] + [f"a_{k}" for k in range(1, m + 1)])
            and last[0] == self.n
            and sum(last[2:]) == self.n
        )

    def cli_ops(self) -> list[CliOp]:
        return [
            CliOp(f"gen-dist.m{m}", ["gen-dist", "--probs", self._probs_text(m), "--n", str(self.n)],
                  lambda d, m=m: self._check_table(d, m))
            for m in self.WIDTHS
        ]

    def replay_ops(self, state: dict) -> dict[str, Callable[[Tracer], bytes]]:
        def gen_dist(tr, m):
            with tr.span("cell_dist.parse_probability_vector", m):
                probs = cell_dist.parse_probability_vector(self._probs_text(m))
            with tr.span(f"cell_dist.build_cell_sequences.m{m}", self.n):
                assignment, sequences = cell_dist.build_cell_sequences(probs, self.n)
            with tr.span("cell_dist.cell_csv") as s:
                text = cell_dist.cell_csv(assignment, sequences)
                s.items = len(text)
            return _encode(tr, f"gen-dist.m{m}", text)

        return {f"gen-dist.m{m}": lambda tr, m=m: gen_dist(tr, m) for m in self.WIDTHS}

    def library_ops(self, outputs: dict[str, bytes]) -> list[Op]:
        ops = []
        for m in self.WIDTHS:
            probs = self.vectors[m]
            table: dict = {}

            def readback(tr, m=m, table=table):
                text = outputs[f"gen-dist.m{m}"].decode()
                with tr.span("cell_dist.cell_table_from_csv", len(text)):
                    table["assignment"], table["sequences"] = cell_dist.cell_table_from_csv(text)
                return table

            def readback_ok(got, m=m):
                assignment, sequences = got["assignment"], got["sequences"]
                return (
                    len(assignment) == self.n
                    and len(sequences) == m
                    and sum(s.terms[-1] for s in sequences) == self.n
                )

            def validate(tr, probs=probs, table=table):
                with tr.span("cell_dist.validate_cell_table", self.n):
                    return cell_dist.validate_cell_table(table["sequences"], probs)

            def disc(tr, probs=probs, table=table):
                with tr.span("cell_dist.discrepancy", self.n):
                    return cell_dist.discrepancy(table["sequences"], probs)

            def chi(tr, probs=probs, table=table):
                counts = [s.terms[-1] for s in table["sequences"]]
                with tr.span("stats_harness.chi_square_cells", len(counts)):
                    report = stats_harness.chi_square_cells(counts, self.n, probs, ALPHA)
                return counts, report

            def chi_ok(got, probs=probs):
                counts, report = got
                exact = sum(F((c - self.n * p) ** 2) / (self.n * p) for c, p in zip(counts, probs))
                return report.n == self.n and report.statistic == float(exact)

            def tuples(tr, m=m, table=table):
                entries = table["assignment"].entries[: self.prefix]
                with tr.span("cell_dist.trials_to_tuples", len(entries)):
                    got = cell_dist.trials_to_tuples(cell_dist.CellAssignment(entries, m), m)
                return entries, got

            def tuples_ok(got):
                entries, trials = got
                return [t.cell for t in trials] == list(entries) and [
                    t.trial for t in trials
                ] == list(range(1, len(entries) + 1))

            ops += [
                Op(f"readback.gen-dist.m{m}", readback, readback_ok),
                Op(f"validate_cell_table.m{m}", validate, lambda r: r.all_ok),
                Op(f"discrepancy.m{m}", disc, lambda d: d <= 1),
                Op(f"chi_square_cells.m{m}", chi, chi_ok),
                Op(f"trials_to_tuples.m{m}", tuples, tuples_ok),
            ]
        return ops


# ---------------------------------------------------------------- axioms


def _closure_table(rng: random.Random, n: int) -> list[int]:
    """A random closure operator on n bits: the least superset closed under
    seeded Horn rules (two or three premises imply one conclusion)."""
    rules = []
    for _ in range(n):
        premise = rng.sample(range(n), rng.choice((2, 3)))
        conclusion = rng.choice([b for b in range(n) if b not in premise])
        rules.append((sum(1 << b for b in premise), 1 << conclusion))
    table = []
    for mask in range(1 << n):
        closed = mask
        changed = True
        while changed:
            changed = False
            for premise, conclusion in rules:
                if closed & premise == premise and not closed & conclusion:
                    closed |= conclusion
                    changed = True
        table.append(closed)
    return table


@dataclass
class SeededTable:
    """An operator table with the verdicts its construction guarantees.

    ``kind`` is "pass" (a closure operator), "monotone" (one subset Y with a
    proper closure below the top is sent to the whole carrier: extensive and
    idempotent still hold, monotone and finitary fail), or "extensive" (one
    element of a two-element Y is dropped from its image).
    """

    kind: str
    elements: list
    masks: list[int]
    operator: closure_ops.ExtensionalOperator

    def expected(self, report) -> bool:
        verdicts = (report.extensive_idempotent, report.monotone, report.finitary)
        if self.kind == "pass":
            return verdicts == (True, True, True) and report.counterexample is None
        if self.kind == "monotone":
            return verdicts == (True, False, False)
        return not verdicts[0]

    def witness_holds(self, report) -> bool:
        """The counterexample violates the first axiom reported false."""
        if report.all_ok:
            return report.counterexample is None
        index = {e: i for i, e in enumerate(self.elements)}
        to_mask = lambda subset: sum(1 << index[e] for e in subset)
        table = self.masks
        witness = [to_mask(s) for s in report.counterexample]
        if not report.extensive_idempotent:
            (y,) = witness
            image = table[y]
            return bool(y & ~image) or table[image] != image
        if not report.monotone:
            y, z = witness
            return y & ~z == 0 and bool(table[y] & ~table[z])
        (y,) = witness
        union = 0
        sub = y
        while True:
            union |= table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & y
        return union != table[y]


def _seeded_table(rng: random.Random, n: int, kind: str) -> SeededTable:
    elements = sorted(language_core.prefix_language(n).statements, key=language_core.statement_key)
    full = (1 << n) - 1
    pairs = [m for m in range(1 << n) if bin(m).count("1") == 2]
    while True:
        masks = _closure_table(rng, n)
        if kind == "monotone":
            candidates = [m for m in pairs if masks[m] not in (m, full)]
        else:
            candidates = pairs
        if candidates:
            break
    if kind == "monotone":
        masks[rng.choice(candidates)] = full
    elif kind == "extensive":
        y = rng.choice(candidates)
        masks[y] &= ~(1 << rng.choice([b for b in range(n) if y >> b & 1]))
    subsets = [frozenset(e for i, e in enumerate(elements) if m >> i & 1) for m in range(1 << n)]
    operator = closure_ops.ExtensionalOperator(
        frozenset(elements), {subsets[m]: subsets[masks[m]] for m in range(1 << n)}
    )
    return SeededTable(kind, elements, masks, operator)


class Axioms(Workload):
    """Exhaustive closure-axiom checks, half on passing tables, half failing."""

    name = "axioms"
    CARRIERS = (10, 12)
    KINDS = ("pass", "monotone", "pass", "extensive")

    def __init__(self, seed: int, family_size: int = 8, carriers: tuple[int, ...] = CARRIERS):
        self.family_size, self.carriers = family_size, carriers
        super().__init__(seed)

    def build(self, rng: random.Random) -> None:
        self.tables = [_seeded_table(rng, n, kind) for n in self.carriers for kind in self.KINDS]
        self.languages = [language_core.prefix_language(3), language_core.prefix_language(4)]
        source = language_core.source_statement()
        self.factors = [
            [
                closure_ops.SourceConditionalOperator(
                    frozenset(s for s in lang.statements if rng.random() < 0.5), source
                )
                for lang in self.languages
            ]
            for _ in range(2)
        ]

    def fingerprint(self) -> str:
        return _digest(
            [(t.kind, t.masks) for t in self.tables],
            [[closure_ops.canonical_form(op) for op in ops] for ops in self.factors],
            self.family_size,
        )

    @cached_property
    def expected_lub(self) -> dict:
        """The lub of two product operators is the product of the factorwise joins."""
        joined = [closure_ops.join_family(a, b) for a, b in zip(*self.factors)]
        return closure_ops.extensionalize_product(joined, self.languages).table

    def _family_text(self) -> str:
        checked = (1 << (self.family_size + 1)) - 2
        return (
            "extensive-idempotent: PASS\nmonotone: PASS\nfinitary: PASS\n"
            f"operators checked: {checked}\n"
        )

    def cli_ops(self) -> list[CliOp]:
        return [
            CliOp("check-axioms.family",
                  ["check-axioms", "--family", "--language-size", str(self.family_size)],
                  lambda d: d.decode() == self._family_text()),
            CliOp("check-axioms.self-maps", ["check-axioms", "--self-maps"],
                  lambda d: d.decode() == "monotonicity-implied: PASS\nmaps checked: 256\n"),
        ]

    def replay_ops(self, state: dict) -> dict[str, Callable[[Tracer], bytes]]:
        def family(tr):
            fields = ("extensive_idempotent", "monotone", "finitary")
            verdicts = dict.fromkeys(fields, True)
            checked = 0
            for s in range(1, self.family_size + 1):
                with tr.span("language_core.prefix_language", s):
                    language = language_core.prefix_language(s)
                with tr.span("closure_ops.all_subsets", 1 << s):
                    attachment_sets = closure_ops.all_subsets(language.statements)
                for attachments in attachment_sets:
                    with tr.span("closure_ops.SourceConditionalOperator", len(attachments)):
                        op = closure_ops.SourceConditionalOperator(
                            attachments, language_core.source_statement()
                        )
                    with tr.span("closure_ops.extensionalize", 1 << s):
                        ext = closure_ops.extensionalize(op, language)
                    report = _check_axioms(tr, ext)
                    checked += 1
                    for f in fields:
                        verdicts[f] = verdicts[f] and getattr(report, f)
            names = ("extensive-idempotent", "monotone", "finitary")
            text = "".join(
                f"{name}: {'PASS' if verdicts[f] else 'FAIL'}\n" for name, f in zip(names, fields)
            )
            return _encode(tr, "check-axioms.family", text + f"operators checked: {checked}\n")

        def self_maps(tr):
            with tr.span("language_core.prefix_language", 2):
                language = language_core.prefix_language(2)
            with tr.span("closure_ops.monotonicity_implied", 256):
                ok = closure_ops.monotonicity_implied(language)
            text = f"monotonicity-implied: {'PASS' if ok else 'FAIL'}\nmaps checked: 256\n"
            return _encode(tr, "check-axioms.self-maps", text)

        return {"check-axioms.family": family, "check-axioms.self-maps": self_maps}

    def library_ops(self, outputs: dict[str, bytes]) -> list[Op]:
        ops = []
        for i, table in enumerate(self.tables):
            ops.append(Op(
                f"check_axioms.c{len(table.elements)}.{i}.{table.kind}",
                lambda tr, t=table: _check_axioms(tr, t.operator),
                lambda report, t=table: t.expected(report) and t.witness_holds(report),
            ))
        products: dict = {}

        def product(tr, which):
            with tr.span("closure_ops.extensionalize_product", 1 << 12):
                products[which] = closure_ops.extensionalize_product(
                    self.factors[which], self.languages
                )
            return products[which]

        def lub(tr):
            with tr.span("closure_ops.lub_extensional", 1 << 12):
                return closure_ops.lub_extensional(products[0], products[1])

        product_ok = lambda ext: len(ext.table) == 1 << 12 and closure_ops.is_axiomless(ext)
        ops += [
            Op("extensionalize_product.0", lambda tr: product(tr, 0), product_ok),
            Op("extensionalize_product.1", lambda tr: product(tr, 1), product_ok),
            Op("lub_extensional", lub, lambda ext: ext.table == self.expected_lub),
        ]
        return ops


def _check_axioms(tr: Tracer, ext):
    with tr.span("closure_ops.check_axioms", 1 << len(ext.carrier)) as s:
        report = closure_ops.check_axioms(ext)
        s.name += ".pass" if report.all_ok else ".fail"
    return report


WORKLOADS = {w.name: w for w in (Seq, Cells, Axioms)}


# ---------------------------------------------------------------- budgets

THREE_CELL_TABLE = [[1, 1, 1, 2, 2, 2], [0, 1, 2, 2, 2, 3], [0, 0, 0, 0, 1, 1]]


def _c01():
    seq = freq_seq.canonical_prefix(F(1, 2), 8)
    return seq, freq_seq.frequency_points(seq)


def _c01_ok(got):
    seq, points = got
    return seq.terms == (0, 1, 1, 2, 2, 3, 3, 4) and [
        (pt.trial, pt.successes) for pt in points
    ] == [(k, k // 2) for k in range(1, 9)]


def _c03():
    ps = (F(0), F(1, 7), F(1, 4), F(1, 2), F(3, 7), F(5, 9), F(1))
    return [freq_seq.max_deviation(freq_seq.canonical_prefix(p, 10**5), p) for p in ps]


def _c04():
    short = freq_seq.build_nonconvergent(F(1, 3), F(1, 2), 24)
    long = freq_seq.build_nonconvergent(F(1, 3), F(1, 2), 10**6)
    return short.terms, freq_seq.count_phase_switches(long)


def _c04_ok(got):
    terms, switches = got
    return terms == (0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8) and (
        switches >= 20
    )


def _c05():
    source = language_core.source_statement()
    verdicts = []
    for size in range(1, 5):
        language = language_core.prefix_language(size)
        for attachments in closure_ops.all_subsets(language.statements):
            op = closure_ops.SourceConditionalOperator(attachments, source)
            verdicts.append(closure_ops.check_axioms(closure_ops.extensionalize(op, language)).all_ok)
    return verdicts


def _c08():
    language = language_core.prefix_language(3)
    source = language_core.source_statement()
    left = closure_ops.SourceConditionalOperator(frozenset({language_core.event(1)}), source)
    right = closure_ops.SourceConditionalOperator(frozenset({language_core.non_event(1)}), source)
    product = closure_ops.extensionalize_product([left, right], [language, language])
    return product, closure_ops.check_axioms(product).all_ok, closure_ops.is_axiomless(product)


def _c08_ok(got):
    product, ok, axiomless = got
    return len(product.carrier) == 9 and len(product.table) == 512 and ok and axiomless


def _c09():
    quarters = (F(1, 4), F(1, 2), F(1, 4))
    results = [cell_dist.validate_cell_table(THREE_CELL_TABLE, quarters).all_ok]
    for probs in (quarters, (F(1, 6), F(1, 3), F(1, 2))):
        _, sequences = cell_dist.build_cell_sequences(probs, 10**4)
        results.append(cell_dist.validate_cell_table(sequences, probs).all_ok)
        results.append(cell_dist.discrepancy(sequences, probs) <= 1)
    return results


def _c11():
    frozen = freq_seq.truncate_freeze(freq_seq.canonical_prefix(F(1, 2), 10**4), 10**4, 10**6)
    head = event_seq.to_binary(freq_seq.CumulativeSequence(frozen.terms[: 10**4]))
    return stats_harness.frequency_test(head, F(1, 2), 0.01).passed, frozen.terms[-1]


# criterion -> (repetitions, calls the acceptance test times, check)
BUDGET_OPS = {
    "c01": (51, _c01, _c01_ok),
    "c03": (1, _c03, lambda got: all(check.within_bound for check in got)),
    "c04": (1, _c04, _c04_ok),
    "c05": (5, _c05, lambda got: len(got) == 30 and all(got)),
    "c08": (3, _c08, _c08_ok),
    "c09": (3, _c09, all),
    "c11": (3, _c11, lambda got: got == (True, 5000)),
}
