"""Self-tests for the benchmark: python3 -m pytest bench/test_bench.py

They run the real CLI at small sizes, so they take a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run
from catalog import END_TO_END, SPANS, per_layer
from launcher import Launcher
from spans import Span, Tracer, self_times, totals

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs src/ on the path)
from freqmimic import closure_ops  # noqa: E402

SMALL = {
    "seq": lambda seed: workloads.Seq(seed, n=2000, n_json=200, n_realize=50),
    "cells": lambda seed: workloads.Cells(seed, n=600, prefix=100),
    "axioms": lambda seed: workloads.Axioms(seed, family_size=3, carriers=(6,)),
}


@pytest.fixture
def launcher():
    launcher = Launcher()
    yield launcher
    launcher.close()


class Tamper:
    """Passes runs through, flipping one digit in the stdout of one verb."""

    def __init__(self, inner: Launcher, verb: str):
        self.inner, self.verb = inner, verb

    def run(self, argv, env):
        done = self.inner.run(argv, env)
        if self.verb in argv:
            data = bytearray(done.stdout)
            i = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
            data[i] = ord(str((int(chr(data[i])) + 1) % 10))
            done.stdout = bytes(data)
        return done


def _one_pass(runner: run.Runner, workload) -> None:
    _, outputs = runner.cli(workload)
    runner.ops(workload.library_ops(outputs), Tracer(enabled=False), "lib.")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs(name):
    make = SMALL[name]
    assert make(7).fingerprint() == make(7).fingerprint()
    assert len({make(seed).fingerprint() for seed in range(6)}) > 1


@pytest.mark.parametrize(
    "name, verb", [("seq", "gen-seq"), ("seq", "compare"), ("cells", "gen-dist")]
)
def test_altered_stdout_byte_counts_as_failed(launcher, name, verb):
    workload = SMALL[name](3)
    clean = run.Runner(launcher)
    _one_pass(clean, workload)
    assert clean.attempted > 0 and clean.failed == 0

    tampered = run.Runner(Tamper(launcher, verb))
    _one_pass(tampered, workload)
    assert tampered.failed >= 1


def test_wrong_axiom_verdict_counts_as_failed(launcher, monkeypatch):
    workload = SMALL["axioms"](3)
    runner = run.Runner(launcher)
    runner.ops(workload.library_ops({}), Tracer(enabled=False), "lib.")
    assert runner.failed == 0

    always_pass = closure_ops.AxiomReport(True, True, True, None)
    monkeypatch.setattr(closure_ops, "check_axioms", lambda ext: always_pass)
    runner = run.Runner(launcher)
    ops = [op for op in workload.library_ops({}) if op.name.startswith("check_axioms")]
    runner.ops(ops, Tracer(enabled=False), "lib.")
    assert runner.failed == sum(t.kind != "pass" for t in workload.tables) > 0


def test_counterexample_must_violate_its_axiom():
    table = next(t for t in SMALL["axioms"](5).tables if t.kind == "monotone")
    report = closure_ops.check_axioms(table.operator)
    assert table.expected(report) and table.witness_holds(report)
    empty = frozenset()
    assert not table.witness_holds(dataclasses.replace(report, counterexample=(empty, empty)))
    assert not table.expected(dataclasses.replace(report, extensive_idempotent=False))


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        Span(3, 1, "leaf", 2.0, 3.0),
        Span(4, 0, "late", 9.0, 12.0),  # runs past its parent: only [9, 10] counts
        Span(5, None, "a", 20.0, 21.5),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0, 5: 1.5}
    assert totals(spans)["a"] == (3.5, 2, 0)


def test_tracer_links_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", 5) as inner:
            inner.items += 1
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent, s.items) for s in tracer.spans] == [
        ("outer", None, 0), ("inner", 0, 6), ("next", None, 0)
    ]
    assert Tracer(enabled=False).span("x").items == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_replay_bytes_match_cli(launcher, name):
    runner = run.Runner(launcher)
    metrics, _, spans = run._traced(runner, SMALL[name](11), 0)
    assert runner.attempted > 0 and runner.failed == 0
    assert all(s.parent is not None or s.name.startswith(("cli.", "lib.", "anatomy."))
               for s in spans[0])
    assert {f"{n}.s" for n, _, _ in SPANS} <= set(metrics)


def test_catalog_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in per_layer()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
