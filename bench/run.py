"""Benchmark for freqmimic: one workload, one seed, one run.

    python3 bench/run.py --workload seq --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``):

* ``seq``    gen-seq (CSV at n=1e6, JSON at n=1e5 with --m), gen-nonconv
             and compare at n=1e6, realize at n=2e4, then gen-seq's CSV and
             compare's report read back in-process.
* ``cells``  gen-dist at n=1e5 with 3 and with 10 cells, then read back,
             validated, discrepancy, chi-square and one-hot tuples in-process.
* ``axioms`` check-axioms --family and --self-maps, then check_axioms on
             seeded carrier-10 and carrier-12 tables (half of them failing),
             two product operators on a 3x4 tuple carrier and their lub.

One client, closed loop: operations run one at a time, and the operation
list repeats until ``--seconds`` have passed (at least once).  Each CLI verb
runs as a child process; its wall time and its own peak RSS are recorded.
Every operation's output is checked; a failed check or a non-zero exit
counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: per-pass times averaged over the
run's passes, the largest child peak RSS, and the median set-up time.
``--trace 1`` runs the CLI pass too, and right after each verb's child
replays the verb in-process as the library calls ``freqmimic.cli`` makes,
once without spans and once with them.  It prints per-layer metrics: self
time and items per library span, per-verb CLI figures, tracing overhead,
and the time of the calls each budgeted acceptance criterion makes.  Spans and per-operation samples are
written to ``bench/results/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from catalog import BUDGETS, END_TO_END, SPANS, VERBS, per_layer
from launcher import Launcher
from spans import Tracer, as_records, totals

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import freqmimic; print(time.perf_counter() - t)"
)
SETUP_REPEATS = 5
IMPORT_REPEATS = 9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["seq", "cells", "axioms"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs operations, times them and counts the ones whose check fails."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name} {detail}".rstrip(), file=sys.stderr)
        return ok

    def cli_op(self, op) -> tuple[dict, bytes]:
        """Run one CLI operation in a child process; return its sample and stdout."""
        done = self.launcher.run([sys.executable, "-m", "freqmimic", *op.args], self.env)
        ok = done.returncode == 0 and _judge(op.check, done.stdout)
        self.record(op.name, ok, done.stderr.decode(errors="replace")[-2000:])
        sample = {
            "seconds": done.seconds,
            "cpu_seconds": done.cpu_seconds,
            "peak_rss_mb": done.peak_rss_mb,
            "stdout_bytes": len(done.stdout),
        }
        return sample, done.stdout

    def cli(self, workload) -> tuple[dict, dict[str, bytes]]:
        """One pass over the workload's CLI operations."""
        samples, outputs = {}, {}
        for op in workload.cli_ops():
            samples[op.name], outputs[op.name] = self.cli_op(op)
        return samples, outputs

    def ops(self, ops, tracer: Tracer, prefix: str) -> dict[str, float]:
        """Run in-process operations, each under a parent span; return seconds per op."""
        seconds = {}
        for op in ops:
            start = time.perf_counter()
            try:
                with tracer.span(f"{prefix}{op.name}"):
                    value = op.run(tracer)
            except Exception:
                seconds[op.name] = time.perf_counter() - start
                self.record(op.name, False, traceback.format_exc())
                continue
            seconds[op.name] = time.perf_counter() - start
            self.record(op.name, _judge(op.check, value))
        return seconds


def _judge(check, value) -> bool:
    """A check that raises counts as failed, with its traceback on stderr."""
    try:
        return bool(check(value))
    except Exception:
        traceback.print_exc()
        return False


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _setup(runner: Runner, cls, seed: int):
    """Import time in fresh interpreters plus the time to build the seeded inputs."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = runner.launcher.run([sys.executable, "-c", IMPORT_PROBE], runner.env)
        runner.record("setup.import", done.returncode == 0, done.stderr.decode(errors="replace"))
        if done.returncode == 0:
            imports.append(float(done.stdout))
    builds, prints = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed)
        builds.append(time.perf_counter() - start)
        prints.add(workload.fingerprint())
    runner.record("setup.same_inputs", len(prints) == 1)
    return workload, _median(imports) + _median(builds)


def _untraced(runner: Runner, workload, seconds: float) -> tuple[dict, list]:
    null = Tracer(enabled=False)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        cli, outputs = runner.cli(workload)
        lib = runner.ops(workload.library_ops(outputs), null, "lib.")
        passes.append({"cli": cli, "lib": lib})
        if time.perf_counter() >= deadline:
            break
    # Means over passes, not medians: on a shared 2-vCPU VM the CPU speed
    # drifts over tens of seconds, and averaging every pass of a run tracks
    # that drift best (over ten seeds there, the quartile spread of library_s
    # on cells was 3.5% with means and 7-10% with medians).  Medians are taken
    # across runs.
    cli_s = statistics.mean(sum(s["seconds"] for s in p["cli"].values()) for p in passes)
    library_s = statistics.mean(sum(p["lib"].values()) for p in passes)
    metrics = {
        "cli_s": cli_s,
        "library_s": library_s,
        "wall_s": cli_s + library_s,
        "cli_peak_rss_mb": max(s["peak_rss_mb"] for p in passes for s in p["cli"].values()),
    }
    return metrics, passes


def _trace_iteration(runner: Runner, workload, traced_first: bool):
    """One pass in which each CLI verb is replayed in-process right after its
    child ran, once untraced and once traced, so that CLI and replay times are
    taken close together; then the library and anatomy operations run on each
    replay's outputs.  Returns the CLI samples, the tracer, and traced minus
    untraced replay seconds."""
    from workloads import Op

    traced, plain = Tracer(), Tracer(enabled=False)
    # Alternate which side goes first, so neither always meets the heap the
    # other one left behind.
    sides = (traced, plain) if traced_first else (plain, traced)
    states = {t: {} for t in sides}
    outputs = {t: {} for t in sides}
    replays = {t: workload.replay_ops(states[t]) for t in sides}
    seconds = dict.fromkeys(sides, 0.0)

    def keep(t, name):
        def run(tr):
            outputs[t][name] = replays[t][name](tr)
            return hashlib.sha256(outputs[t][name]).hexdigest()
        return run

    cli = {}
    for op in workload.cli_ops():
        cli[op.name], stdout = runner.cli_op(op)
        digest = hashlib.sha256(stdout).hexdigest()
        del stdout
        for t in sides:
            verb = Op(op.name, keep(t, op.name), digest.__eq__)
            seconds[t] += sum(runner.ops([verb], t, "cli.").values())
    for t in sides:
        gc.collect()
        seconds[t] += sum(runner.ops(workload.library_ops(outputs[t]), t, "lib.").values())
        seconds[t] += sum(runner.ops(workload.anatomy_ops(states[t]), t, "").values())
        outputs[t].clear()
        states[t].clear()
    return cli, traced, seconds[traced] - seconds[plain]


def _library_seconds(spans) -> dict[str, float]:
    """Per replayed verb, the time inside its library calls: the children of
    its ``cli.<verb>`` span, less the rendering the CLI does itself."""
    verbs = {s.id: s.name[len("cli."):] for s in spans if s.parent is None and s.name.startswith("cli.")}
    out = dict.fromkeys(verbs.values(), 0.0)
    for s in spans:
        if s.parent in verbs and not s.name.startswith("cli."):
            out[verbs[s.parent]] += s.seconds
    return out


def _traced(runner: Runner, workload, seconds: float) -> tuple[dict, list, list]:
    iterations, spans = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        cli, tracer, overhead = _trace_iteration(runner, workload, len(iterations) % 2 == 1)
        spans.append(tracer.spans)
        iterations.append({
            "cli": cli,
            "library_calls": _library_seconds(tracer.spans),
            "trace_overhead_s": overhead,
            "totals": totals(tracer.spans),
        })
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    for name, _, _ in SPANS:
        metrics[f"{name}.s"] = _median([it["totals"].get(name, (0.0, 0, 0))[0] for it in iterations])
        metrics[f"{name}.items"] = _median([it["totals"].get(name, (0.0, 0, 0))[2] for it in iterations])
    for verb in VERBS:
        ran = [it for it in iterations if verb in it["cli"]]
        metrics[f"cli.{verb}.wall_s"] = _median([it["cli"][verb]["seconds"] for it in ran])
        metrics[f"cli.{verb}.overhead_s"] = _median(
            [it["cli"][verb]["seconds"] - it["library_calls"][verb] for it in ran]
        )
        metrics[f"cli.{verb}.stdout_bytes"] = max(
            (it["cli"][verb]["stdout_bytes"] for it in ran), default=0
        )
        metrics[f"cli.{verb}.peak_rss_mb"] = max(
            (it["cli"][verb]["peak_rss_mb"] for it in ran), default=0.0
        )
    passed = sum(it["totals"].get("closure_ops.check_axioms.pass", (0, 0, 0))[1] for it in iterations)
    failed = sum(it["totals"].get("closure_ops.check_axioms.fail", (0, 0, 0))[1] for it in iterations)
    metrics["closure_ops.check_axioms.pass_share"] = passed / (passed + failed) if passed + failed else 0.0
    metrics["trace.overhead_s"] = _median([it["trace_overhead_s"] for it in iterations])
    return metrics, iterations, spans


def _budgets(runner: Runner) -> dict[str, float]:
    """Time the calls each budgeted acceptance criterion times, against its budget."""
    from workloads import BUDGET_OPS

    metrics = {}
    for criterion, (repeats, run, check) in BUDGET_OPS.items():
        samples, ok = [], True
        for _ in range(repeats):
            start = time.perf_counter()
            value = run()
            samples.append(time.perf_counter() - start)
            ok = ok and _judge(check, value)
        runner.record(f"budget.{criterion}", ok)
        metrics[f"budget.{criterion}.s"] = _median(samples)
        metrics[f"budget.{criterion}.share"] = metrics[f"budget.{criterion}.s"] / BUDGETS[criterion]
    return metrics


def _units() -> dict[str, str]:
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, _, _ in per_layer()})
    return units


def _write(name: str, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "freqmimic" / "__init__.py").is_file():
        print(f"error: no freqmimic package under {SRC}", file=sys.stderr)
        return 2
    # Fork the launcher before this process grows; see launcher.py.
    launcher = Launcher()
    try:
        return _run(args, Runner(launcher))
    finally:
        launcher.close()


def _run(args, runner: Runner) -> int:
    sys.path.insert(0, str(SRC))
    import freqmimic

    if Path(freqmimic.__file__).resolve().parent != SRC / "freqmimic":
        print(f"error: imported freqmimic from {freqmimic.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }
    workload, setup_s = _setup(runner, WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, samples, spans = _traced(runner, workload, args.seconds)
        metrics.update(_budgets(runner))
        _write(f"spans-{args.workload}-seed{args.seed}.json",
               [as_records(pass_spans) for pass_spans in spans])
    else:
        metrics, samples = _untraced(runner, workload, args.seconds)
        metrics["setup_s"] = setup_s

    units = _units()
    environment["bench_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(environment))
    print(f"passes: {len(samples)}  attempted: {runner.attempted}  failed: {runner.failed}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {"environment": environment, "metrics": metrics, "samples": samples})
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
