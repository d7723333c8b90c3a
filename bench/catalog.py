"""Every metric the benchmark reports, with the reason it is there.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` keeps the two in
step.  Each per-layer entry names the end-to-end metric and workload it
should move, so a change to one layer states in advance where its gain must
show.
"""

from __future__ import annotations

# (name, unit, bound): bound is the share of the parent's median by which the
# metric may worsen before a change counts as a regression.
# The time bounds are the largest allowed: on a shared 2-vCPU VM a fixed CPU
# loop's speed drifts by about 20% over tens of seconds, and one run cannot
# average that away.
END_TO_END = (
    ("cli_s", "s", 0.25),
    ("library_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cli_peak_rss_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
)

# CLI operation key -> workload that runs it.
VERBS = {
    "gen-seq.csv": "seq",
    "gen-seq.json": "seq",
    "gen-nonconv": "seq",
    "compare": "seq",
    "realize": "seq",
    "gen-dist.m3": "cells",
    "gen-dist.m10": "cells",
    "check-axioms.family": "axioms",
    "check-axioms.self-maps": "axioms",
}

# Library spans reported as ``<name>.s`` (self time) and ``<name>.items``:
# (span name, unit of items, what it should move).
SPANS = (
    ("freq_seq.canonical_prefix", "trials",
     "cli.gen-seq.csv.wall_s, cli.gen-seq.json.wall_s and cli_s on seq"),
    ("freq_seq.truncate_freeze", "trials", "cli.gen-seq.json.wall_s and cli_s on seq"),
    ("freq_seq.build_nonconvergent", "trials", "cli.gen-nonconv.wall_s and cli_s on seq"),
    ("freq_seq.sequence_csv", "bytes",
     "cli.gen-seq.csv.wall_s, cli.gen-nonconv.wall_s and cli_peak_rss_mb on seq"),
    ("freq_seq.sequence_from_csv", "bytes", "library_s on seq"),
    ("freq_seq.CumulativeSequence.validate", "trials", "cli_s and library_s on seq"),
    ("event_seq.to_binary", "trials", "cli.compare.wall_s and cli_s on seq"),
    ("event_seq.from_binary", "trials", "cli_s and library_s on seq"),
    ("event_seq.BinaryTrialSequence.validate", "trials",
     "cli.compare.wall_s and cli.realize.wall_s on seq"),
    ("event_seq.label_events", "trials", "cli.realize.wall_s on seq"),
    ("event_seq.realize_trace", "trials", "cli.realize.wall_s on seq"),
    ("stats_harness.bernoulli_prng", "trials", "cli.compare.wall_s and cli_s on seq"),
    ("stats_harness.frequency_test", "trials", "cli.compare.wall_s on seq"),
    ("stats_harness.runs_test", "trials", "cli.compare.wall_s on seq"),
    ("stats_harness.reports_csv", "bytes", "cli.compare.wall_s on seq"),
    ("stats_harness.reports_from_csv", "bytes", "library_s on seq"),
    ("stats_harness.chi_square_cells", "cells", "library_s and wall_s on cells"),
    ("cell_dist.build_cell_sequences.m3", "trials", "cli.gen-dist.m3.wall_s and cli_s on cells"),
    ("cell_dist.build_cell_sequences.m10", "trials",
     "cli.gen-dist.m10.wall_s and cli_s on cells"),
    ("cell_dist.cell_csv", "bytes",
     "cli.gen-dist.m3.wall_s, cli.gen-dist.m10.wall_s and cli_peak_rss_mb on cells"),
    ("cell_dist.validate_cell_table", "trials", "library_s and wall_s on cells"),
    ("cell_dist.discrepancy", "trials", "library_s and wall_s on cells"),
    ("cell_dist.trials_to_tuples", "trials", "library_s and wall_s on cells"),
    ("cell_dist.cell_table_from_csv", "bytes", "library_s on cells"),
    ("closure_ops.extensionalize", "subsets",
     "cli.check-axioms.family.wall_s and cli_s on axioms"),
    ("closure_ops.check_axioms.pass", "subsets",
     "cli.check-axioms.family.wall_s, cli_s and library_s on axioms"),
    ("closure_ops.check_axioms.fail", "subsets",
     "library_s on axioms; must not rise when check_axioms.pass falls"),
    ("closure_ops.lub_extensional", "subsets", "library_s and wall_s on axioms"),
    ("closure_ops.extensionalize_product", "subsets", "library_s and wall_s on axioms"),
    ("closure_ops.realize", "statements", "cli.realize.wall_s on seq"),
    ("language_core.prefix_language", "statements",
     "cli.check-axioms.family.wall_s on axioms"),
    ("language_core.Statement", "statements", "cli.realize.wall_s on seq"),
)

# Per CLI operation: (suffix, unit, better, what it should move).
CLI_METRICS = (
    ("wall_s", "s", "lower", "cli_s and wall_s on the verb's workload"),
    ("overhead_s", "s", "lower", "cli_s on the verb's workload"),
    ("stdout_bytes", "bytes", "lower", "nothing: stdout must stay byte-identical"),
    ("peak_rss_mb", "MB", "lower", "cli_peak_rss_mb on the verb's workload"),
)

# Time budgets pinned in tests/test_acceptance.py, in seconds.
BUDGETS = {"c01": 0.001, "c03": 5.0, "c04": 1.0, "c05": 1.0, "c08": 10.0, "c09": 1.0, "c11": 2.0}

OTHER = (
    ("closure_ops.check_axioms.pass_share", "ratio", "higher",
     "share of checked tables that pass: the part of check_axioms time on axioms that an "
     "all-pass fast path can reach"),
    ("trace.overhead_s", "s", "lower", "nothing: traced replay wall time minus untraced"),
)


def per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, what it should move) for every per-layer metric."""
    out = []
    for name, unit, moves in SPANS:
        out.append((f"{name}.s", "s", "lower", moves))
        out.append((f"{name}.items", unit, "higher", f"nothing: work done for {name}.s"))
    for verb in VERBS:
        for suffix, unit, better, moves in CLI_METRICS:
            out.append((f"cli.{verb}.{suffix}", unit, better, moves))
    out.extend(OTHER)
    for criterion, limit in BUDGETS.items():
        out.append((f"budget.{criterion}.s", "s", "lower",
                    f"nothing: time of criterion {criterion[1:]}'s calls, budget {limit} s"))
        out.append((f"budget.{criterion}.share", "ratio", "lower",
                    f"nothing: budget.{criterion}.s over its {limit} s budget"))
    return out
