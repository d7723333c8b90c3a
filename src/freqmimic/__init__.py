"""Deterministic success sequences with prescribed limiting frequencies.

The package builds cumulative-success sequences whose running frequencies
track a rational probability exactly, derives labeled trial outcomes and
the closure operators that generate them, distributes trials over cells
with prescribed shares, and compares the designed streams against a seeded
reference generator with classical randomness tests.
"""

from .language_core import (
    Language,
    Statement,
    StatementKind,
    event,
    non_event,
    prefix_language,
    source_statement,
    statement_key,
    tick_render,
)
from .closure_ops import (
    AxiomReport,
    CapacityError,
    ExtensionalOperator,
    SourceConditionalOperator,
    apply,
    canonical_form,
    check_axioms,
    extensionalize,
    extensionalize_product,
    is_axiomless,
    join_family,
    lub_extensional,
    monotonicity_implied,
    product_apply,
    realize,
    realize_product,
)
from .freq_seq import (
    CumulativeSequence,
    DeviationCheck,
    FormCheck,
    FrequencyPoint,
    backshift_variant,
    build_nonconvergent,
    canonical_prefix,
    check_cumulative_form,
    check_probability,
    count_phase_switches,
    frequency_points,
    max_deviation,
    parse_probability,
    truncate_freeze,
    variant_to_one,
    variant_to_zero,
)
from .event_seq import (
    BinaryTrialSequence,
    LabeledEventSequence,
    from_binary,
    label_events,
    realize_trace,
    to_binary,
    trace_operator,
)
from .cell_dist import (
    CellAssignment,
    CellTableReport,
    OneHotTrial,
    ProbabilityVector,
    build_cell_sequences,
    cell_operator_realization,
    discrepancy,
    parse_probability_vector,
    trials_to_tuples,
    validate_cell_table,
)
from .stats_harness import (
    PRNG_VERSION,
    TestReport,
    bernoulli_prng,
    chi_square_cells,
    compare,
    frequency_test,
    runs_test,
)

__version__ = "0.1.0"
