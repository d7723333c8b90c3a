"""Deterministic success sequences with prescribed limiting frequencies.

The package builds cumulative-success sequences whose running frequencies
track a rational probability exactly, derives labeled trial outcomes and
the closure operators that generate them, distributes trials over cells
with prescribed shares, and compares the designed streams against a seeded
reference generator with classical randomness tests.

Importing the package loads none of its modules; import each name from the
module that defines it: ``language_core`` (statements), ``closure_ops``
(operators), ``freq_seq`` (sequences), ``event_seq`` (outcomes),
``cell_dist`` (cells) or ``stats_harness`` (tests).
"""

__version__ = "0.1.0"
