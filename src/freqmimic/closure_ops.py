"""Closure operators over finite statement languages.

Two representations live here.  ``SourceConditionalOperator`` is the
symbolic family: it attaches a fixed statement set to any premise set
containing the source and leaves every other premise set alone.  For
brute-force work (axiom checking, lattice joins, finite products) any
operator can be tabulated into an ``ExtensionalOperator``, a total map on
the power set of a small carrier.  Carrier elements are statements, or
statement tuples for product operators.  Tabulation runs on masks: every
image is computed as a bitmask over the carrier's power set, and each key
and value is the power set's own frozenset, built once.  The axiom checks,
joins and the family sweep read tables as masks too.

Axiom vocabulary: an operator is a closure operator when it is extensive
(``Y`` is contained in its image), idempotent, bounded by the carrier,
monotone, and finitary (the image of ``Y`` is the union of the images of
the finite subsets of ``Y``).  On a finite carrier ``Y`` is one of its own
finite subsets, so ``C(Y)`` is that union exactly when every ``C(S)`` with
``S <= Y`` lies inside ``C(Y)``: finitary and monotone are one relation,
and ``check_axioms`` reports ``finitary`` equal to ``monotone``.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from operator import or_
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from .language_core import Language, Statement, StatementKind, prefix_language
from .language_core import source_statement, statement_key

MAX_CARRIER = 12


class CapacityError(ValueError):
    """Carrier too large to tabulate or enumerate exhaustively."""


def render_element(element: object) -> str:
    """Deterministic text for a carrier element (statement or tuple)."""
    if isinstance(element, tuple):
        return "(" + ",".join(render_element(e) for e in element) + ")"
    return str(element)


def _element_key(element: object):
    if isinstance(element, tuple):
        return tuple(_element_key(e) for e in element)
    return statement_key(element)


def render_statement_set(statements: AbstractSet) -> str:
    ordered = sorted(statements, key=_element_key)
    return "{" + ",".join(render_element(s) for s in ordered) + "}"


@dataclass(frozen=True)
class SourceConditionalOperator:
    """The operator C(X, {G}): adjoin X whenever G is among the premises."""

    attachments: frozenset[Statement]
    source: Statement

    def __post_init__(self) -> None:
        object.__setattr__(self, "attachments", frozenset(self.attachments))
        if self.source.kind is not StatementKind.SOURCE:
            raise ValueError("operator source must be a source statement")

    def __str__(self) -> str:
        return canonical_form(self)

    def __repr__(self) -> str:
        return str(self)


def canonical_form(op: SourceConditionalOperator) -> str:
    """Render as ``C({E_1,E'_2},{G})`` with label-ordered attachments."""
    return f"C({render_statement_set(op.attachments)},{{{op.source}}})"


def apply(op: SourceConditionalOperator, premises: AbstractSet[Statement]) -> frozenset[Statement]:
    premises = frozenset(premises)
    if op.source in premises:
        return premises | op.attachments
    return premises


def realize(op: SourceConditionalOperator, premises: AbstractSet[Statement]) -> frozenset[Statement]:
    """New conclusions only: the image of the premises minus the premises."""
    premises = frozenset(premises)
    return apply(op, premises) - premises


def join_family(
    op1: SourceConditionalOperator, op2: SourceConditionalOperator
) -> SourceConditionalOperator:
    """Least upper bound within the source-conditional family."""
    if op1.source != op2.source:
        raise ValueError("operators must share their source statement")
    return SourceConditionalOperator(op1.attachments | op2.attachments, op1.source)


@dataclass(frozen=True)
class ExtensionalOperator:
    """A total map from every subset of a finite carrier to a subset.

    The table is exhaustive by construction, which is what makes the
    brute-force axiom checks and lattice computations possible; carriers
    are capped at ``MAX_CARRIER`` elements.
    """

    carrier: frozenset
    table: Mapping[frozenset, frozenset]

    def __post_init__(self) -> None:
        carrier = frozenset(self.carrier)
        object.__setattr__(self, "carrier", carrier)
        if len(carrier) > MAX_CARRIER:
            raise CapacityError(
                f"carrier has {len(carrier)} elements, limit is {MAX_CARRIER}"
            )
        table = dict(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != 1 << len(carrier):
            raise ValueError("table must cover every subset of the carrier")
        for key, value in table.items():
            if not key <= carrier or not value <= carrier:
                raise ValueError("table entries must stay within the carrier")

    def __call__(self, subset: AbstractSet) -> frozenset:
        return self.table[frozenset(subset)]


def _power_set(elements: Iterable) -> tuple[list[frozenset], tuple[int, ...]]:
    """Subsets indexed by bitmask, and the masks in size-then-rendering order.

    Bit ``i`` stands for the ``i``-th element in rendering order.  Subsets
    are built by frozenset unions, which reuse the stored element hashes,
    so no element is hashed again.
    """
    ordered = sorted(elements, key=render_element)
    subsets = [frozenset()]
    for element in ordered:
        single = frozenset((element,))
        subsets += [s | single for s in subsets]
    # all_subsets is public and takes any size: only sizes within the cap are kept
    size = len(ordered)
    return subsets, (_size_order if size <= MAX_CARRIER else _size_order.__wrapped__)(size)


@functools.cache
def _size_order(size: int) -> tuple[int, ...]:
    """The masks of ``size`` bits by size, then by the positions of their bits."""
    bits = [1 << i for i in range(size)]
    return tuple(sum(c) for k in range(size + 1) for c in itertools.combinations(bits, k))


def all_subsets(elements: Iterable) -> list[frozenset]:
    """All subsets ordered by size, then lexicographically by rendering."""
    subsets, order = _power_set(elements)
    return [subsets[m] for m in order]


def _tabulate(
    carrier: frozenset, ops: Sequence[SourceConditionalOperator], coordinates, name: str, unit: str
) -> ExtensionalOperator:
    """Tabulate the coordinatewise image of ``ops`` over every subset of a carrier, on masks.

    ``coordinates(element)`` gives one statement per operator.  In factor
    ``k`` a statement stands for its cylinder, the mask of the elements whose
    coordinate ``k`` it is.  A subset's projection, built by doubling as in
    ``_power_set``, is the union of its coordinates' cylinders and maps to
    ``c | A if c & G else c``; intersecting the factors' images re-products them.
    """
    if len(carrier) > MAX_CARRIER:
        raise CapacityError(f"{name} has {len(carrier)} {unit}, limit is {MAX_CARRIER}")
    subsets, order = _power_set(carrier)
    coords = [coordinates(e) for e in sorted(carrier, key=render_element)]  # bit i: element i
    image = [-1] * len(subsets)
    for k, op in enumerate(ops):
        cylinder = {}
        for i, c in enumerate(coords):
            cylinder[c[k]] = cylinder.get(c[k], 0) | 1 << i
        projections = [0]
        for c in coords:
            bit = cylinder[c[k]]
            projections += [p | bit for p in projections]
        g, a = cylinder[op.source], sum(map(cylinder.get, op.attachments))  # disjoint cylinders
        image = [m & (p | a if p & g else p) for m, p in zip(image, projections)]
    return ExtensionalOperator(carrier, {subsets[m]: subsets[image[m]] for m in order})


def extensionalize(op: SourceConditionalOperator, language: Language) -> ExtensionalOperator:
    """Tabulate a family operator over the full power set of a language."""
    carrier = frozenset(language.statements)
    if not (op.attachments | {op.source}) <= carrier:
        raise ValueError("operator statements must belong to the language")
    return _tabulate(carrier, [op], lambda s: (s,), "language", "statements")


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts from an exhaustive closure-axiom check.

    ``counterexample`` is present exactly when some verdict is false and
    holds the first witnessing subset (or subset pair for monotonicity) in
    size-then-rendering order.  Finitary and monotone are equivalent on a
    finite carrier, so ``check_axioms`` reports ``finitary`` as ``monotone``.
    """

    extensive_idempotent: bool
    monotone: bool
    finitary: bool
    counterexample: tuple[frozenset, ...] | None

    @property
    def all_ok(self) -> bool:
        return self.extensive_idempotent and self.monotone and self.finitary


def _mask_tables(
    *exts: ExtensionalOperator,
) -> tuple[list[frozenset], tuple[int, ...], list[list[int]]]:
    """``_power_set`` of the shared carrier, and each table as a list of masks."""
    subsets, order = _power_set(exts[0].carrier)
    index = {s: m for m, s in enumerate(subsets)}
    # frozenset() returns a frozenset image as is and freezes a plain set
    return subsets, order, [[index[frozenset(ext.table[s])] for s in subsets] for ext in exts]


def check_axioms(ext: ExtensionalOperator) -> AxiomReport:
    """Exhaustively check the closure axioms over the whole power set."""
    subsets, order, (table,) = _mask_tables(ext)
    return _axiom_report(subsets, order, table)


def _packed(lanes: struct.Struct, values: Iterable[int]) -> int:
    """One int holding ``values[y]`` in bits ``16*y`` to ``16*y + 15``."""
    return int.from_bytes(lanes.pack(*values), "little")


@functools.cache
def _lanes(s: int) -> tuple[struct.Struct, int, tuple[int, ...]]:
    """``2**s`` 16-bit lanes, the packed identity, and per bit i ones in the lanes holding i."""
    lanes, masks = struct.Struct(f"<{1 << s}H"), range(1 << s)
    keep = ([0xFFFF * (y >> i & 1) for y in masks] for i in range(s))
    return lanes, _packed(lanes, masks), tuple(_packed(lanes, k) for k in keep)


def _axiom_report(
    subsets: list[frozenset], order: tuple[int, ...], table: list[int]
) -> AxiomReport:
    """Verdicts from the table packed one mask per 16-bit lane; witnesses scan ``order``."""
    lanes, ident, keep = _lanes(len(table).bit_length() - 1)
    packed = meet = _packed(lanes, table)
    # per bit i, each lane y without i takes in lane y + 2**i: all supersets of y
    for i, held in enumerate(keep):
        meet &= (meet >> (16 << i)) | held
    monotone = meet == packed  # meet lies inside table lane by lane
    if ident & ~packed or list(map(table.__getitem__, table)) != table:
        broken = next(y for y in order if y & ~table[y] or table[table[y]] != table[y])
        return AxiomReport(False, monotone, monotone, (subsets[broken],))
    if monotone:
        return AxiomReport(True, True, True, None)
    meets = lanes.unpack(meet.to_bytes(lanes.size, "little"))
    bad = next(y for y in order if table[y] & ~meets[y])
    z = next(z for z in order if z & bad == bad and table[bad] & ~table[z])
    return AxiomReport(True, False, False, (subsets[bad], subsets[z]))


def family_reports(size: int) -> Iterator[tuple[int, frozenset[Statement], AxiomReport]]:
    """``(s, X, report)`` for every ``C(X,{G})`` on ``prefix_language(s)``, s = 1..size, lazily.

    Sizes ascend and ``X`` follows ``all_subsets``; each report equals
    ``check_axioms(extensionalize(...))``, but each table is built as masks
    (``m | X`` when ``m`` holds ``G``, else ``m``).  ``size`` is checked here.
    """
    if size < 1:
        raise ValueError("language size must be positive")
    if size > MAX_CARRIER:
        raise CapacityError(f"language size {size} exceeds the limit of {MAX_CARRIER}")
    return _family_sweep(size)


def _family_sweep(size: int) -> Iterator[tuple[int, frozenset[Statement], AxiomReport]]:
    for s in range(1, size + 1):
        subsets, order = _power_set(prefix_language(s).statements)
        g = subsets.index(frozenset((source_statement(),)))  # G renders last: the top bit
        for a in order:
            table = [*range(g), *map(or_, range(g, 2 * g), itertools.repeat(a))]
            yield s, subsets[a], _axiom_report(subsets, order, table)


def monotonicity_implied(language: Language) -> bool:
    """True when every extensive, idempotent, finitary self-map is monotone.

    Exhaustive over all power-set self-maps, so the language is capped at
    two statements (256 maps); one statement gives 4 maps.
    """
    if len(language.statements) > 2:
        raise CapacityError("self-map enumeration is limited to 2 statements")
    subsets, order = _power_set(language.statements)
    tables = itertools.product(range(len(subsets)), repeat=len(subsets))
    reports = (_axiom_report(subsets, order, list(table)) for table in tables)
    return all(r.monotone for r in reports if r.extensive_idempotent and r.finitary)


def lub_extensional(e1: ExtensionalOperator, e2: ExtensionalOperator) -> ExtensionalOperator:
    """Least upper bound of two closures by alternating-image fixpoints.

    For each subset the iteration Z <- e1(e2(Z)) grows monotonically inside
    the carrier, so it stabilizes within ``|carrier|`` rounds at the least
    set closed under both operators.
    """
    if e1.carrier != e2.carrier:
        raise ValueError("operators must share a carrier")
    subsets, order, (t1, t2) = _mask_tables(e1, e2)
    for t in (t1, t2):
        report = _axiom_report(subsets, order, t)
        if not (report.extensive_idempotent and report.monotone):
            raise ValueError("join requires extensive, idempotent, monotone inputs")
    table = {}
    for mask in order:
        current = mask
        for _ in range(len(e1.carrier) + 1):
            advanced = t1[t2[current]]
            if advanced == current:
                break
            current = advanced
        table[subsets[mask]] = subsets[current]
    return ExtensionalOperator(e1.carrier, table)


def is_axiomless(ext: ExtensionalOperator) -> bool:
    """True when the operator proves nothing from no premises."""
    return ext.table[frozenset()] == frozenset()


def _coordinatewise(image, ops: Sequence, tuple_set: AbstractSet[tuple]) -> frozenset[tuple]:
    """Map each factor's projection through ``image(op, proj)``, re-product."""
    if not ops:
        raise ValueError("product needs at least one factor")
    tuples = frozenset(tuple_set)
    for item in tuples:
        if not isinstance(item, tuple) or len(item) != len(ops):
            raise ValueError(f"expected statement tuples of arity {len(ops)}")
    if not tuples:
        return frozenset()
    projections = [frozenset(t[k] for t in tuples) for k in range(len(ops))]
    return frozenset(itertools.product(*map(image, ops, projections)))


def product_apply(
    ops: Sequence[SourceConditionalOperator], tuple_set: AbstractSet[tuple]
) -> frozenset[tuple]:
    """Coordinatewise image: apply each factor to its projection, re-product."""
    return _coordinatewise(apply, ops, tuple_set)


def realize_product(
    ops: Sequence[SourceConditionalOperator], tuple_set: AbstractSet[tuple]
) -> frozenset[tuple]:
    """Coordinatewise realization: realize each projection, re-product."""
    return _coordinatewise(realize, ops, tuple_set)


def extensionalize_product(
    ops: Sequence[SourceConditionalOperator], languages: Sequence[Language]
) -> ExtensionalOperator:
    """Tabulate a product operator over the tuple carrier L1 x ... x Lm."""
    if not ops:
        raise ValueError("product needs at least one factor")
    if len(ops) != len(languages):
        raise ValueError("one language per factor is required")
    for op, language in zip(ops, languages):
        if not (op.attachments | {op.source}) <= language.statements:
            raise ValueError("operator statements must belong to their language")
    factors = [sorted(lang.statements, key=statement_key) for lang in languages]
    carrier = frozenset(itertools.product(*factors))
    return _tabulate(carrier, ops, tuple, "tuple carrier", "elements")
