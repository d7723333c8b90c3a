"""Differential tests: the bitmask axiom checker against brute force.

The oracle below is the original exhaustive checker, kept verbatim: three
separate scans over the power set (extensive/idempotent, monotone by
superset enumeration, finitary by submask unions), O(3^n) in the carrier
size.  ``lub_extensional`` is checked against the original frozenset
fixpoint, ``family_reports`` against tabulating each family operator and
checking it, and ``monotonicity_implied`` against the original self-map
enumeration.  ``extensionalize`` and ``extensionalize_product``, which
tabulate on masks, are checked against the original per-subset tabulation:
equal tables with the same key order.  ``_axiom_report``, which packs each
table one mask per 16-bit lane, is checked against the scalar meet loop it
replaced.  Every report, counterexample included, must match.
"""

import functools
import itertools
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqmimic import closure_ops
from freqmimic.closure_ops import (
    MAX_CARRIER,
    AxiomReport,
    CapacityError,
    ExtensionalOperator,
    SourceConditionalOperator,
    all_subsets,
    apply,
    check_axioms,
    extensionalize,
    extensionalize_product,
    family_reports,
    lub_extensional,
    monotonicity_implied,
    product_apply,
    render_element,
)
from freqmimic.language_core import Language, event, non_event, prefix_language, source_statement
from freqmimic.language_core import statement_key


class _MaskView:
    """Bitmask view of an extensional table for fast exhaustive scans."""

    def __init__(self, ext: ExtensionalOperator):
        self.elements = sorted(ext.carrier, key=render_element)
        self.n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.full = (1 << self.n) - 1
        table = [0] * (1 << self.n)
        for key, value in ext.table.items():
            k = 0
            for e in key:
                k |= 1 << index[e]
            v = 0
            for e in value:
                v |= 1 << index[e]
            table[k] = v
        self.table = table
        # size-then-rendering order; elements are pre-sorted by rendering,
        # so comparing ascending bit-position tuples matches it
        self.masks = sorted(
            range(1 << self.n), key=lambda m: (bin(m).count("1"), _bit_positions(m))
        )
        self.key = lambda m: (bin(m).count("1"), _bit_positions(m))

    def unmask(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bit_positions(mask))


def _bit_positions(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def oracle_check_axioms(ext: ExtensionalOperator) -> AxiomReport:
    """Exhaustively check the closure axioms over the whole power set."""
    view = _MaskView(ext)
    table = view.table

    ext_ok = True
    ext_witness = None
    for mask in view.masks:
        image = table[mask]
        if mask & ~image or table[image] != image:
            ext_ok = False
            ext_witness = (view.unmask(mask),)
            break

    mono_ok = True
    mono_witness = None
    for mask in view.masks:
        image = table[mask]
        rest = view.full & ~mask
        violated = any(image & ~table[mask | s] for s in _submasks(rest))
        if violated:
            supersets = sorted((mask | s for s in _submasks(rest)), key=view.key)
            bad = next(z for z in supersets if image & ~table[z])
            mono_ok = False
            mono_witness = (view.unmask(mask), view.unmask(bad))
            break

    fin_ok = True
    fin_witness = None
    for mask in view.masks:
        union = 0
        for sub in _submasks(mask):
            union |= table[sub]
        if union != table[mask]:
            fin_ok = False
            fin_witness = (view.unmask(mask),)
            break

    counterexample = ext_witness or mono_witness or fin_witness
    return AxiomReport(ext_ok, mono_ok, fin_ok, counterexample)


def oracle_lub_extensional(e1: ExtensionalOperator, e2: ExtensionalOperator) -> ExtensionalOperator:
    """Least upper bound of two closures by alternating-image fixpoints."""
    if e1.carrier != e2.carrier:
        raise ValueError("operators must share a carrier")
    for e in (e1, e2):
        report = oracle_check_axioms(e)
        if not (report.extensive_idempotent and report.monotone):
            raise ValueError("join requires extensive, idempotent, monotone inputs")
    table = {}
    for subset in oracle_all_subsets(e1.carrier):
        current = subset
        for _ in range(len(e1.carrier) + 1):
            advanced = e1.table[e2.table[current]]
            if advanced == current:
                break
            current = advanced
        table[subset] = current
    return ExtensionalOperator(e1.carrier, table)


def oracle_all_subsets(elements) -> list[frozenset]:
    """All subsets ordered by size, then lexicographically by rendering."""
    ordered = sorted(elements, key=render_element)
    out: list[frozenset] = []
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            out.append(frozenset(combo))
    return out


def enumerate_self_maps(language: Language) -> Iterator[ExtensionalOperator]:
    """Every total map on the power set of a tiny language, tabulated."""
    carrier = frozenset(language.statements)
    if len(carrier) > 2:
        raise CapacityError("self-map enumeration is limited to 2 statements")
    subsets = all_subsets(carrier)
    for images in itertools.product(subsets, repeat=len(subsets)):
        yield ExtensionalOperator(carrier, dict(zip(subsets, images)))


def oracle_monotonicity_implied(language: Language) -> bool:
    for candidate in enumerate_self_maps(language):
        report = check_axioms(candidate)
        if report.extensive_idempotent and report.finitary and not report.monotone:
            return False
    return True


# Strategies build tables as masks over the carrier sorted by rendering,
# then convert them to frozenset tables.


def _operator(n: int, table: list[int]) -> ExtensionalOperator:
    elements = sorted(prefix_language(n).statements, key=render_element)

    def unmask(mask):
        return frozenset(e for i, e in enumerate(elements) if mask >> i & 1)

    return ExtensionalOperator(
        frozenset(elements), {unmask(m): unmask(v) for m, v in enumerate(table)}
    )


def _closure_table(size: int, family: set[int]) -> list[int]:
    """Smallest member of ``family`` above each mask; the full mask is added."""
    full = (1 << size) - 1
    closed = family | {full}
    table = []
    for mask in range(1 << size):
        image = full
        for c in closed:
            if c & mask == mask:
                image &= c
        table.append(image)
    return table


@st.composite
def _random_tables(draw):
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    return n, draw(st.lists(st.integers(0, full), min_size=1 << n, max_size=1 << n))


@st.composite
def _extensive_tables(draw):
    n, table = draw(_random_tables())
    return n, [m | x for m, x in enumerate(table)]


@st.composite
def _closures(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 6))
    family = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
    return n, _closure_table(n, family)


@st.composite
def _planted_violations(draw):
    n, table = draw(_closures())
    full = (1 << n) - 1
    if draw(st.booleans()):
        # drop one premise from a non-empty subset's image
        y = draw(st.integers(1, full))
        bit = draw(st.sampled_from([1 << i for i in range(n) if y >> i & 1]))
        table[y] &= ~bit
    else:
        # make a subset's image leave the image of one of its supersets
        pairs = [
            (y, z)
            for z in range(full + 1)
            if table[z] != full
            for y in range(full + 1)
            if y & z == y != z
        ]
        if pairs:
            y, z = draw(st.sampled_from(pairs))
            outside = full & ~table[z]
            table[y] |= 1 << draw(
                st.sampled_from([i for i in range(n) if outside >> i & 1])
            )
    return n, table


_TABLES = st.one_of(_random_tables(), _extensive_tables(), _closures(), _planted_violations())


@settings(max_examples=300, deadline=None)
@given(_TABLES)
def test_check_axioms_matches_oracle(case):
    ext = _operator(*case)
    assert check_axioms(ext) == oracle_check_axioms(ext)


def test_all_subsets_matches_oracle():
    G = source_statement()
    carriers = [prefix_language(size).statements for size in range(1, 8)]
    carriers.append({(G, event(1)), (G, non_event(1)), (event(2), G)})
    for carrier in carriers:
        assert all_subsets(carrier) == oracle_all_subsets(carrier)


def test_plain_set_images_match_oracle():
    # the table type accepts mutable set images; the checker must too
    carrier = prefix_language(3).statements
    for ext in (_operator(3, _closure_table(3, {1, 3})), _operator(3, [0] * 8)):
        loose = ExtensionalOperator(carrier, {k: set(v) for k, v in ext.table.items()})
        assert check_axioms(loose) == oracle_check_axioms(ext)


def test_all_two_statement_self_maps_match_oracle():
    maps = list(enumerate_self_maps(prefix_language(2)))
    assert len(maps) == 256
    for ext in maps:
        assert check_axioms(ext) == oracle_check_axioms(ext)


def test_family_and_product_operators_match_oracle():
    G = source_statement()
    for size in range(1, 6):
        language = prefix_language(size)
        for attachments in all_subsets(language.statements):
            ext = extensionalize(SourceConditionalOperator(attachments, G), language)
            assert check_axioms(ext) == oracle_check_axioms(ext)
    language = prefix_language(3)
    ops = [
        SourceConditionalOperator(frozenset({event(1)}), G),
        SourceConditionalOperator(frozenset({non_event(1)}), G),
    ]
    product = extensionalize_product(ops, [language, language])
    assert check_axioms(product) == oracle_check_axioms(product)


def _tabulated_family_reports(size):
    G = source_statement()
    return [
        (s, x, check_axioms(extensionalize(SourceConditionalOperator(x, G), lang)))
        for s in range(1, size + 1)
        for lang in [prefix_language(s)]
        for x in all_subsets(lang.statements)
    ]


def test_family_reports_match_tabulated_operators():
    for size in range(1, 8):
        expected = _tabulated_family_reports(size)
        assert len(expected) == 2 ** (size + 1) - 2
        assert list(family_reports(size)) == expected


def test_family_reports_check_the_tabulated_tables(monkeypatch):
    # every family operator passes, so compare what the checker is fed
    from freqmimic import closure_ops

    seen = []
    real = closure_ops._axiom_report

    def recording(subsets, order, table):
        seen.append((subsets, order, list(table)))
        return real(subsets, order, table)

    monkeypatch.setattr(closure_ops, "_axiom_report", recording)
    _tabulated_family_reports(5)
    tabulated, seen[:] = seen[:], []
    list(family_reports(5))
    assert seen == tabulated


def test_family_reports_check_size_when_called():
    with pytest.raises(ValueError, match="^language size must be positive$"):
        family_reports(0)
    message = f"^language size {MAX_CARRIER + 1} exceeds the limit of {MAX_CARRIER}$"
    with pytest.raises(CapacityError, match=message):
        family_reports(MAX_CARRIER + 1)


def test_monotonicity_implied_matches_self_map_oracle():
    for size in (1, 2):
        language = prefix_language(size)
        assert monotonicity_implied(language) == oracle_monotonicity_implied(language)
    with pytest.raises(CapacityError, match="limited to 2 statements"):
        monotonicity_implied(prefix_language(3))


@st.composite
def _closure_pairs(draw):
    n = draw(st.integers(1, 6))
    _, t1 = draw(_closures(n))
    _, t2 = draw(_closures(n))
    return _operator(n, t1), _operator(n, t2)


@settings(deadline=None)
@given(_closure_pairs())
def test_lub_matches_oracle(pair):
    e1, e2 = pair
    assert lub_extensional(e1, e2).table == oracle_lub_extensional(e1, e2).table


def oracle_axiom_report(subsets, order, table) -> AxiomReport:
    """``_axiom_report`` as a scalar scan: a Python meet loop of s * 2**s steps."""
    broken = next((y for y in order if y & ~table[y] or table[table[y]] != table[y]), None)
    # meet[y] is the intersection of the images of every superset of y;
    # descending order finishes each y | b before y reads it
    bits = [1 << i for i in range(len(table).bit_length() - 1)]
    meet = table[:]
    for y in range(len(table) - 1, -1, -1):
        for b in bits:
            if not y & b:
                meet[y] &= meet[y | b]
    bad = next((y for y in order if table[y] & ~meet[y]), None)
    if broken is not None:
        counterexample = (subsets[broken],)
    elif bad is not None:
        z = next(z for z in order if z & bad == bad and table[bad] & ~table[z])
        counterexample = (subsets[bad], subsets[z])
    else:
        counterexample = None
    return AxiomReport(broken is None, bad is None, bad is None, counterexample)


@functools.cache
def _carrier(n: int) -> tuple[list[frozenset], list[int]]:
    """``_power_set`` of an ``n``-statement language; carrier 0 is empty."""
    return closure_ops._power_set(prefix_language(n).statements if n else ())


def _assert_report_matches_oracle(n: int, table: list[int]) -> AxiomReport:
    subsets, order = _carrier(n)
    report = closure_ops._axiom_report(subsets, order, table)
    assert report == oracle_axiom_report(subsets, order, table)
    return report


def _gather(table: list[int]) -> list[int]:
    return [table[image] for image in table]


def _bits(mask: int) -> list[int]:
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _fixpoint_table(draw, n: int, closed: set[int]) -> list[int]:
    """Each closed mask to itself, every other mask to some closed mask above it."""
    closed = closed | {(1 << n) - 1}
    above = [sorted(c for c in closed if c & y == y) for y in range(1 << n)]
    return [y if y in closed else draw(st.sampled_from(above[y])) for y in range(1 << n)]


@st.composite
def _failing_extensive(draw):
    n, table = draw(_closures(draw(st.integers(1, 7))))
    y = draw(st.integers(1, (1 << n) - 1))
    table[y] &= ~draw(st.sampled_from(_bits(y)))
    return n, table


@st.composite
def _failing_idempotent(draw):
    # y, plus base, plus r[j] for every j in y: extensive and monotone
    n = draw(st.integers(2, 7))
    full = (1 << n) - 1
    base, *r = draw(st.lists(st.integers(0, full), min_size=n + 1, max_size=n + 1))
    table = []
    for y in range(full + 1):
        image = y | base
        for j in range(n):
            if y >> j & 1:
                image |= r[j]
        table.append(image)
    return n, table


@st.composite
def _failing_monotone(draw):
    # extensive and idempotent; y below the closed c goes to the full mask
    n = draw(st.integers(2, 7))
    full = (1 << n) - 1
    c = draw(st.integers(1, full - 1))
    y = c & draw(st.integers(0, full)) & ~draw(st.sampled_from(_bits(c)))
    closed = draw(st.sets(st.integers(0, full), max_size=12)) - {y} | {c}
    table = _fixpoint_table(draw, n, closed)
    table[y] = full
    return n, table


@st.composite
def _extensive_idempotent(draw):
    n = draw(st.integers(0, 7))
    return n, _fixpoint_table(draw, n, draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12)))


# the expected (extensive_idempotent, monotone) of each kind; None is either
_KINDS = {
    "pass": (st.integers(0, 7).flatmap(_closures), (True, True)),
    "extensive": (_failing_extensive(), (False, None)),
    "idempotent": (_failing_idempotent().filter(lambda c: _gather(c[1]) != c[1]), (False, True)),
    "monotone": (_failing_monotone(), (True, False)),
    "fixpoints": (_extensive_idempotent(), (True, None)),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _KINDS[kind][0])))
def test_packed_report_matches_scalar_oracle(case):
    kind, (n, table) = case
    report = _assert_report_matches_oracle(n, table)
    for verdict, expected in zip((report.extensive_idempotent, report.monotone), _KINDS[kind][1]):
        assert expected is None or verdict == expected


def test_carrier_zero_is_one_lane():
    assert _assert_report_matches_oracle(0, [0]) == AxiomReport(True, True, True, None)


_FULL = (1 << MAX_CARRIER) - 1
_HIGH = 1 << (MAX_CARRIER - 1)  # 0x800, the top bit of a lane's image


@pytest.mark.parametrize("table, verdicts", [
    ([y | _HIGH for y in range(_FULL + 1)], (True, True)),
    ([_FULL] * (_FULL + 1), (True, True)),
    ([y | (y << 1 & _FULL) for y in range(_FULL + 1)], (False, True)),
    (list(range(_FULL)) + [_FULL & ~_HIGH], (False, False)),  # the last lane breaks both
    ([_HIGH] * (_FULL + 1), (False, True)),
])
def test_lane_edge_tables_match_scalar_oracle(table, verdicts):
    report = _assert_report_matches_oracle(MAX_CARRIER, table)
    assert (report.extensive_idempotent, report.monotone) == verdicts


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(_HIGH, _FULL), max_size=6), st.integers(0, _HIGH - 2))
def test_high_image_tables_match_scalar_oracle(family, y):
    # closures whose every image holds 0x800, then y (without it) moved up to it
    table = _closure_table(MAX_CARRIER, family)
    assert _assert_report_matches_oracle(MAX_CARRIER, table).all_ok
    identity = list(range(_FULL + 1))
    identity[y] |= _HIGH
    report = _assert_report_matches_oracle(MAX_CARRIER, identity)
    assert (report.extensive_idempotent, report.monotone) == (True, False)


# The per-subset tabulation, kept verbatim as the oracle of the mask-native one.


def oracle_tabulate(carrier: frozenset, image, name: str, unit: str) -> ExtensionalOperator:
    """Tabulate ``image`` over every subset of a carrier within the cap."""
    if len(carrier) > MAX_CARRIER:
        raise CapacityError(f"{name} has {len(carrier)} {unit}, limit is {MAX_CARRIER}")
    return ExtensionalOperator(carrier, {s: image(s) for s in all_subsets(carrier)})


def oracle_extensionalize(op: SourceConditionalOperator, language: Language) -> ExtensionalOperator:
    """Tabulate a family operator over the full power set of a language."""
    carrier = frozenset(language.statements)
    if not (op.attachments | {op.source}) <= carrier:
        raise ValueError("operator statements must belong to the language")
    return oracle_tabulate(carrier, lambda subset: apply(op, subset), "language", "statements")


def oracle_extensionalize_product(ops, languages) -> ExtensionalOperator:
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
    return oracle_tabulate(carrier, lambda s: product_apply(ops, s), "tuple carrier", "elements")


_SHAPES = [
    sizes
    for k in (1, 2, 3)
    for sizes in itertools.product(range(1, 5), repeat=k)
    if functools.reduce(int.__mul__, sizes) <= MAX_CARRIER
]


@st.composite
def _factor(draw, size: int) -> tuple[SourceConditionalOperator, Language]:
    """A family operator on ``prefix_language(size)``: no attachments, some, or some with G."""
    language = prefix_language(size)
    statements = sorted(language.statements, key=statement_key)
    kind = draw(st.sampled_from(["empty", "some", "with source"]))
    attachments = set() if kind == "empty" else draw(st.sets(st.sampled_from(statements)))
    if kind == "with source":
        attachments.add(source_statement())
    return SourceConditionalOperator(frozenset(attachments), source_statement()), language


def _assert_same_table(got: ExtensionalOperator, expected: ExtensionalOperator) -> None:
    assert got.carrier == expected.carrier
    assert got.table == expected.table
    assert list(got.table) == list(expected.table)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SHAPES).flatmap(lambda sizes: st.tuples(*map(_factor, sizes))))
def test_mask_tabulation_matches_per_subset_oracle(factors):
    ops, languages = zip(*factors)
    _assert_same_table(
        extensionalize_product(ops, languages), oracle_extensionalize_product(ops, languages)
    )
    if len(ops) == 1:
        _assert_same_table(
            extensionalize(ops[0], languages[0]), oracle_extensionalize(ops[0], languages[0])
        )


def test_tabulators_check_arguments_before_tabulating(monkeypatch):
    def no_tabulation(elements):
        raise AssertionError("tabulated")

    monkeypatch.setattr(closure_ops, "_power_set", no_tabulation)
    G = source_statement()
    language = prefix_language(4)
    identity = SourceConditionalOperator(frozenset(), G)
    foreign = SourceConditionalOperator(frozenset({event(MAX_CARRIER + 2)}), G)
    cases = [
        (lambda: extensionalize_product([identity] * 2, [language] * 2),
         CapacityError, "tuple carrier has 16 elements, limit is 12"),
        (lambda: extensionalize(identity, prefix_language(MAX_CARRIER + 1)),
         CapacityError, "language has 13 statements, limit is 12"),
        # membership is checked before size
        (lambda: extensionalize_product([foreign] * 2, [language] * 2),
         ValueError, "operator statements must belong to their language"),
        (lambda: extensionalize(foreign, prefix_language(MAX_CARRIER + 1)),
         ValueError, "operator statements must belong to the language"),
        (lambda: extensionalize(foreign, language),
         ValueError, "operator statements must belong to the language"),
        (lambda: extensionalize_product([], []),
         ValueError, "product needs at least one factor"),
        (lambda: extensionalize_product([identity], [language] * 2),
         ValueError, "one language per factor is required"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as raised:
            call()
        assert type(raised.value) is error and str(raised.value) == message


def test_size_order_is_kept_once_per_size_within_the_cap():
    elements = sorted(prefix_language(MAX_CARRIER + 1).statements, key=render_element)
    _, order = closure_ops._power_set(elements[:5])
    assert isinstance(order, tuple)
    assert closure_ops._power_set(elements[1:6])[1] is order
    kept = closure_ops._size_order.cache_info().currsize
    assert all_subsets(elements) == oracle_all_subsets(elements)  # 13 elements: over the cap
    assert closure_ops._size_order.cache_info().currsize == kept
