import random

import pytest

from freqmimic.closure_ops import (
    CapacityError,
    ExtensionalOperator,
    SourceConditionalOperator,
    all_subsets,
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
    render_statement_set,
)
from freqmimic.language_core import (
    event,
    non_event,
    prefix_language,
    source_statement,
)
from test_axiom_oracle import enumerate_self_maps

G = source_statement()


def identity_extensional(carrier):
    subsets = all_subsets(frozenset(carrier))
    return ExtensionalOperator(frozenset(carrier), {s: s for s in subsets})


def top_extensional(carrier):
    """The closure mapping every subset to the whole carrier."""
    carrier = frozenset(carrier)
    return ExtensionalOperator(carrier, {s: carrier for s in all_subsets(carrier)})


def render_table(ext):
    """Golden-file rendering: one ``{...} -> {...}`` line per subset."""
    lines = []
    for subset in all_subsets(ext.carrier):
        lines.append(
            f"{render_statement_set(subset)} -> {render_statement_set(ext.table[subset])}"
        )
    return "\n".join(lines)


def family(*attachments):
    return SourceConditionalOperator(frozenset(attachments), G)


def test_apply_attaches_when_source_present():
    op = family(event(1))
    assert apply(op, {G}) == {G, event(1)}
    assert apply(op, {G, non_event(2)}) == {G, non_event(2), event(1)}


def test_apply_is_identity_without_source():
    op = family(event(1))
    assert apply(op, {event(2)}) == {event(2)}
    assert apply(op, set()) == frozenset()


def test_apply_idempotent():
    op = family(event(1), non_event(2))
    once = apply(op, {G})
    assert apply(op, once) == once


def test_operator_requires_source_kind():
    with pytest.raises(ValueError):
        SourceConditionalOperator(frozenset(), event(1))


def test_realize_strips_premises():
    op = family(event(1))
    assert realize(op, {G}) == {event(1)}
    op2 = family(event(1), event(2))
    assert realize(op2, {G, event(1)}) == {event(2)}
    assert realize(op2, {event(3)}) == frozenset()


def test_realize_superset_invariance():
    op = family(event(1))
    assert realize(op, {G, event(99)}) == {event(1)}


def test_canonical_form():
    assert canonical_form(family(event(1), non_event(2))) == "C({E_1,E'_2},{G})"
    assert canonical_form(family()) == "C({},{G})"


def test_all_subsets_order():
    lang = prefix_language(2)  # G, E_1
    subsets = all_subsets(lang.statements)
    assert subsets == [
        frozenset(),
        frozenset({event(1)}),
        frozenset({G}),
        frozenset({event(1), G}),
    ]


def test_extensionalize_two_statement_table():
    # oracle: the four images written out by hand
    expected = {
        frozenset(): frozenset(),
        frozenset({event(1)}): frozenset({event(1)}),
        frozenset({G}): frozenset({G, event(1)}),
        frozenset({G, event(1)}): frozenset({G, event(1)}),
    }
    ext = extensionalize(family(event(1)), prefix_language(2))
    assert dict(ext.table) == expected


def test_render_table_golden():
    ext = extensionalize(family(event(1)), prefix_language(2))
    assert render_table(ext) == (
        "{} -> {}\n"
        "{E_1} -> {E_1}\n"
        "{G} -> {G,E_1}\n"
        "{G,E_1} -> {G,E_1}"
    )


def test_extensionalize_empty_attachments_is_identity():
    lang = prefix_language(3)
    assert extensionalize(family(), lang) == identity_extensional(lang.statements)


def test_extensionalize_rejects_large_language():
    with pytest.raises(CapacityError):
        extensionalize(family(), prefix_language(13))


def test_extensionalize_rejects_foreign_attachments():
    with pytest.raises(ValueError):
        extensionalize(family(event(9)), prefix_language(2))


def test_extensional_table_must_be_total():
    with pytest.raises(ValueError):
        ExtensionalOperator(frozenset({G}), {frozenset(): frozenset()})


def test_family_operators_pass_axioms():
    lang = prefix_language(4)
    for attachments in all_subsets(lang.statements):
        report = check_axioms(extensionalize(family(*attachments), lang))
        assert report.all_ok
        assert report.counterexample is None


def test_axiom_failure_not_extensive():
    carrier = prefix_language(2).statements
    empty = frozenset()
    ext = ExtensionalOperator(carrier, {s: empty for s in all_subsets(carrier)})
    report = check_axioms(ext)
    assert not report.extensive_idempotent
    # first failing subset in size-then-rendering order
    assert report.counterexample == (frozenset({event(1)}),)


def test_axiom_failure_not_monotone():
    # extensive and idempotent, but the empty set maps above {G}
    carrier = prefix_language(2).statements
    table = {
        frozenset(): frozenset({event(1)}),
        frozenset({event(1)}): frozenset({event(1)}),
        frozenset({G}): frozenset({G}),
        frozenset({G, event(1)}): frozenset({G, event(1)}),
    }
    report = check_axioms(ExtensionalOperator(carrier, table))
    assert report.extensive_idempotent
    assert not report.monotone
    assert not report.finitary
    assert report.counterexample == (frozenset(), frozenset({G}))


def test_identity_and_top_are_closures():
    carrier = prefix_language(3).statements
    assert check_axioms(identity_extensional(carrier)).all_ok
    assert check_axioms(top_extensional(carrier)).all_ok


def test_is_axiomless():
    lang = prefix_language(2)
    assert is_axiomless(extensionalize(family(event(1)), lang))
    assert not is_axiomless(top_extensional(lang.statements))


def test_enumerate_self_maps_counts():
    assert sum(1 for _ in enumerate_self_maps(prefix_language(1))) == 4
    assert sum(1 for _ in enumerate_self_maps(prefix_language(2))) == 256


def test_monotonicity_implied_small_languages():
    assert monotonicity_implied(prefix_language(1))
    assert monotonicity_implied(prefix_language(2))


def test_finitary_alone_forces_monotone_on_finite_carriers():
    # stronger than the implication above: Y is one of its own finite subsets
    for candidate in enumerate_self_maps(prefix_language(2)):
        report = check_axioms(candidate)
        if report.finitary:
            assert report.monotone


def test_monotonicity_enumeration_capacity():
    with pytest.raises(CapacityError):
        monotonicity_implied(prefix_language(3))


def test_join_family_unions_attachments():
    joined = join_family(family(event(1)), family(non_event(2)))
    assert joined.attachments == {event(1), non_event(2)}
    assert joined.source == G


def test_join_family_laws():
    a, b = family(event(1)), family(event(2), non_event(1))
    assert join_family(a, b) == join_family(b, a)
    assert join_family(a, a) == a
    c = family(non_event(3))
    assert join_family(join_family(a, b), c) == join_family(a, join_family(b, c))


def test_lub_matches_family_join_exhaustively():
    for size in (1, 2, 3):
        lang = prefix_language(size)
        choices = all_subsets(lang.statements)
        for x1 in choices:
            for x2 in choices:
                direct = extensionalize(join_family(family(*x1), family(*x2)), lang)
                brute = lub_extensional(
                    extensionalize(family(*x1), lang),
                    extensionalize(family(*x2), lang),
                )
                assert direct == brute


def test_lub_identity_with_top():
    carrier = prefix_language(2).statements
    top = top_extensional(carrier)
    assert lub_extensional(identity_extensional(carrier), top) == top


def test_lub_rejects_non_closure_inputs():
    carrier = prefix_language(2).statements
    empty = frozenset()
    broken = ExtensionalOperator(carrier, {s: empty for s in all_subsets(carrier)})
    with pytest.raises(ValueError):
        lub_extensional(broken, identity_extensional(carrier))


def test_lub_rejects_mismatched_carriers():
    a = identity_extensional(prefix_language(1).statements)
    b = identity_extensional(prefix_language(2).statements)
    with pytest.raises(ValueError):
        lub_extensional(a, b)


def _closure_operators_on(language):
    for candidate in enumerate_self_maps(language):
        report = check_axioms(candidate)
        if report.extensive_idempotent and report.monotone:
            yield candidate


def test_lub_is_least_common_upper_closure():
    # oracle: smallest superset closed under both operators, found by scan
    lang = prefix_language(2)
    closures = list(_closure_operators_on(lang))
    subsets = all_subsets(lang.statements)
    rng = random.Random(5)
    pairs = [(rng.choice(closures), rng.choice(closures)) for _ in range(40)]
    for e1, e2 in pairs:
        joined = lub_extensional(e1, e2)
        for y in subsets:
            want = min(
                (
                    w
                    for w in subsets
                    if y <= w and e1.table[w] == w and e2.table[w] == w
                ),
                key=len,
            )
            assert joined.table[y] == want


def test_product_apply_worked_example():
    ops = [family(event(1)), family(non_event(1))]
    result = product_apply(ops, {(G, G)})
    assert result == {
        (G, G),
        (G, non_event(1)),
        (event(1), G),
        (event(1), non_event(1)),
    }


def test_product_apply_unary_is_plain_apply():
    op = family(event(1))
    got = product_apply([op], {(G,), (event(2),)})
    assert got == {(s,) for s in apply(op, {G, event(2)})}


def test_product_apply_empty_input():
    ops = [family(event(1)), family(non_event(1))]
    assert product_apply(ops, set()) == frozenset()


def test_product_apply_rejects_arity_mismatch():
    ops = [family(event(1)), family(non_event(1))]
    with pytest.raises(ValueError):
        product_apply(ops, {(G,)})
    with pytest.raises(ValueError):
        product_apply([], set())


def test_realize_product_worked_example():
    ops = [family(event(1)), family(non_event(1))]
    assert realize_product(ops, {(G, G)}) == {(event(1), non_event(1))}


def test_realize_product_empty_attachment_collapses():
    ops = [family(), family(non_event(1))]
    assert realize_product(ops, {(G, G)}) == frozenset()


def test_realize_product_ignores_extra_premises_per_coordinate():
    # enlarging a projection with statements outside that factor's
    # attachments leaves the realized tuples unchanged
    ops = [family(event(1)), family(non_event(1))]
    base = realize_product(ops, {(G, G)})
    padded = realize_product(ops, {(G, G), (non_event(9), non_event(8))})
    assert padded == base == {(event(1), non_event(1))}


def test_extensionalized_product_is_closure_and_axiomless():
    lang = prefix_language(3)
    ops = [family(event(1)), family(non_event(1))]
    ext = extensionalize_product(ops, [lang, lang])
    assert len(ext.carrier) == 9
    assert check_axioms(ext).all_ok
    assert is_axiomless(ext)
    assert ext.table[frozenset()] == frozenset()


def test_extensionalize_product_capacity():
    lang = prefix_language(4)
    ops = [family(), family()]
    with pytest.raises(CapacityError):
        extensionalize_product(ops, [lang, lang])  # 16 tuples


def test_extensionalize_product_validates_languages():
    lang = prefix_language(2)
    with pytest.raises(ValueError):
        extensionalize_product([family(event(7)), family()], [lang, lang])
    with pytest.raises(ValueError):
        extensionalize_product([family()], [lang, lang])
