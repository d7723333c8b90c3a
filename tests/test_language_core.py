import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freqmimic.language_core import (
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


def test_statement_rendering():
    assert str(source_statement()) == "G"
    assert str(event(3)) == "E_3"
    assert str(non_event(3)) == "E'_3"


def test_event_and_non_event_same_label_are_distinct():
    assert event(4) != non_event(4)
    assert len({event(4), non_event(4), event(4)}) == 2


def test_statement_validation():
    with pytest.raises(ValueError):
        Statement(StatementKind.SOURCE, 1)
    with pytest.raises(ValueError):
        Statement(StatementKind.EVENT)
    with pytest.raises(ValueError):
        Statement(StatementKind.EVENT, 0)
    with pytest.raises(ValueError):
        Statement(StatementKind.NON_EVENT, -2)
    for label in (True, False):
        with pytest.raises(ValueError, match="statement labels are positive integers"):
            Statement(StatementKind.EVENT, label)


def test_statement_sort_order():
    jumbled = [non_event(2), event(1), source_statement(), non_event(1), event(2)]
    ordered = sorted(jumbled, key=statement_key)
    assert [str(s) for s in ordered] == ["G", "E_1", "E'_1", "E_2", "E'_2"]


def test_tick_render_small():
    assert tick_render(1) == "|"
    assert tick_render(3) == "|||"


def test_tick_render_rejects_bad_labels():
    with pytest.raises(ValueError):
        tick_render(0)
    with pytest.raises(ValueError):
        tick_render(-1)
    with pytest.raises(ValueError, match="tick labels are positive integers"):
        tick_render(True)


@given(st.integers(min_value=1, max_value=10_000))
def test_tick_render_length(n):
    rendered = tick_render(n)
    assert len(rendered) == n
    assert set(rendered) == {"|"}


def test_language_requires_statements():
    with pytest.raises(ValueError):
        Language(frozenset())


def test_language_allows_at_most_one_source():
    lang = Language(frozenset([source_statement(), event(1), source_statement()]))
    assert len(lang) == 2  # duplicates collapse, still one source
    assert lang.source == source_statement()


def test_language_without_source():
    lang = Language(frozenset([event(1), non_event(1)]))
    assert lang.source is None
    assert event(1) in lang
    assert source_statement() not in lang


def test_prefix_language_order():
    assert prefix_language(1).statements == frozenset({source_statement()})
    four = prefix_language(4)
    assert four.statements == frozenset(
        {source_statement(), event(1), non_event(1), event(2)}
    )
    with pytest.raises(ValueError):
        prefix_language(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_statement_hash_is_the_field_tuple_hash(label):
    # Set iteration order, and with it every rendered operator, depends on it.
    for s in (event(label), non_event(label), source_statement()):
        assert hash(s) == hash((s.kind, s.label))


def test_statement_pickles_without_its_cached_hash():
    s = non_event(7)
    payload = pickle.dumps(s)
    assert b"_hash" not in payload
    back = pickle.loads(payload)
    assert back == s and hash(back) == hash(s) and {back} == {s}
