"""report.dumps against json.dumps(indent=2, sort_keys=True), byte for byte."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.report import dumps


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


# non-ASCII text, control characters, quotes and backslashes
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) \
    | st.sampled_from(["", "\x00\x1f\x7f", "é中\U0001f600", '"\\/\n\t\r'])
_scalars = (st.none() | st.booleans() | _text
            | st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
            | st.sampled_from([0, 1, -1, True, False, 2**63, -(2**63) - 1]))


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_text, children, max_size=4))


_documents = st.recursive(_scalars, _containers, max_leaves=30)


@given(_documents)
@settings(max_examples=400, deadline=None)
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@given(st.recursive(_scalars | st.floats(), lambda c: _containers(c) | st.dictionaries(
    st.integers(-3, 3), c, max_size=3), max_leaves=20))
@settings(max_examples=200, deadline=None)
def test_values_it_hands_to_json_dumps_keep_their_indent(doc):
    # floats and dicts with int keys go through json.dumps at any depth
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, True, None, [[]], {"a": {}}, {"a": [[], {}, ()]},
    [True, 1, False, 0], {"b": 1, "a": True, "c": None},
    {"deep": [{"x": [1, [2, [3, {"y": ()}]]]}]}, -(10**50), 10**50,
])
def test_dumps_equals_json_dumps_on_edge_cases(doc):
    assert dumps(doc) == reference(doc)


def test_dumps_raises_where_json_dumps_raises():
    for bad in ({"a": object()}, [1, {2, 3}]):
        with pytest.raises(TypeError):
            reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)


def _live_documents():
    import conftest
    from weakhopf.cli import build_report_doc
    from weakhopf.duality import VerificationContext
    from weakhopf.instances import BUILTIN_NAMES, builtin_doc, parse_instance
    docs = [builtin_doc(name) for name in BUILTIN_NAMES]
    docs += [conftest.spurious_i2_doc(), conftest.half_unit_z2_doc(), conftest.m2_pair2_doc(),
             conftest.wrong_composition_pair3_doc(), conftest.missing_composition_z2_doc()]
    for doc in docs:
        ctx = VerificationContext(parse_instance(doc))
        report = build_report_doc(ctx, ctx.verify_all())
        yield report
        # the same report with its lists as tuples, as a caller may build it
        yield json.loads(json.dumps(report), object_hook=lambda d: {
            k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    yield from docs


def test_dumps_equals_json_dumps_on_report_documents():
    for doc in _live_documents():
        assert dumps(doc) == reference(doc)
