"""parse_instance against oracle.parse_instance, which checks one field or
row at a time, formats every error location up front and parses every
rational through Fraction.  On valid documents, on the schema breaks of
test_cli and on documents mutated at random, the two give the same
instance, key orders and scalar types included, or raise the same
exception with the same message."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (groupoid_doc, half_unit_z2_doc, m2_doc, missing_composition_z2_doc,
                      pair_groupoid, z4_regular_doc)
from test_cli import _schema_breaks
from weakhopf.exactmath import QQ
from weakhopf.groupoid import cyclic_group
from weakhopf.instances import BUILTIN_NAMES, builtin_doc, parse_instance

BASES = {
    **{name: (lambda name=name: builtin_doc(name)) for name in BUILTIN_NAMES},
    "pair2-k2": lambda: groupoid_doc(pair_groupoid(2), "pair2-k2", k=2),
    "m2-z2": lambda: m2_doc(cyclic_group(2), "m2-z2"),
    "half-unit-z2": half_unit_z2_doc,
    "z4-regular": z4_regular_doc,
    "missing-composition-z2": missing_composition_z2_doc,
    **{f"break-{case}": (lambda case=case: _schema_breaks()[case])
       for case, doc in _schema_breaks().items() if doc is not None},
}
FIELDS = [None, {"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3},
          {"kind": "prime", "p": 2**31 - 1}]
# coefficients read by int, by Fraction, or by neither, and JSON values
# that are no strings
COEFFICIENTS = ["1", "-1", "0", "-0", "007", "12345678901234567890", " 2", "2 ", "+3", "1_0",
                "٣", "²", "1/2", "-3/4", "0/5", "2/0", "1.5", "1e3", "", "-", "--1",
                "9" * 4300, "9" * 5000, "-" + "9" * 5000, 3, -2, 0, 2.5, True, None, [], {}]
RETYPED = [0, 1.5, None, True, "zz", "", [], ["zz"], [1, 2, 3], {}, {"zz": "1"}]


def outcome(parse, doc):
    """What parse makes of doc: the canonical document, the insertion
    orders of the tables later stages read and the type of each scalar,
    or the type and message of the exception it raises."""
    try:
        inst = parse(doc)
    except Exception as exc:
        return type(exc), str(exc)

    def element(el):
        return [(k, type(v), v) for k, v in el.items()]
    B, act, g = inst.algebra, inst.action, inst.groupoid
    return (inst.to_doc(), B.basis, element(B.unit),
            [(a, [(b, element(p)) for b, p in row.items()]) for a, row in B.right.items()],
            [(m, [(x, element(mx)) for x, mx in row.items()]) for m, row in act.rho.items()],
            [(x, list(col)) for x, col in act.by_label.items()],
            g.objects, g.morphisms, list(g.comp.items()))


def assert_parsers_agree(doc):
    assert outcome(parse_instance, copy.deepcopy(doc)) == outcome(oracle.parse_instance, doc)


@pytest.mark.parametrize("case", sorted(c for c, doc in _schema_breaks().items() if doc))
def test_schema_breaks_parse_as_in_the_oracle(case):
    assert_parsers_agree(_schema_breaks()[case])


@pytest.mark.parametrize("field", FIELDS[1:], ids=["Q", "GF2", "GF3", "GFp"])
@pytest.mark.parametrize("coefficient", COEFFICIENTS, ids=lambda c: repr(c)[:12])
def test_coefficient_edge_cases_parse_as_in_the_oracle(coefficient, field):
    # the same text in the unit, in a product and in an action entry
    for where in ("unit", "multiplication", "action"):
        doc = {**builtin_doc("i2-swap"), "field": field}
        if where == "unit":
            doc["algebra"]["unit"]["e2"] = coefficient
        elif where == "multiplication":
            doc["algebra"]["multiplication"][1][2]["e2"] = coefficient
        else:
            doc["action"][0][2]["e1"] = coefficient
        assert_parsers_agree(doc)


@pytest.mark.parametrize("text", [c for c in COEFFICIENTS if isinstance(c, str)] + [3, -2, 2.5])
def test_rational_parse_equals_fraction(text):
    def parsed(parse):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        return type(value), value
    assert parsed(QQ.parse) == parsed(lambda t: oracle.parse_scalar(QQ, t))


def _paths(node, path=()):
    """The path to node and to every value inside it."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _elements(doc):
    """The paths to the coefficient maps of the unit and the table rows."""
    if not isinstance(doc, dict):
        return []
    return [p for p in _paths(doc) if isinstance(_at(doc, p), dict) and (
        p == ("algebra", "unit") or p[:2] == ("algebra", "multiplication") and p[3:] == (2,)
        or p[:1] == ("action",) and p[2:] == (2,))]


def mutate(doc, kind, data):
    """doc changed once: a value replaced by one of another type, a string
    replaced by another label (known or not), a key of a coefficient map
    renamed, a row or label repeated, a coefficient replaced, or a value
    deleted.  The section is drawn first, so that the large composition
    table does not draw most changes."""
    paths = [p for p in _paths(doc) if p]
    labels = sorted({_at(doc, p) for p in paths if isinstance(_at(doc, p), str)} | {"zz"})
    if paths:
        top = data.draw(st.sampled_from(sorted({p[0] for p in paths}, key=str)))
        paths = [p for p in paths if p[0] == top]
    strings = [p for p in paths if isinstance(_at(doc, p), str)]
    lists = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
    elements = [p for p in _elements(doc) if _at(doc, p)]
    if kind == "retype" and paths:
        p = data.draw(st.sampled_from(paths))
        _at(doc, p[:-1])[p[-1]] = copy.deepcopy(data.draw(st.sampled_from(RETYPED)))
    elif kind == "label" and strings:
        p = data.draw(st.sampled_from(strings))
        _at(doc, p[:-1])[p[-1]] = data.draw(st.sampled_from(labels))
    elif kind == "rename" and elements:
        el = _at(doc, data.draw(st.sampled_from(elements)))
        old = data.draw(st.sampled_from(sorted(el)))
        el[data.draw(st.sampled_from(labels))] = el.pop(old)
    elif kind == "repeat" and lists:
        rows = _at(doc, data.draw(st.sampled_from(lists)))
        rows.insert(data.draw(st.integers(0, len(rows))),
                    copy.deepcopy(data.draw(st.sampled_from(rows))))
    elif kind == "coefficient" and elements:
        el = _at(doc, data.draw(st.sampled_from(elements)))
        el[data.draw(st.sampled_from(sorted(el)))] = copy.deepcopy(
            data.draw(st.sampled_from(COEFFICIENTS)))
    elif kind == "delete" and paths:
        p = data.draw(st.sampled_from(paths))
        del _at(doc, p[:-1])[p[-1]]
    return doc


MUTATIONS = ["retype", "label", "rename", "repeat", "coefficient", "delete"]


@given(st.sampled_from(sorted(BASES)), st.sampled_from(FIELDS),
       st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_parse_as_in_the_oracle(base, field, kinds, data):
    doc = BASES[base]()
    if field is not None and isinstance(doc, dict):
        doc["field"] = dict(field)
    for kind in kinds:
        doc = mutate(doc, kind, data)
    assert_parsers_agree(doc)


def test_parse_keeps_fraction_values():
    inst = parse_instance(half_unit_z2_doc())
    assert inst.algebra.unit == {"p": Fraction(1, 2), "q": Fraction(1, 2)}
    assert type(inst.algebra.right["p"]["p"]["p"]) is int
