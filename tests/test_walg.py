from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import BASES, SABOTAGE_KINDS, disjoint_union, pair_groupoid, sabotaged_groupoid
from weakhopf.exactmath import QQ, PrimeField
from weakhopf.groupoid import Groupoid, Morphism, builtin_i2, cyclic_group, validate_groupoid
from weakhopf.walg import (CoStructure, check_antipode, check_weak_bialgebra, dual_weak_hopf,
                           el_apply, groupoid_algebra, target_counit_images)

one = Fraction(1)


@pytest.fixture(scope="module")
def kg_i2():
    return groupoid_algebra(QQ, builtin_i2())


@pytest.fixture(scope="module")
def kgstar_i2(kg_i2):
    return dual_weak_hopf(*kg_i2)


def test_groupoid_algebra_multiplication(kg_i2):
    alg, _ = kg_i2
    assert alg.multiply({"g": one}, {"gi": one}) == {"x": one}
    assert alg.multiply({"g": one}, {"g": one}) == {}
    assert alg.multiply({"x": one, "y": one}, {"g": one}) == {"g": one}


def test_groupoid_algebra_unit(kg_i2):
    alg, _ = kg_i2
    assert alg.unit == {"x": one, "y": one}
    assert alg.unit_violations() == []
    assert alg.associativity_violations() == []


def test_groupoid_algebra_costructure(kg_i2):
    alg, co = kg_i2
    assert co.delta["g"] == [("g", "g", one)]
    assert co.counit["g"] == one
    assert co.antipode["g"] == {"gi": one}
    s2 = el_apply(QQ, co.antipode, el_apply(QQ, co.antipode, {"g": one}))
    assert s2 == {"g": one}


def test_dual_product_is_pointwise(kgstar_i2):
    dual, _ = kgstar_i2
    assert dual.multiply({"g": one}, {"g": one}) == {"g": one}
    assert dual.multiply({"g": one}, {"gi": one}) == {}
    assert dual.unit == {"x": one, "y": one, "g": one, "gi": one}


def test_dual_coproduct_enumerates_factorizations(kgstar_i2):
    _, co = kgstar_i2
    assert sorted(co.delta["g"]) == [("g", "y", one), ("x", "g", one)]


def test_dual_counit_counts_identity_coefficients(kgstar_i2):
    _, co = kgstar_i2
    assert co.counit_element({"x": one, "y": one, "g": one}) == 2


def test_dual_antipode(kgstar_i2):
    _, co = kgstar_i2
    assert co.antipode["g"] == {"gi": one}
    assert co.antipode["x"] == {"x": one}


def test_double_dual_recovers_structure_constants(kg_i2):
    alg, co = kg_i2
    dd_alg, dd_co = dual_weak_hopf(*dual_weak_hopf(alg, co))
    assert dd_alg.mul == alg.mul
    assert dd_alg.unit == alg.unit
    assert {k: sorted(v) for k, v in dd_co.delta.items()} == \
           {k: sorted(v) for k, v in co.delta.items()}
    assert dd_co.counit == co.counit
    assert dd_co.antipode == co.antipode


LIBRARY_GROUPOIDS = [
    ("z2", cyclic_group(2)),
    ("z3", cyclic_group(3)),
    ("i2", builtin_i2()),
    ("pair2", pair_groupoid(2)),
    ("union", disjoint_union(cyclic_group(2), builtin_i2())),
]


@pytest.mark.parametrize("name,g", LIBRARY_GROUPOIDS, ids=[n for n, _ in LIBRARY_GROUPOIDS])
def test_axiom_suite_on_library(name, g):
    kg, kg_co = groupoid_algebra(QQ, g)
    assert check_weak_bialgebra(kg, kg_co).ok
    assert check_antipode(kg, kg_co).ok
    dual, dual_co = dual_weak_hopf(kg, kg_co)
    assert check_weak_bialgebra(dual, dual_co).ok
    assert check_antipode(dual, dual_co).ok
    assert kg.associativity_violations() == []
    assert dual.associativity_violations() == []


def test_axiom_suite_gf2():
    kg, kg_co = groupoid_algebra(PrimeField(2), builtin_i2())
    assert check_weak_bialgebra(kg, kg_co).ok
    assert check_antipode(kg, kg_co).ok


def test_identity_antipode_fails():
    # every record its own inverse: KG's antipode is the identity, and
    # g S(g) = gg is undefined
    g = builtin_i2()
    same = Groupoid(g.objects, [replace(m, inv=m.id) for m in g.morphisms], g.comp)
    rep = check_antipode(*groupoid_algebra(QQ, same))
    assert not rep.ok
    assert "g" in [f.witness for f in rep.findings]


def test_target_counit_on_i2(kg_i2):
    alg, co = kg_i2
    images = target_counit_images(alg, co)
    assert el_apply(QQ, images, {"g": one}) == {"x": one}
    assert el_apply(QQ, images, {"gi": one}) == {"y": one}
    assert el_apply(QQ, images, {"x": one}) == {"x": one}
    assert el_apply(QQ, images, {"y": one}) == {"y": one}


def test_target_counit_one_object():
    kg, co = groupoid_algebra(QQ, cyclic_group(2))
    assert el_apply(QQ, target_counit_images(kg, co), {"a": one}) == {"e": one}


@given(st.sampled_from([builtin_i2(), cyclic_group(3), pair_groupoid(2)]), st.booleans(),
       st.sampled_from(["mul", "delta", "counit", "antipode", "unit"]),
       st.sampled_from([QQ, PrimeField(3)]), st.data())
@settings(max_examples=60, deadline=None)
def test_target_counit_equals_oracle_on_random_sabotage(g, dual, table, field, data):
    # the images of the basis labels, read off one delta(1), against delta(1)
    # formed and multiplied out per element; and on a drawn element
    alg, co = _random_sabotage(groupoid_algebra(field, g), table, field, data)
    if dual:
        alg, co = dual_weak_hopf(alg, co)
    images = target_counit_images(alg, co)
    for y in alg.basis:
        assert images.get(y, {}) == oracle.target_counit(alg, co, {y: field.one})
    x = data.draw(st.dictionaries(st.sampled_from(alg.basis), st.sampled_from([field.one, 2])))
    assert el_apply(field, images, x) == oracle.target_counit(alg, co, x)


def test_missing_unit_rejected():
    alg = oracle.table_algebra(QQ, ["u"], {("u", "u"): {"u": one}})
    co = CoStructure(QQ, {"u": [("u", "u", one)]}, {"u": one})
    with pytest.raises(ValueError):
        check_weak_bialgebra(alg, co)
    with pytest.raises(ValueError):
        check_antipode(alg, co)


def test_foreign_label_rejected(kg_i2):
    alg, _ = kg_i2
    with pytest.raises(ValueError):
        alg.multiply({"nope": one}, {"g": one})
    # outside tables are checked where they enter: of two unknown labels in
    # B's multiplication table the error names the first, in document order,
    # and a known factor next to an unknown one is not named
    from weakhopf.instances import InstanceFormatError, builtin_doc, parse_instance
    for rows, first, others in (
            ([["e1", "e1", {"p": "1", "q": "1"}]], "p", ["q"]),
            ([["e1", "q", {"e1": "1"}], ["p", "e1", {"e1": "1"}]], "q", ["p", "e1"]),
            ([["p", "e2", {"e1": "1"}]], "p", ["e2"]),
            ([["e1", "e1", {"e1": "1"}], ["e2", "e2", {"e2": "1", "p": "2"}],
              ["e1", "q", {"e1": "1"}]], "p", ["q"])):
        doc = builtin_doc("i2-swap")
        doc["algebra"]["multiplication"] = rows
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(doc)
        assert f"'{first}'" in str(err.value)
        assert not [lab for lab in others if f"'{lab}'" in str(err.value)]
    doc["algebra"]["multiplication"] = [["p", "q", {"e1": "1"}]]
    with pytest.raises(InstanceFormatError, match="unknown label 'p' and 'q'"):
        parse_instance(doc)


def test_parse_instance_nests_b_and_drops_zeros():
    # zero coefficients and empty products are dropped where the table
    # enters, a pair is still one entry when its product is empty, and a
    # foreign label is rejected even with a zero coefficient
    from weakhopf.instances import InstanceFormatError, builtin_doc, parse_instance
    doc = builtin_doc("i2-swap")
    doc["algebra"]["multiplication"] += [["e1", "e2", {"e1": "0"}],
                                         ["e2", "e1", {"e1": "0", "e2": "3"}]]
    B = parse_instance(doc).algebra
    assert B.right == {"e1": {"e1": {"e1": one}}, "e2": {"e2": {"e2": one}, "e1": {"e2": 3}}}
    twice, foreign = builtin_doc("i2-swap"), builtin_doc("i2-swap")
    twice["algebra"]["multiplication"] += [["e1", "e2", {}], ["e1", "e2", {}]]
    foreign["algebra"]["multiplication"].append(["e1", "e2", {"e1": "1", "nope": "0"}])
    for bad, match in ((twice, "twice"), (foreign, "unknown basis label 'nope'")):
        with pytest.raises(InstanceFormatError, match=match):
            parse_instance(bad)


coeff = st.integers(min_value=-4, max_value=4)


@given(st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_bilinear_associativity_on_random_elements(xs, ys, zs):
    alg, _ = groupoid_algebra(QQ, builtin_i2())
    a = alg.element({b: Fraction(c) for b, c in zip(alg.basis, xs)})
    b = alg.element({b2: Fraction(c) for b2, c in zip(alg.basis, ys)})
    c = alg.element({b3: Fraction(cc) for b3, cc in zip(alg.basis, zs)})
    assert alg.multiply(alg.multiply(a, b), c) == alg.multiply(a, alg.multiply(b, c))


# -- the sparse checkers and dual against the all-tuples oracle ---------------


def _axiom_findings(check_wb, check_ap, alg, co):
    rep = check_wb(alg, co)
    rep.merge(check_ap(alg, co))
    return rep.title, rep.findings, rep.info


def assert_checks_match_oracle(alg, co):
    assert (_axiom_findings(check_weak_bialgebra, check_antipode, alg, co)
            == _axiom_findings(oracle.check_weak_bialgebra, oracle.check_antipode, alg, co))
    assert alg.associativity_violations() == oracle.associativity_violations(alg)


def assert_tables_match_oracle(alg, co):
    """Edited tables carry no record: both checks refuse them and their
    dual, while the dual, the associativity and the unit violations equal
    the oracle's."""
    for pair in ((alg, co), dual_weak_hopf(alg, co)):
        for check in (check_weak_bialgebra, check_antipode):
            with pytest.raises(ValueError):
                check(*pair)
    assert alg.associativity_violations() == oracle.associativity_violations(alg)
    assert alg.unit_violations() == oracle.unit_violations(alg)
    assert_dual_matches_oracle(alg, co)


def assert_dual_matches_oracle(alg, co):
    (dual, dco), (ref, rco) = dual_weak_hopf(alg, co), oracle.dual_weak_hopf(alg, co)
    assert (dual.basis, dual.name, dual.unit) == (ref.basis, ref.name, ref.unit)
    assert list(dual.mul.items()) == list(ref.mul.items())
    assert list(dco.delta.items()) == list(rco.delta.items())
    assert (dco.counit, dco.antipode) == (rco.counit, rco.antipode)


@pytest.mark.parametrize("p", [None, 2])
def test_checkers_equal_oracle_on_builtins(p):
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        ctx = context(name)
        if p is None:
            kg, kg_co = ctx.kg, ctx.kg_co
        else:
            kg, kg_co = groupoid_algebra(PrimeField(p), ctx.groupoid)
        assert_dual_matches_oracle(kg, kg_co)
        dual, dual_co = dual_weak_hopf(kg, kg_co)
        for alg, co in ((kg, kg_co), (dual, dual_co)):
            assert_checks_match_oracle(alg, co)
        if p is None:
            for alg in (ctx.B, ctx.bsm, ctx.dsm):
                assert alg.associativity_violations() == oracle.associativity_violations(alg)


GENERATED = [pair_groupoid(n) for n in (1, 2, 3)] + [cyclic_group(n) for n in (2, 3, 4, 5)]
FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]


@given(st.sampled_from(GENERATED), st.sampled_from(FIELDS))
@settings(max_examples=15, deadline=None)
def test_checkers_equal_oracle_on_generated_groupoids(g, field):
    from conftest import groupoid_doc
    from weakhopf.instances import parse_instance
    inst = parse_instance(groupoid_doc(g, "generated", field))
    kg, kg_co = groupoid_algebra(inst.field, inst.groupoid)
    assert_dual_matches_oracle(kg, kg_co)
    assert_checks_match_oracle(kg, kg_co)
    assert_checks_match_oracle(*dual_weak_hopf(kg, kg_co))
    assert inst.algebra.associativity_violations() == oracle.associativity_violations(inst.algebra)


def _edited(alg, co, edits):
    """(alg, co) with table entries replaced, name and meta kept; each edit
    is (table, key, entry)."""
    mul, delta, unit = dict(alg.mul), dict(co.delta), dict(alg.unit)
    counit, antipode = dict(co.counit), dict(co.antipode)
    tables = {"mul": mul, "delta": delta, "counit": counit,
              "antipode": antipode, "unit": unit}
    for table, key, entry in edits:
        tables[table][key] = entry
    return (oracle.table_algebra(alg.field, alg.basis, mul, unit, alg.name, alg.meta),
            CoStructure(alg.field, delta, counit, antipode))


def _sabotaged_i2(edits, field=QQ):
    """KG of i2 with table entries replaced, as (algebra, costructure)."""
    return _edited(*groupoid_algebra(field, builtin_i2()), edits)


def _sabotage(check, *edits, p=None, name=None, dual=False):
    """A case for the test below: KG of i2 over Q, or over GF(p), with the
    edits applied; check is a check the oracle reports on it, or with dual
    on its dual weak Hopf algebra."""
    return pytest.param(check, edits, p, dual, id=name or check)


SABOTAGES = [
    _sabotage("coassociativity", ("delta", "g", [("g", "g", one), ("x", "g", one)])),
    _sabotage("counit-law", ("counit", "g", Fraction(2))),
    _sabotage("weak-unit", ("delta", "x", [("x", "x", one), ("x", "y", one)])),
    _sabotage("weak-counit", ("counit", "x", Fraction(2))),
    _sabotage("antipode-sandwich", ("antipode", "g", {"g": one})),
    _sabotage("associativity", ("mul", ("g", "gi"), {"y": one})),
    # the unit 2x + y over GF(7): the unit law fails, yet the weak-unit
    # axiom holds, since 2^3 == 1 there and delta^2(1) and its two products
    # carry 2 and 2^4 at x x x
    _sabotage("unit", ("unit", "x", 2), p=7),
    # delta(g) = -y x g is not coassociative: S(x1) x2 S(x3) over
    # (delta x id) delta(g) is -gi, so the sandwich fails at g, while the
    # (id x delta) bracketing would give gi == S(g) and hide it
    _sabotage("antipode-sandwich", ("delta", "g", [("y", "g", -one)]),
              name="sandwich-bracketing"),
    # over GF(7), with the unit x + y + 2g and delta(x) = 2 x x x - x x g
    # (6 == -1), the legs (x, g) and (g, g) of delta(1) carry -1 and 2, and
    # -(x1) + 2(g1) = -(x + 2g) + 2g loses its g term
    _sabotage("weak-unit", ("unit", "g", 2), ("delta", "x", [("x", "x", 2), ("x", "g", 6)]),
              p=7, name="weak-unit-leg-cancel"),
    # delta(y) = x x g gives delta(1) the leg (x, g) with xg != 0: only the
    # flipped product differs from delta^2(1)
    _sabotage("weak-unit-flipped", ("delta", "y", [("x", "g", one)])),
    # delta(y) gains the leg g x y, so delta(1) = x x x + (y + g) x y has
    # the two distinct slices P_x = x and P_y = y + g.  Only the second
    # breaks the weak unit, on both sides
    _sabotage("weak-unit", ("delta", "y", [("y", "y", one), ("g", "y", one)]),
              name="weak-unit-second-slice"),
    # y gi = 2y: S(g) g S(g) = gi g gi = 2y makes the sandwich fail at g,
    # while antipode-left fails only at gi (eps(y gi) = 2), so the sandwich
    # finding comes first
    _sabotage("antipode-sandwich", ("mul", ("y", "gi"), {"y": 2 * one}),
              name="sandwich-before-left"),
    # on the dual of the edited KG.  delta(x) = 2 x x x - x x y - y x x +
    # y x y keeps the counit law; the dual's pairs [f, g] are coordinates
    # of delta(xy), not KG's pairs [x, y]
    _sabotage("coproduct-multiplicative",
              ("delta", "x", [("x", "x", 2 * one), ("x", "y", -one), ("y", "x", -one),
                              ("y", "y", one)]), dual=True, name="dual-coproduct-multiplicative"),
    # delta(x) = x x g - y x g + y x x keeps the counit law and breaks
    # only the dual's weak unit, g x x - g x y + x x y only its flip
    _sabotage("weak-unit", ("delta", "x", [("x", "g", one), ("y", "g", -one), ("y", "x", one)]),
              dual=True, name="dual-weak-unit"),
    _sabotage("weak-unit-flipped",
              ("delta", "x", [("g", "x", one), ("g", "y", -one), ("x", "y", one)]),
              dual=True, name="dual-weak-unit-flipped"),
    # delta(g) = x x g breaks KG's counit law, so the dual's unit is no
    # unit: both weak-unit checks fail there, while KG's weak counit,
    # compared with eps(x y1) eps(y2 z) and no unit, only flags the flip
    _sabotage("weak-unit", ("delta", "g", [("x", "g", one)]),
              dual=True, name="dual-weak-unit-without-counit-law"),
    # S(x) = x + g, x + gi, x + y: each breaks one identity of KG, and the
    # dual's labels are the rows where the two sides differ, not KG's
    _sabotage("antipode-left", ("antipode", "x", {"x": one, "g": one}),
              dual=True, name="dual-antipode-left"),
    _sabotage("antipode-right", ("antipode", "x", {"x": one, "gi": one}),
              dual=True, name="dual-antipode-right"),
    _sabotage("antipode-sandwich", ("antipode", "x", {"x": one, "y": one}),
              dual=True, name="dual-antipode-sandwich"),
]


@pytest.mark.parametrize("check,edits,p,dual", SABOTAGES)
def test_sabotaged_table_is_caught_as_the_oracle_catches_it(check, edits, p, dual):
    # the checks refuse the edited copy; each edit breaks the check it
    # names, on the copy or on its dual, as the oracle reports
    alg, co = _sabotaged_i2(edits, QQ if p is None else PrimeField(p))
    assert_tables_match_oracle(alg, co)
    if dual:
        alg, co = oracle.dual_weak_hopf(alg, co)
    rep = oracle.check_weak_bialgebra(alg, co)
    rep.merge(oracle.check_antipode(alg, co))
    failed = rep.checks_failed() + (["associativity"] if alg.associativity_violations() else [])
    failed += ["unit"] if alg.unit_violations() else []
    assert check in failed


@pytest.mark.parametrize("edit", [("mul", ("g", "g"), {"g": 2 * one}),
                                  ("delta", "g", [("g", "y", one)]), ("counit", "x", 2 * one),
                                  ("unit", "g", 2 * one), ("antipode", "g", {"g": one})],
                         ids=["mul", "delta", "counit", "unit", "antipode"])
def test_certificate_rejects_a_tampered_transpose(edit):
    # KG*'s tables edited after dual_weak_hopf: the composition index says
    # nothing of the edit, so the checks refuse the copy, with its own
    # coalgebra or with KG*'s, and still read KG* itself as the oracle does
    kg, kg_co = groupoid_algebra(QQ, builtin_i2())
    kgstar, kgstar_co = dual_weak_hopf(kg, kg_co)
    dual, dual_co = _edited(kgstar, kgstar_co, [edit])
    for alg, co in ((dual, dual_co), (dual, kgstar_co), (kgstar, dual_co)):
        for check in (check_weak_bialgebra, check_antipode):
            with pytest.raises(ValueError):
                check(alg, co)
    assert_checks_match_oracle(kgstar, kgstar_co)


@pytest.mark.parametrize("edit", [("mul", ("g", "g"), {"x": one}),
                                  ("delta", "g", [("g", "g", one), ("x", "x", one)]),
                                  ("counit", "x", 2 * one), ("unit", "g", one),
                                  ("antipode", "g", {"g": one})],
                         ids=["mul", "delta", "counit", "unit", "antipode"])
def test_groupoid_certificate_rejects_tampered_kg(edit):
    # KG's tables edited after groupoid_algebra: the checks refuse the
    # edited copy and its dual, while the dual itself is built from the
    # edited tables as the oracle builds it
    genuine, genuine_co = groupoid_algebra(QQ, builtin_i2())
    assert_tables_match_oracle(*_edited(genuine, genuine_co, [edit]))
    assert genuine_co.groupoid[0] is genuine


def test_mismatched_pairs_carry_no_record():
    # the record names the algebra it was built with: a copy of KG next to
    # KG's coalgebra, KG next to a fresh coalgebra, and the dual of the copy
    # are all refused
    kg, kg_co = groupoid_algebra(QQ, builtin_i2())
    copy, fresh_co = _edited(kg, kg_co, [])
    for alg, co in ((copy, kg_co), (kg, fresh_co), dual_weak_hopf(copy, kg_co)):
        assert co.groupoid is None or co.groupoid[0] is not alg
        for check in (check_weak_bialgebra, check_antipode):
            with pytest.raises(ValueError):
                check(alg, co)


def test_checks_on_kg_and_kgstar_of_z12_make_no_field_operations(monkeypatch):
    # a certified KG and its transpose read every verdict off the
    # composition index; a fall-back to the tables would add and multiply
    from weakhopf import walg
    from weakhopf.exactmath import Rationals
    kg, kg_co = groupoid_algebra(QQ, cyclic_group(12))
    kgstar, kgstar_co = dual_weak_hopf(kg, kg_co)
    calls, acc, mul = [], walg.acc, Rationals.mul
    monkeypatch.setattr(walg, "acc", lambda *args: calls.append("acc") or acc(*args))
    monkeypatch.setattr(Rationals, "mul", lambda *args: calls.append("mul") or mul(*args))
    for alg, co in ((kg, kg_co), (kgstar, kgstar_co)):
        assert check_weak_bialgebra(alg, co).ok and check_antipode(alg, co).ok
    assert calls == []


def _random_sabotage(pair, table, field, data):
    """pair with one entry of one table replaced by drawn labels and
    scalars, the unit kept as a (possibly changed) element."""
    alg, co = pair
    labels = st.sampled_from(alg.basis)
    scalar = st.sampled_from([field.parse(v) for v in ("-1", "0", "1", "2")])
    element = st.dictionaries(labels, scalar, max_size=2)
    mul, delta, unit = dict(alg.mul), dict(co.delta), dict(alg.unit)
    counit, antipode = dict(co.counit), dict(co.antipode)
    if table == "mul":
        mul[(data.draw(labels), data.draw(labels))] = data.draw(element)
    elif table == "delta":
        delta[data.draw(labels)] = data.draw(st.lists(st.tuples(labels, labels, scalar), max_size=3))
    elif table == "counit":
        counit[data.draw(labels)] = data.draw(scalar)
    elif table == "unit":
        unit[data.draw(labels)] = data.draw(scalar)
    else:
        antipode[data.draw(labels)] = data.draw(element)
    return (oracle.table_algebra(field, alg.basis, mul, unit, name=alg.name),
            CoStructure(field, delta, counit, antipode))


@given(st.sampled_from([builtin_i2(), cyclic_group(3), pair_groupoid(2)]),
       st.booleans(), st.sampled_from(["mul", "delta", "counit", "antipode", "unit"]),
       st.sampled_from([QQ, PrimeField(3)]), st.data())
@settings(max_examples=60, deadline=None)
def test_checkers_equal_oracle_on_random_sabotage(g, dual, table, field, data):
    alg, co = groupoid_algebra(field, g)
    if dual:
        alg, co = dual_weak_hopf(alg, co)
    assert_tables_match_oracle(*_random_sabotage((alg, co), table, field, data))


def assert_read_offs_match_oracle(g, field):
    """The checks of KG and KG* of g, which carry their records and are
    read off g's composition index, against the oracle's on its own KG,
    built over all pairs, and that KG's all-tuples dual.  KG*'s run
    before KG's and again after, with the same findings."""
    kg, kg_co = groupoid_algebra(field, g)
    dual, dual_co = dual_weak_hopf(kg, kg_co)
    assert kg_co.groupoid[0] is kg and dual_co.groupoid[0] is dual
    ref = oracle.groupoid_algebra(field, g)
    first = _axiom_findings(check_weak_bialgebra, check_antipode, dual, dual_co)
    assert (_axiom_findings(check_weak_bialgebra, check_antipode, kg, kg_co)
            == _axiom_findings(oracle.check_weak_bialgebra, oracle.check_antipode, ref, kg_co))
    assert (first == _axiom_findings(check_weak_bialgebra, check_antipode, dual, dual_co)
            == _axiom_findings(oracle.check_weak_bialgebra, oracle.check_antipode,
                               *oracle.dual_weak_hopf(ref, kg_co)))


@given(st.sampled_from([b for b in BASES if len(b.morphisms) <= 4]),
       st.one_of(st.none(), st.sampled_from([b for b in BASES if len(b.morphisms) <= 2])),
       st.lists(st.sampled_from(SABOTAGE_KINDS), max_size=3),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]), st.data())
@settings(max_examples=100, deadline=None)
def test_groupoid_read_offs_equal_oracle_on_random_sabotage(g, other, kinds, field, data):
    # small bases: the oracle's KG* check grows steeply with the dimension.
    # Then again once validate_groupoid has run: its verdict, when clean,
    # stands in for KG*'s coalgebra walk
    g = sabotaged_groupoid(g if other is None else disjoint_union(g, other), kinds, data)
    assert_read_offs_match_oracle(g, field)
    assert g.valid is None
    assert validate_groupoid(g).ok is g.valid
    assert_read_offs_match_oracle(g, field)


@given(st.sampled_from([pair_groupoid(3), disjoint_union(pair_groupoid(2), cyclic_group(4)),
                        cyclic_group(8)]),
       st.lists(st.sampled_from(SABOTAGE_KINDS), max_size=3),
       st.sampled_from([QQ, PrimeField(2)]), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_read_offs_equal_oracle_on_larger_broken_groupoids(g, kinds, field, validated, data):
    # 8 and 9 morphisms, with and without a recorded validation
    g = sabotaged_groupoid(g, kinds, data)
    if validated:
        validate_groupoid(g)
    assert_read_offs_match_oracle(g, field)


def _hand_broken(objects, records, comp):
    """The groupoid with the morphisms (id, src, tgt), each its own inverse."""
    return Groupoid(objects, [Morphism(m, s, t, m) for m, s, t in records], comp)


@pytest.mark.parametrize("g", [
    # src and tgt of the objects swapped, ef = e and fe = f: delta(1) =
    # e x e + f x f is no sum of orthogonal idempotents, yet both weak-unit
    # products of KG equal delta^2(1)
    _hand_broken(["e", "f"], [("e", "e", "f"), ("f", "f", "e")],
                 {("e", "f"): "e", ("f", "e"): "f"}),
    # x * y left out: every (ab)c agrees with its a(bc), but x(yx) = x(yy)
    # = x, where xy is undefined, so KG* is not coassociative at x
    _hand_broken(["e"], [("e", "e", "e"), ("x", "e", "e"), ("y", "e", "e")],
                 {("e", "e"): "e", ("e", "x"): "x", ("e", "y"): "y", ("x", "e"): "x",
                  ("x", "x"): "x", ("y", "e"): "y", ("y", "x"): "x", ("y", "y"): "e"}),
    # f's record runs from e to f and ef = f: the objects are not
    # orthogonal, KG's weak unit and its flip fail, and so does KG*'s weak
    # counit, at [f, f, e] through fe = 0 and ef = f
    _hand_broken(["e", "f"], [("e", "e", "e"), ("f", "e", "f")],
                 {("e", "e"): "e", ("e", "f"): "f"}),
    # ae = af = x: x's counit law on KG* sums a twice, which vanishes over
    # GF(2) only, so there it holds at x
    _hand_broken(["e", "f"], [("e", "e", "e"), ("f", "e", "f"), ("a", "e", "e"), ("x", "e", "e")],
                 {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("a", "e"): "x",
                  ("a", "f"): "x"}),
], ids=["objects-swapped", "product-missing", "objects-composable", "count-vanishes"])
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])
def test_groupoid_read_offs_equal_oracle_on_hand_broken_groupoids(g, field):
    assert_read_offs_match_oracle(g, field)
