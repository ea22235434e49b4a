import functools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import BASES, SABOTAGE_KINDS, disjoint_union, pair_groupoid, sabotaged_groupoid
from weakhopf.exactmath import QQ, PrimeField
from weakhopf.groupoid import Groupoid, Morphism, builtin_i2, cyclic_group, validate_groupoid
from weakhopf.walg import (check_antipode, check_weak_bialgebra, dual_weak_hopf, el_apply, el_norm,
                           groupoid_algebra)

one = Fraction(1)


@pytest.fixture(scope="module")
def kg_i2():
    return groupoid_algebra(QQ, builtin_i2())


@pytest.fixture(scope="module")
def kgstar_i2(kg_i2):
    return dual_weak_hopf(*kg_i2)


def oracle_pair(field, g, dual=False):
    """The oracle's KG of g over all pairs with KG's coalgebra tables, or
    with dual the oracle's KG* of them."""
    pair = oracle.groupoid_algebra(field, g), oracle.groupoid_coalgebra(field, g)
    return oracle.dual_weak_hopf(*pair) if dual else pair


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
    # the engine knows KG's coalgebra as its record, the composition index;
    # the oracle's tables: grouplike, counit 1, antipode by inversion
    alg, rec = kg_i2
    assert (rec.alg, rec.kg, rec.L) == (alg, None, alg.left)
    assert rec.P["g"] == {"y": "g", "gi": "x"} and rec.g.inv("g") == "gi"
    co = oracle.groupoid_coalgebra(QQ, builtin_i2())
    assert co.delta["g"] == [("g", "g", one)]
    assert co.counit["g"] == one
    assert co.antipode["g"] == {"gi": one}
    s2 = el_apply(QQ, co.antipode, el_apply(QQ, co.antipode, {"g": one}))
    assert s2 == {"g": one}


def test_dual_product_is_pointwise(kg_i2, kgstar_i2):
    dual, rec = kgstar_i2
    assert dual.multiply({"g": one}, {"g": one}) == {"g": one}
    assert dual.multiply({"g": one}, {"gi": one}) == {}
    assert dual.unit == {"x": one, "y": one, "g": one, "gi": one}
    assert rec.alg is dual and rec.kg is kg_i2[1] and rec.P is kg_i2[1].P


def test_dual_coproduct_enumerates_factorizations(kgstar_i2):
    # the oracle's KG* coproduct lists the factorizations that the record's
    # index holds
    _, co = oracle_pair(QQ, builtin_i2(), dual=True)
    assert sorted(co.delta["g"]) == [("g", "y", one), ("x", "g", one)]
    P = kgstar_i2[1].P
    assert sorted((a, b, one) for a in P for b, ab in P[a].items() if ab == "g") == \
        sorted(co.delta["g"])


def test_dual_counit_counts_identity_coefficients():
    _, co = oracle_pair(QQ, builtin_i2(), dual=True)
    assert co.counit_element({"x": one, "y": one, "g": one}) == 2


def test_dual_antipode():
    _, co = oracle_pair(QQ, builtin_i2(), dual=True)
    assert co.antipode["g"] == {"gi": one}
    assert co.antipode["x"] == {"x": one}


def test_double_dual_recovers_structure_constants(kgstar_i2):
    # the oracle's dual, twice, gives KG's tables back; the engine builds
    # KG* only from KG and its record, and refuses to dualise KG*
    alg, co = oracle_pair(QQ, builtin_i2())
    dd_alg, dd_co = oracle.dual_weak_hopf(*oracle.dual_weak_hopf(alg, co))
    assert dd_alg.mul == alg.mul
    assert dd_alg.unit == alg.unit
    assert {k: sorted(v) for k, v in dd_co.delta.items()} == \
           {k: sorted(v) for k, v in co.delta.items()}
    assert dd_co.counit == co.counit
    assert dd_co.antipode == co.antipode
    with pytest.raises(ValueError):
        dual_weak_hopf(*kgstar_i2)


LIBRARY_GROUPOIDS = [
    ("z2", cyclic_group(2)),
    ("z3", cyclic_group(3)),
    ("i2", builtin_i2()),
    ("pair2", pair_groupoid(2)),
    ("union", disjoint_union(cyclic_group(2), builtin_i2())),
]


@pytest.mark.parametrize("name,g", LIBRARY_GROUPOIDS, ids=[n for n, _ in LIBRARY_GROUPOIDS])
def test_axiom_suite_on_library(name, g):
    kg, kg_rec = groupoid_algebra(QQ, g)
    assert check_weak_bialgebra(kg, kg_rec).ok
    assert check_antipode(kg, kg_rec).ok
    dual, dual_rec = dual_weak_hopf(kg, kg_rec)
    assert check_weak_bialgebra(dual, dual_rec).ok
    assert check_antipode(dual, dual_rec).ok
    assert kg.associativity_violations() == []
    assert dual.associativity_violations() == []


def test_axiom_suite_gf2():
    kg, kg_rec = groupoid_algebra(PrimeField(2), builtin_i2())
    assert check_weak_bialgebra(kg, kg_rec).ok
    assert check_antipode(kg, kg_rec).ok


def test_identity_antipode_fails():
    # every record its own inverse: KG's antipode is the identity, and
    # g S(g) = gg is undefined
    g = builtin_i2()
    same = Groupoid(g.objects, [replace(m, inv=m.id) for m in g.morphisms], g.comp)
    rep = check_antipode(*groupoid_algebra(QQ, same))
    assert not rep.ok
    assert "g" in [f.witness for f in rep.findings]


def test_target_counit_on_i2():
    # the oracle's target counit, formed from delta(1) per element, sends
    # u_g to the identity at src(g), as check_module_algebra reads it
    alg, co = oracle_pair(QQ, builtin_i2())
    assert oracle.target_counit(alg, co, {"g": one}) == {"x": one}
    assert oracle.target_counit(alg, co, {"gi": one}) == {"y": one}
    assert oracle.target_counit(alg, co, {"x": one}) == {"x": one}
    assert oracle.target_counit(alg, co, {"y": one}) == {"y": one}


def test_target_counit_one_object():
    alg, co = oracle_pair(QQ, cyclic_group(2))
    assert oracle.target_counit(alg, co, {"a": one}) == {"e": one}


def test_missing_unit_rejected():
    # no record, no check: the engine takes only KG or KG* with their own
    alg = oracle.table_algebra(QQ, ["u"], {("u", "u"): {"u": one}})
    co = oracle.CoStructure(QQ, {"u": [("u", "u", one)]}, {"u": one})
    for call in (check_weak_bialgebra, check_antipode, dual_weak_hopf):
        with pytest.raises(ValueError):
            call(alg, co)


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


# -- the read-offs and KG* against the all-tuples oracle ----------------------


def _axiom_findings(check_wb, check_ap, alg, co):
    rep = check_wb(alg, co)
    rep.merge(check_ap(alg, co))
    return rep.title, rep.findings, rep.info


def assert_refused(alg, co):
    """alg next to co is no recorded KG or KG*: the checks and the dual
    raise ValueError."""
    for call in (check_weak_bialgebra, check_antipode, dual_weak_hopf):
        with pytest.raises(ValueError):
            call(alg, co)


def assert_associative_matches_oracle(alg):
    """Light's test on alg.generators gives the oracle's verdict, and every
    basis label is a generator or a nonzero single-term product of
    generated labels."""
    assert alg.associative == (not oracle.associativity_violations(alg))
    generated, grown = set(alg.generators), True
    while grown:
        grown = {w for (a, b), prod in alg.mul.items() if a in generated and b in generated
                 and len(prod) == 1 for w, c in prod.items() if c != alg.field.zero} - generated
        generated |= grown
    assert generated == set(alg.basis)
    assert len(set(alg.generators)) == len(alg.generators)


def assert_tables_match_oracle(alg, co):
    """Edited tables carry no record: the engine refuses them, while the
    associativity and the unit violations equal the oracle's."""
    assert_refused(alg, co)
    assert alg.associativity_violations() == oracle.associativity_violations(alg)
    assert_associative_matches_oracle(alg)
    assert alg.unit_violations() == oracle.unit_violations(alg)


def assert_read_offs_match_oracle(g, field):
    """The checks of KG and KG* of g, which carry their records and are
    read off g's composition index, against the oracle's on its own KG,
    built over all pairs with KG's coalgebra tables, and that KG's
    all-tuples dual; KG* itself against that dual.  KG*'s checks run
    before KG's and again after, with the same findings.  Returns the
    checks that fail on KG and on KG*, associativity and unit included."""
    kg, kg_rec = groupoid_algebra(field, g)
    dual, dual_rec = dual_weak_hopf(kg, kg_rec)
    assert kg_rec.alg is kg and dual_rec.alg is dual and dual_rec.kg is kg_rec
    ref = oracle_pair(field, g)
    ref_dual = oracle.dual_weak_hopf(*ref)
    assert (dual.basis, dual.name, dual.unit) == (ref_dual[0].basis, ref_dual[0].name,
                                                  ref_dual[0].unit)
    assert list(dual.mul.items()) == list(ref_dual[0].mul.items())
    first = _axiom_findings(check_weak_bialgebra, check_antipode, dual, dual_rec)
    failed = []
    for alg, rec, (ref_alg, ref_co) in ((kg, kg_rec, ref), (dual, dual_rec, ref_dual)):
        found = _axiom_findings(check_weak_bialgebra, check_antipode, alg, rec)
        assert found == _axiom_findings(oracle.check_weak_bialgebra, oracle.check_antipode,
                                        ref_alg, ref_co)
        assert alg.associativity_violations() == oracle.associativity_violations(ref_alg)
        assert_associative_matches_oracle(alg)
        assert alg.unit_violations() == oracle.unit_violations(ref_alg)
        failed.append(list(dict.fromkeys(f.check for f in found[1]))
                      + ["associativity"] * bool(alg.associativity_violations())
                      + ["unit"] * bool(alg.unit_violations()))
    assert first == _axiom_findings(check_weak_bialgebra, check_antipode, dual, dual_rec)
    return failed


def _quotient_table(F, labels, c):
    """K[x]/(x^d - sum_m c[m] x^m) on the labels x^0..x^(d-1): associative,
    with a multi-term product x^i x^j once i + j >= d and c has two terms."""
    d, mul = len(labels), {}
    for i in range(d):
        for j in range(d):
            poly = [F.zero] * (i + j) + [F.one]
            for k in range(i + j, d - 1, -1):  # x^k = sum_m c[m] x^(k - d + m)
                top, poly[k] = poly[k], F.zero
                for m in range(d):
                    poly[k - d + m] = F.add(poly[k - d + m], F.mul(top, c[m]))
            mul[(labels[i], labels[j])] = dict(zip(labels, poly))
    return mul


def _edit_product(F, prod, edit, labels, data):
    """prod with one term scaled by 2, moved to another label, or dropped."""
    prod = dict(prod)
    lab = data.draw(st.sampled_from(sorted(prod, key=labels.index)))
    if edit == "scale":
        prod[lab] = F.mul(prod[lab], F.parse("2"))
    elif edit == "redirect":
        prod[data.draw(st.sampled_from(labels))] = prod.pop(lab)
    else:
        del prod[lab]
    return prod


EDITS = ["none", "scale", "redirect", "drop"]


@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]), st.integers(1, 4),
       st.sampled_from(["random", "quotient"]), st.sampled_from(EDITS), st.data())
@settings(max_examples=300, deadline=None)
def test_associative_equals_oracle_on_random_tables(F, dim, kind, edit, data):
    # random products, sparse and multi-term, and the associative quotient
    # tables K[x]/(f), each with at most one entry edited; the basis order
    # and the labels tried first vary the greedy generating set
    labels = [f"x{i}" for i in range(dim)]
    coeff = st.sampled_from(["1", "2", "-1", "0"]).map(F.parse)
    if kind == "random":
        mul = {(a, b): data.draw(st.dictionaries(st.sampled_from(labels), coeff, max_size=2))
               for a in labels for b in labels if data.draw(st.booleans())}
    else:
        mul = _quotient_table(F, labels, [data.draw(coeff) for _ in labels])
    products = [pair for pair, prod in mul.items() if any(c != F.zero for c in prod.values())]
    if edit != "none" and products:
        pair = data.draw(st.sampled_from(products))
        mul[pair] = _edit_product(F, el_norm(F, mul[pair]), edit, labels, data)
    alg = oracle.table_algebra(F, data.draw(st.permutations(labels)), mul)
    alg.first = data.draw(st.lists(st.sampled_from(labels), max_size=2))
    assert_associative_matches_oracle(alg)
    if kind == "quotient" and edit == "none":
        assert alg.associative


@functools.cache
def _smash(name):
    from conftest import m2_pair2_doc, z4_regular_doc
    from weakhopf.duality import VerificationContext
    from weakhopf.instances import parse_instance
    doc = m2_pair2_doc() if name == "m2-pair2" else z4_regular_doc()
    return VerificationContext(parse_instance(doc)).bsm


@given(st.sampled_from(["m2-pair2", "z4-regular"]), st.sampled_from(EDITS), st.data())
@settings(max_examples=40, deadline=None)
def test_associative_equals_oracle_on_edited_smash_products(name, edit, data):
    # B#KG of a non-commutative B and of Z/4 acting regularly, seeded with
    # the (b, g) for KG's generators, with one product entry edited
    from weakhopf.walg import FinAlgebra
    bsm = _smash(name)
    right = {a: dict(row) for a, row in bsm.right.items()}
    if edit != "none":
        a = data.draw(st.sampled_from(sorted(right)))
        b = data.draw(st.sampled_from(sorted(right[a])))
        right[a][b] = _edit_product(bsm.field, right[a][b], edit, bsm.basis, data)
        if not right[a][b]:  # a table stores no zero product
            del right[a][b]
    alg = FinAlgebra(bsm.field, bsm.basis, right, first=bsm.first)
    assert_associative_matches_oracle(alg)
    if edit == "none":
        assert alg.associative and alg.generators == bsm.generators


@pytest.mark.parametrize("p", [None, 2])
def test_checkers_equal_oracle_on_builtins(p):
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        ctx = context(name)
        assert_read_offs_match_oracle(ctx.groupoid, ctx.field if p is None else PrimeField(p))
        if p is None:
            for alg in (ctx.B, ctx.bsm, ctx.dsm):
                assert alg.associativity_violations() == oracle.associativity_violations(alg)
                assert_associative_matches_oracle(alg)


GENERATED = [pair_groupoid(n) for n in (1, 2, 3)] + [cyclic_group(n) for n in (2, 3, 4, 5)]
FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]


@given(st.sampled_from(GENERATED), st.sampled_from(FIELDS))
@settings(max_examples=15, deadline=None)
def test_checkers_equal_oracle_on_generated_groupoids(g, field):
    from conftest import groupoid_doc
    from weakhopf.instances import parse_instance
    inst = parse_instance(groupoid_doc(g, "generated", field))
    assert assert_read_offs_match_oracle(inst.groupoid, inst.field) == [[], []]
    assert inst.algebra.associativity_violations() == oracle.associativity_violations(inst.algebra)


def _edited(alg, co, edits):
    """(alg, co) as oracle tables with entries replaced, name and meta
    kept; each edit is (table, key, entry)."""
    mul, delta, unit = dict(alg.mul), dict(co.delta), dict(alg.unit)
    counit, antipode = dict(co.counit), dict(co.antipode)
    tables = {"mul": mul, "delta": delta, "counit": counit,
              "antipode": antipode, "unit": unit}
    for table, key, entry in edits:
        tables[table][key] = entry
    return (oracle.table_algebra(alg.field, alg.basis, mul, unit, alg.name, alg.meta),
            oracle.CoStructure(alg.field, delta, counit, antipode))


def _broken_i2(edits):
    """i2 with its composition table or morphism records edited: ("comp",
    (a, b), ab), ab None to drop the entry, or ("record", id, {field:
    value}) to replace src, tgt or inv."""
    g = builtin_i2()
    records, comp = {m.id: m for m in g.morphisms}, dict(g.comp)
    for kind, key, value in edits:
        if kind == "record":
            records[key] = replace(records[key], **value)
        elif value is None:
            del comp[key]
        else:
            comp[key] = value
    return Groupoid(g.objects, list(records.values()), comp)


def _sabotage(check, *edits, p=None, name=None, dual=False):
    """A case for the test below: i2 with edits of its composition table or
    records ("comp", "record"), which the engine and the oracle both
    judge, or KG of i2 with table edits that no groupoid expresses, an
    oracle self-test; over Q, or over GF(p).  check is a check that fails
    on KG, or with dual on KG*."""
    return pytest.param(check, edits, p, dual, id=name or check)


SABOTAGES = [
    # -- groupoid edits, judged by the engine and the oracle alike
    # g gi = y: (g gi) g = yg is undefined while g (gi g) = g, so KG is not
    # associative and KG* not coassociative
    _sabotage("associativity", ("comp", ("g", "gi"), "y")),
    _sabotage("coassociativity", ("comp", ("g", "gi"), "y"), dual=True),
    # x g left out: 1 g = y g = 0 misses g, and KG*'s counit law at g with it
    _sabotage("unit", ("comp", ("x", "g"), None), name="unit-missing-product"),
    _sabotage("counit-law", ("comp", ("x", "g"), None), dual=True, name="dual-counit-law"),
    # y's record runs from x and xy = y: the objects are not orthogonal, and
    # KG's weak unit fails, on a groupoid always with its flip (reversing
    # each term maps the one sum onto the other); without xy, yy is
    # undefined and y 1 = 0
    _sabotage("weak-unit", ("record", "y", {"src": "x"}), ("comp", ("x", "y"), "y")),
    _sabotage("weak-unit-flipped", ("record", "y", {"src": "x"}), ("comp", ("x", "y"), "x")),
    _sabotage("weak-unit", ("record", "y", {"src": "x"}), name="weak-unit-second-slice"),
    _sabotage("weak-counit", ("record", "y", {"src": "x"}), dual=True, name="dual-weak-counit"),
    # gi g = x: P[gi g] and P[g] differ, so KG's weak counit fails, and
    # KG*'s weak unit and its flip with it
    _sabotage("weak-counit", ("comp", ("gi", "g"), "x"), name="weak-counit-composition"),
    _sabotage("weak-unit", ("comp", ("gi", "g"), "x"), dual=True, name="dual-weak-unit"),
    _sabotage("weak-unit-flipped", ("comp", ("g", "gi"), "g"), dual=True,
              name="dual-weak-unit-flipped"),
    # g's inverse record is g itself: g S(g) = gg is undefined, and all
    # three identities fail at g
    _sabotage("antipode-sandwich", ("record", "g", {"inv": "g"})),
    # y gi left out: the left identity fails at gi (gi g = y, yet y gi is
    # undefined) and the sandwich at g; on KG* the left identity fails at
    # y and the sandwich at gi, the labels in one side and not the other
    _sabotage("antipode-left", ("comp", ("y", "gi"), None), name="antipode-left"),
    _sabotage("antipode-left", ("comp", ("y", "gi"), None), dual=True,
              name="dual-antipode-left"),
    # g y left out: only the right identity fails, at g on KG and at y on
    # KG*
    _sabotage("antipode-right", ("comp", ("g", "y"), None), name="antipode-right"),
    _sabotage("antipode-right", ("comp", ("g", "y"), None), dual=True,
              name="dual-antipode-right"),
    # y gi = y: on KG* only the sandwich fails, at y and gi
    _sabotage("antipode-sandwich", ("comp", ("y", "gi"), "y"), dual=True,
              name="dual-antipode-sandwich"),
    # g's inverse record is x: KG fails all three identities at g, and KG*
    # fails them at x, y and g
    _sabotage("antipode-left", ("record", "g", {"inv": "x"}), dual=True,
              name="dual-antipode-inverse-record"),
    # -- oracle self-tests: no groupoid has these tables (a counit of 2,
    # scalars other than 1, cancelling or extra coproduct legs, KG's counit
    # law or KG*'s coproduct multiplicativity broken), so only the oracle
    # judges them; the engine refuses the edited copy
    _sabotage("counit-law", ("counit", "g", Fraction(2))),
    _sabotage("weak-counit", ("counit", "x", Fraction(2))),
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
    _sabotage("weak-unit-flipped", ("delta", "y", [("x", "g", one)]),
              name="weak-unit-flipped-alone"),
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
    # delta(g) = x x g breaks KG's counit law, so the dual's unit is no
    # unit: both weak-unit checks fail there, while KG's weak counit,
    # compared with eps(x y1) eps(y2 z) and no unit, only flags the flip
    _sabotage("weak-unit", ("delta", "g", [("x", "g", one)]),
              dual=True, name="dual-weak-unit-without-counit-law"),
]


@pytest.mark.parametrize("check,edits,p,dual", SABOTAGES)
def test_sabotaged_table_is_caught_as_the_oracle_catches_it(check, edits, p, dual):
    # a groupoid edit builds a recorded KG and KG*, which the engine judges
    # as the oracle does; a table edit is refused by the engine and breaks
    # the check it names as the oracle reports
    field = QQ if p is None else PrimeField(p)
    if edits[0][0] in ("comp", "record"):
        assert check in assert_read_offs_match_oracle(_broken_i2(edits), field)[dual]
        return
    alg, co = _edited(*oracle_pair(field, builtin_i2()), edits)
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
    # KG*'s tables edited after the build: the product or unit of the
    # engine's KG*, or a coalgebra table of the oracle's KG*, which the
    # engine knows only as the record.  The composition index says nothing
    # of the edit, so the engine refuses the copy with KG*'s record, and
    # KG* with the edited tables, and still reads KG* itself as the oracle
    kg, kg_rec = groupoid_algebra(QQ, builtin_i2())
    kgstar, kgstar_rec = dual_weak_hopf(kg, kg_rec)
    dual, dual_co = _edited(kgstar, oracle_pair(QQ, builtin_i2(), dual=True)[1], [edit])
    for alg, co in ((dual, dual_co), (dual, kgstar_rec), (kgstar, dual_co)):
        assert_refused(alg, co)
    assert assert_read_offs_match_oracle(builtin_i2(), QQ) == [[], []]


@pytest.mark.parametrize("edit", [("mul", ("g", "g"), {"x": one}),
                                  ("delta", "g", [("g", "g", one), ("x", "x", one)]),
                                  ("counit", "x", 2 * one), ("unit", "g", one),
                                  ("antipode", "g", {"g": one})],
                         ids=["mul", "delta", "counit", "unit", "antipode"])
def test_groupoid_certificate_rejects_tampered_kg(edit):
    # KG's tables edited after groupoid_algebra, or KG's coalgebra tables
    # edited in the oracle's form: the engine refuses the edited copy, with
    # its tables or with KG's record, and KG with the edited tables
    genuine, genuine_rec = groupoid_algebra(QQ, builtin_i2())
    alg, co = _edited(genuine, oracle.groupoid_coalgebra(QQ, builtin_i2()), [edit])
    assert_tables_match_oracle(alg, co)
    for pair in ((alg, genuine_rec), (genuine, co)):
        assert_refused(*pair)
    assert genuine_rec.alg is genuine


def test_mismatched_pairs_carry_no_record():
    # the record names the algebra it was built with: a copy of KG next to
    # KG's record, KG next to KG*'s record or to coalgebra tables, and KG*
    # next to KG's record are all refused
    kg, kg_rec = groupoid_algebra(QQ, builtin_i2())
    kgstar, kgstar_rec = dual_weak_hopf(kg, kg_rec)
    copy, co = _edited(kg, oracle.groupoid_coalgebra(QQ, builtin_i2()), [])
    for alg, rec in ((copy, kg_rec), (kg, co), (kg, kgstar_rec), (kgstar, kg_rec)):
        assert getattr(rec, "alg", None) is not alg
        assert_refused(alg, rec)


def test_checks_on_kg_and_kgstar_of_z12_make_no_field_operations(monkeypatch):
    # a recorded KG and KG* read every verdict off the composition index;
    # reading tables would add and multiply
    from weakhopf import walg
    from weakhopf.exactmath import Rationals
    kg, kg_rec = groupoid_algebra(QQ, cyclic_group(12))
    kgstar, kgstar_rec = dual_weak_hopf(kg, kg_rec)
    calls, acc, mul = [], walg.acc, Rationals.mul
    monkeypatch.setattr(walg, "acc", lambda *args: calls.append("acc") or acc(*args))
    monkeypatch.setattr(Rationals, "mul", lambda *args: calls.append("mul") or mul(*args))
    for alg, rec in ((kg, kg_rec), (kgstar, kgstar_rec)):
        assert check_weak_bialgebra(alg, rec).ok and check_antipode(alg, rec).ok
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
            oracle.CoStructure(field, delta, counit, antipode))


@given(st.sampled_from([builtin_i2(), cyclic_group(3), pair_groupoid(2)]),
       st.booleans(), st.sampled_from(["mul", "delta", "counit", "antipode", "unit"]),
       st.sampled_from([QQ, PrimeField(3)]), st.data())
@settings(max_examples=60, deadline=None)
def test_checkers_equal_oracle_on_random_sabotage(g, dual, table, field, data):
    # KG's or KG*'s tables, in the oracle's form, with one entry drawn
    assert_tables_match_oracle(*_random_sabotage(oracle_pair(field, g, dual), table, field, data))


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
