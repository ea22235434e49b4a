import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (BASES, SABOTAGE_KINDS, compose, disjoint_union, pair_groupoid,
                      sabotaged_groupoid)
from weakhopf.groupoid import (Groupoid, GroupoidError, Morphism, builtin_i2,
                               cyclic_group, from_group, validate_groupoid)


def test_single_object_valid():
    g = Groupoid(["e"], [Morphism("e", "e", "e", "e")], {("e", "e"): "e"})
    assert validate_groupoid(g).ok


def test_builtin_i2_valid():
    g = builtin_i2()
    rep = validate_groupoid(g)
    assert rep.ok
    assert compose(g, "g", "gi") == "x"
    assert compose(g, "gi", "g") == "y"
    assert compose(g, "x", "x") == "x"
    assert compose(g, "g", "g") is None  # tgt(g)=y != src(g)=x


def test_i2_with_wrong_inverse_product_fails():
    g = builtin_i2()
    comp = dict(g.comp)
    comp[("g", "gi")] = "y"
    broken = Groupoid(g.objects, g.morphisms, comp)
    rep = validate_groupoid(broken)
    assert not rep.ok
    checks = rep.checks_failed()
    assert "inverse-right" in checks
    witnesses = [f.witness for f in rep.findings if f.check == "inverse-right"]
    assert "g" in witnesses


def defined_pairs(g):
    return [(a, b) for a in g.morphism_ids() for b, _ in g.after[a]]


def test_composable_pairs_i2():
    g = builtin_i2()
    pairs = defined_pairs(g)
    assert set(pairs) == {("x", "x"), ("x", "g"), ("g", "y"), ("g", "gi"),
                          ("y", "y"), ("y", "gi"), ("gi", "x"), ("gi", "g")}
    assert len(pairs) == 8
    assert pairs == defined_pairs(builtin_i2())  # deterministic order


def test_composable_pairs_group():
    g = cyclic_group(2)
    assert len(defined_pairs(g)) == 4


def test_compose_ignores_spurious_entry():
    g = builtin_i2()
    g = Groupoid(g.objects, g.morphisms, {**g.comp, ("g", "g"): "x"})
    assert compose(g, "g", "g") is None  # tgt(g) = y != src(g) = x
    assert compose(g, "g", "gi") == "x"
    assert "composition-spurious" in validate_groupoid(g).checks_failed()


def test_compose_unknown_id():
    g = builtin_i2()
    with pytest.raises(GroupoidError):
        compose(g, "g", "nope")


def test_from_group_z2():
    g = cyclic_group(2)
    assert len(g.objects) == 1
    assert len(g.morphisms) == 2
    assert validate_groupoid(g).ok


def test_from_group_rejects_non_group():
    elements = ["e", "a"]
    bad = {(x, y): "e" for x in elements for y in elements}  # constant, no identity on a
    with pytest.raises(GroupoidError):
        from_group(elements, bad)
    monoid = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    with pytest.raises(GroupoidError):  # a has no inverse
        from_group(elements, monoid)
    with pytest.raises(GroupoidError):  # a product outside the elements
        from_group(elements, {**cyclic_group(2).comp, ("a", "a"): "b"})


def test_from_group_rejects_non_associative():
    # a "subtraction table" is not associative
    els = ["0", "1", "2"]
    table = {(a, b): str((int(a) - int(b)) % 3) for a in els for b in els}
    with pytest.raises(GroupoidError):
        from_group(els, table)
    # but it has no two-sided identity either, so it is rejected before
    # associativity is looked at; this loop of order 5 has identity 0 and
    # every element is its own inverse, and (1*1)*2 = 2 != 4 = 1*(1*2)
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    els = [str(i) for i in range(5)]
    table = {(els[i], els[j]): str(c) for i, row in enumerate(rows) for j, c in enumerate(row)}
    with pytest.raises(GroupoidError, match="associativ"):
        from_group(els, table)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid(n):
    g = pair_groupoid(n)
    assert len(g.objects) == n
    assert len(g.morphisms) == n * n
    assert validate_groupoid(g).ok
    for e in g.objects:
        for f in g.objects:
            assert len(g.hom(e, f)) == 1


def test_disjoint_union():
    g = disjoint_union(cyclic_group(2), builtin_i2())
    assert len(g.objects) == 3
    assert len(g.morphisms) == 6
    assert validate_groupoid(g).ok
    for a in g.morphism_ids():
        for b in g.morphism_ids():
            if a.startswith("l.") != b.startswith("l."):
                assert compose(g, a, b) is None


def test_inverse_involution_everywhere():
    for g in (builtin_i2(), cyclic_group(3), pair_groupoid(2)):
        for m in g.morphism_ids():
            assert g.inv(g.inv(m)) == m


def test_product_endpoint_bookkeeping():
    for g in (builtin_i2(), pair_groupoid(3)):
        for a, b in defined_pairs(g):
            c = compose(g, a, b)
            assert g.src(c) == g.src(a)
            assert g.tgt(c) == g.tgt(b)


def test_dangling_reference_is_input_error():
    with pytest.raises(GroupoidError):
        Groupoid(["e"], [Morphism("e", "e", "e", "missing")], {})
    with pytest.raises(GroupoidError):
        Groupoid(["e"], [Morphism("e", "e", "bad", "e")], {})
    with pytest.raises(GroupoidError):
        Groupoid(["e"], [], {})  # object without identity record


@given(st.sampled_from(BASES), st.one_of(st.none(), st.sampled_from(BASES)),
       st.lists(st.sampled_from(SABOTAGE_KINDS), max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_validator_equals_all_pairs_oracle_on_random_sabotage(g, other, kinds, data):
    # drop a composition entry, add one for a non-composable pair, change a
    # product, or change a morphism's inv, src or tgt; the findings, witness
    # and detail included, must come out as the all-pairs oracle gives them
    if other is not None:
        g = disjoint_union(g, other)
    broken = sabotaged_groupoid(g, kinds, data)
    comp, ids = broken.comp, broken.morphism_ids()
    for a in ids:
        assert broken.after[a] == [(b, comp[(a, b)]) for b in ids if broken.tgt(a) == broken.src(b)
                                   and (a, b) in comp]
    for e in g.objects:
        assert broken.leaving[e] == [a for a in ids if broken.src(a) == e]
    rep, ref = validate_groupoid(broken), oracle.validate_groupoid(broken)
    assert rep.findings == ref.findings
    assert rep.info == ref.info
    assert rep.ok or kinds
