from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import (ACTION_SABOTAGE_KINDS, disjoint_union, groupoid_doc, m2_doc, mk_doc,
                      pair_groupoid, sabotaged_action, skew_ring, z4_regular_doc)
from weakhopf.action import check_module_algebra, component_decomposition, derive_dfap_action
from weakhopf.groupoid import builtin_i2, cyclic_group
from weakhopf.instances import builtin_doc, parse_instance
from weakhopf.walg import groupoid_algebra

one = Fraction(1)


def test_trivial_action_passes(ctx_z2):
    assert ctx_z2.module_report.ok
    assert ctx_z2.decomp_report.ok
    assert ctx_z2.decomp.idempotents["e"] == {"b": one}


def test_i2_swap_action_passes(ctx_i2):
    assert ctx_i2.module_report.ok


def test_i2_swap_decomposition(ctx_i2):
    d = ctx_i2.decomp
    assert d.idempotents["x"] == {"e1": one}
    assert d.idempotents["y"] == {"e2": one}
    assert d.component_of == {"e1": "x", "e2": "y"}
    assert d.homogeneous
    assert ctx_i2.decomp_report.info["component_dims"] == {"x": 1, "y": 1}


def test_ex28_action_fails_with_witnesses(ctx_ex28):
    rep = ctx_ex28.module_report
    assert not rep.ok
    checks = rep.checks_failed()
    assert "module-axiom-i" in checks   # e.g. s.(t.e1) = e1 but u_s u_t = 0
    assert "module-axiom-ii" in checks
    ii = [f.witness for f in rep.findings if f.check == "module-axiom-ii"]
    assert ["t", "e2", "e3"] in ii
    # axiom (iii) does hold for this action
    assert "module-axiom-iii" not in checks


def test_ex28_idempotent_flagged_over_q(ctx_ex28):
    rep = ctx_ex28.decomp_report
    assert not rep.ok
    assert "idempotent" in rep.checks_failed()
    # s.1_B = 2 e1 + e2 is not idempotent over the rationals
    assert ctx_ex28.decomp.idempotents["s"] == {"e1": Fraction(2), "e2": one}


def test_ex28_gf2_idempotents_fine_but_sum_short(ctx_ex28_gf2):
    rep = ctx_ex28_gf2.decomp_report
    checks = rep.checks_failed()
    assert "idempotent" not in checks
    assert "orthogonal" not in checks
    assert "direct-sum" in checks          # e3 is covered by no component
    assert ctx_ex28_gf2.decomp.component_of["e3"] is None


def test_ex28_gf2_action_still_fails_axioms(ctx_ex28_gf2):
    checks = ctx_ex28_gf2.module_report.checks_failed()
    assert "module-axiom-i" in checks
    assert "module-axiom-ii" in checks


def test_derived_action_i2(ctx_i2):
    dfap, rep = ctx_i2.dfap
    assert rep.ok
    # beta_g maps the y-component onto the x-component: e2 -> e1
    assert dfap.ideal_labels == {"x": ["e1"], "y": ["e2"], "g": ["e1"], "gi": ["e2"]}
    B = ctx_i2.B
    assert [B.from_vector(v) for v in dfap.iso_images["g"]] == [{"e1": one}]
    assert [B.from_vector(v) for v in dfap.iso_images["gi"]] == [{"e2": one}]
    # identities act as the identity on their own component
    assert [B.from_vector(v) for v in dfap.iso_images["x"]] == [{"e1": one}]


def test_derived_action_composition_axiom(ctx_i2):
    # beta_g . beta_gi is the identity on the x-component
    F = ctx_i2.field
    act = ctx_i2.action
    e1 = {"e1": F.one}
    assert act.act({"g": F.one}, act.act({"gi": F.one}, e1)) == e1


def test_skew_ring_i2(ctx_i2):
    skew = skew_ring(ctx_i2)
    assert oracle.LabelView(ctx_i2).skew[0] == [("e1", "x"), ("e2", "y"), ("e1", "g"), ("e2", "gi")]
    # (e1 d_g)(e2 d_gi) = e1 beta_g(e2) d_x = e1 d_x
    assert skew.basis_product(("e1", "g"), ("e2", "gi")) == {("e1", "x"): one}
    # non-composable symbols multiply to zero
    assert skew.basis_product(("e1", "g"), ("e1", "g")) == {}
    assert skew.associativity_violations() == []


def test_skew_ring_group_case_matches_group_algebra(ctx_z2):
    skew = skew_ring(ctx_z2)
    kg = ctx_z2.kg
    # relabel (b, m) -> m: structure constants must match the group algebra
    for (b1, m1) in skew.basis:
        for (b2, m2) in skew.basis:
            got = skew.basis_product((b1, m1), (b2, m2))
            want = {("b", lab): c for lab, c in kg.basis_product(m1, m2).items()}
            assert got == want


def test_skew_ring_unavailable_when_basis_inhomogeneous(ctx_ex28):
    skew, err = ctx_ex28.skew
    assert skew is None
    assert "homogeneous" in err


def test_module_check_requires_unital_b(ctx_i2):
    from weakhopf.walg import FinAlgebra
    nob = FinAlgebra(ctx_i2.field, ["e1"], {}, None)
    with pytest.raises(ValueError):
        check_module_algebra(nob, ctx_i2.kg, ctx_i2.action)


def test_decomposition_holds_whenever_action_validates():
    # the decomposition claims follow from the module axioms: checked as an
    # implication across the library
    from conftest import context
    for name in ("z2-trivial", "z3-trivial", "i2-swap"):
        ctx = context(name)
        if ctx.module_report.ok:
            assert ctx.decomp_report.ok
            dfap, rep = ctx.dfap
            assert rep.ok


# -- the action layer against the dense oracle --------------------------------

ACTION_BASES = {
    "pair3": lambda: groupoid_doc(pair_groupoid(3), "pair3"),
    "pair2-k2": lambda: groupoid_doc(pair_groupoid(2), "pair2-k2", k=2),
    "z3": lambda: groupoid_doc(cyclic_group(3), "z3"),
    "i2-pair1": lambda: groupoid_doc(disjoint_union(builtin_i2(), pair_groupoid(1)), "i2-pair1"),
    "z4-regular": z4_regular_doc,
    "m2-pair2": lambda: m2_doc(pair_groupoid(2), "m2-pair2"),
    "m2-pair3": lambda: m2_doc(pair_groupoid(3), "m2-pair3"),
    "m2-z2": lambda: m2_doc(cyclic_group(2), "m2-z2"),
    "m3-pair2": lambda: mk_doc(2, 3),
    "ex2.8": lambda: builtin_doc("ex2.8"),
}
FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]


def assert_action_layer_matches_oracle(doc):
    """The module-algebra check, the decomposition and the derived action
    equal the dense oracle's: report title, findings in order, notes and
    info, and the decomposition and derived action themselves."""
    inst = parse_instance(doc)
    B, act = inst.algebra, inst.action
    kg, _ = groupoid_algebra(inst.field, inst.groupoid)
    assert ({(m, x): mx for m, row in act.rho.items() for x, mx in row.items()}
            == {(m, x): mx for x, col in act.by_label.items() for m, mx in col.items()})
    kg_co = oracle.groupoid_coalgebra(inst.field, inst.groupoid)
    assert check_module_algebra(B, kg, act) == oracle.check_module_algebra(B, kg, kg_co, act)
    got, got_rep = component_decomposition(B, act)
    want, want_rep = oracle.component_decomposition(B, kg, act)
    assert got_rep == want_rep
    assert (got.idempotents, got.component_of, got.homogeneous) == (
        want.idempotents, want.component_of, want.homogeneous)
    assert {e: ech.rows for e, ech in got.spans.items()} == {
        e: ech.rows for e, ech in want.spans.items()}
    assert derive_dfap_action(B, act, got) == oracle.derive_dfap_action(B, kg, act, want)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("base", ACTION_BASES)
def test_action_layer_equals_oracle_on_the_bases(base, field):
    assert_action_layer_matches_oracle({**ACTION_BASES[base](), "field": field})


@given(st.sampled_from(sorted(ACTION_BASES)), st.sampled_from(FIELDS),
       st.lists(st.sampled_from(ACTION_SABOTAGE_KINDS), min_size=1, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_action_layer_equals_oracle_on_sabotaged_actions(base, field, kinds, data):
    doc = {**ACTION_BASES[base](), "field": field}
    assert_action_layer_matches_oracle(sabotaged_action(doc, kinds, data))


def test_module_check_on_pair8_is_linear_in_the_composable_triples(monkeypatch):
    # (i) evaluates two sides per composable triple; (ii) and (iii) a few
    # per morphism.  The all-triples walk visits n^4 * dim B = 32,768 triples
    from weakhopf import action
    n = 8
    inst = parse_instance(groupoid_doc(pair_groupoid(n), "pair8"))
    kg, _ = groupoid_algebra(inst.field, inst.groupoid)
    calls, el_apply, act = [], action.el_apply, action.ModuleAction.act
    monkeypatch.setattr(action, "el_apply", lambda *args: calls.append(1) or el_apply(*args))
    monkeypatch.setattr(action.ModuleAction, "act",
                        lambda *args: calls.append(1) or act(*args))
    assert check_module_algebra(inst.algebra, kg, inst.action).ok
    assert len(calls) <= 3 * n ** 3
