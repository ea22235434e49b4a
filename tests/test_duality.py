from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disjoint_union, pair_groupoid
from oracle import LabelView, kernel_vectors, sparse_subspace_equal as subspace_equal, stratum_vectors
from weakhopf.duality import (COMPLEMENT_STRATA, IMAGE_STRATA, KERNEL_STRATA,
                              UNCLASSIFIED, UNITAL_STRATA, VerificationContext,
                              classify, kernel_and_image, label_str,
                              phi_is_homomorphism, right_linearity, LinearMapRep)
from weakhopf.groupoid import builtin_i2, cyclic_group
from weakhopf.instances import builtin_doc, parse_instance

one = Fraction(1)


# -- classifier ---------------------------------------------------------------


def test_classify_non_composable_is_a3():
    g = builtin_i2()
    assert classify(g, "x", "g", "g", True) == "A3"


def test_classify_group_loop_is_a1():
    g = cyclic_group(2)
    assert classify(g, "e", "a", "a", True) == "A1"


def test_classify_image_vector_under_non_loop():
    # e1 = g.e2 sits in the component at src(g); with both hom-sets
    # inhabited this is the unital corner outside the loops
    g = builtin_i2()
    assert classify(g, "x", "g", "gi", True) == "A7"
    assert classify(g, "x", "g", "y", True) == "A7"


def test_classify_kernel_vectors():
    g = builtin_i2()
    # component at tgt(g), not an image vector: reachable kernel stratum
    assert classify(g, "y", "g", "y", False) == "A6"
    # component unrelated to a loop morphism but reachable
    assert classify(g, "y", "x", "x", False) == "A6"


def test_classify_unreachable_component_is_a4():
    # disjoint union: nothing maps from the left piece into the right one
    g = disjoint_union(cyclic_group(2), builtin_i2())
    assert classify(g, "r.x", "l.a", "l.a", False) == "A4"


def test_classify_inhomogeneous_is_unclassified():
    g = builtin_i2()
    assert classify(g, None, "g", "gi", True) == UNCLASSIFIED


def test_i2_strata_table(ctx_i2):
    assert ctx_i2.strata_dims == {
        "A1": 4, "A2": 0, "A3": 16, "A4": 0, "A5": 0, "A6": 8,
        "A7": 4, "A8": 0, "A9": 0, "A10": 0, "unclassified": 0,
    }
    cls = {lab: name for name, labels in LabelView(ctx_i2).strata.items() for lab in labels}
    assert cls[("e1", "x", "x")] == "A1"
    assert cls[("e2", "y", "gi")] == "A1"
    assert cls[("e1", "g", "gi")] == "A7"
    assert cls[("e2", "gi", "x")] == "A7"
    assert cls[("e2", "g", "y")] == "A6"
    assert cls[("e1", "gi", "g")] == "A6"
    assert cls[("e1", "g", "g")] == "A3"


def test_classify_runs_once_per_class(monkeypatch):
    # two idempotents per object: the labels of one class differ in b only
    from conftest import groupoid_doc
    from weakhopf import duality
    ctx = _fresh(groupoid_doc(pair_groupoid(3), "pair3-k2", k=2))
    ctx.dsm
    calls, classify_ = [], duality.classify

    def counted(*args):
        calls.append(args[1:])
        return classify_(*args)
    monkeypatch.setattr(duality, "classify", counted)
    assert sum(ctx.strata_dims.values()) == ctx.dsm.dim
    assert 0 < len(calls) == len(set(calls)) < ctx.dsm.dim


def test_group_strata_all_a1(ctx_z2, ctx_z3):
    assert ctx_z2.strata_dims["A1"] == 4
    assert ctx_z3.strata_dims["A1"] == 9
    assert ctx_z3.strata_dims[UNCLASSIFIED] == 0


def test_ex28_gf2_strata(ctx_ex28_gf2):
    dims = ctx_ex28_gf2.strata_dims
    assert dims["A1"] == 4 and dims["A7"] == 4 and dims["A3"] == 16
    assert dims[UNCLASSIFIED] == 24


# -- phi ------------------------------------------------------------------------


def test_phi_column_zero_when_legs_non_composable(ctx_i2):
    # (g, g) is not composable, so the endomorphism is zero
    assert not LabelView(ctx_i2).phi.columns.get(("e1", "g", "g"))


def test_phi_column_supported_on_matching_slice(ctx_i2):
    endo = LabelView(ctx_i2).phi.columns[("e1", "g", "gi")]
    assert set(endo) == {("e2", "gi")}
    assert endo[("e2", "gi")] == {("e1", "x"): one}


def test_phi_bijective_for_groups(ctx_z2, ctx_z3):
    assert ctx_z2.ki.dims == {"domain": 4, "kernel": 0, "image": 4}
    assert ctx_z3.ki.dims == {"domain": 9, "kernel": 0, "image": 9}


def test_phi_matrix_rank_oracle(ctx_z2):
    # explicit matrix-rank oracle for the classical case
    from oracle import flatten, rank
    assert rank(flatten(ctx_z2.phi)) == 4


def test_kernel_dims_i2(ctx_i2):
    assert ctx_i2.ki.dims == {"domain": 32, "kernel": 24, "image": 8}


def test_kernel_matches_classifier_on_i2(ctx_i2):
    vecs = stratum_vectors(ctx_i2, KERNEL_STRATA)
    assert subspace_equal(ctx_i2.field, kernel_vectors(ctx_i2), vecs)


def test_rank_nullity_everywhere(ctx_i2, ctx_z2, ctx_z3, ctx_ex28, ctx_ex28_gf2):
    for ctx in (ctx_i2, ctx_z2, ctx_z3, ctx_ex28, ctx_ex28_gf2):
        d = ctx.ki.dims
        assert d["kernel"] + d["image"] == d["domain"] == ctx.dsm.dim


def test_phi_is_homomorphism_on_valid_instances(ctx_i2, ctx_z2):
    assert phi_is_homomorphism(ctx_i2.phi, ctx_i2.dsm).ok
    assert phi_is_homomorphism(ctx_z2.phi, ctx_z2.dsm).ok


def test_sabotaged_phi_fails_homomorphism(ctx_z2):
    # drop the evaluation filter: every column acts on every slice
    phi = ctx_z2.phi
    F = ctx_z2.field
    bsm = ctx_z2.bsm
    M = len(ctx_z2.kg.basis)
    columns = {}
    for x in phi.domain_basis:  # the position of (a, g, h), with (a, g) at x // M
        col = {}
        for y in bsm.basis:
            img = bsm.multiply({x // M: F.one}, {y: F.one})
            if img:
                col[y] = img
        columns[x] = col
    broken = LinearMapRep(F, list(phi.domain_basis), list(phi.codomain_basis), columns)
    rep = phi_is_homomorphism(broken, ctx_z2.dsm)
    assert not rep.ok


def test_phi_image_right_linear_on_valid_instances(ctx_i2, ctx_z2):
    assert right_linearity(ctx_i2.phi, ctx_i2.bsm, ctx_i2.B).ok
    assert right_linearity(ctx_z2.phi, ctx_z2.bsm, ctx_z2.B).ok


def test_compose_endos_order(ctx_z2):
    # phi(x) phi(y) must mean "apply phi(y) first"
    from oracle import compose_endos
    view = LabelView(ctx_z2)
    phi = view.phi
    exy = compose_endos(phi, phi.columns[("b", "a", "a")], phi.columns[("b", "a", "e")])
    prod = view.dsm.basis_product(("b", "a", "a"), ("b", "a", "e"))
    assert phi.apply(prod) == exy


# -- identity candidates ----------------------------------------------------------


def test_identity_candidates_z2(ctx_z2):
    view = LabelView(ctx_z2)
    assert view.y_obj == {("b", "e", "e"): one, ("b", "e", "a"): one}
    assert view.y_morph == {("b", "e", "e"): Fraction(2), ("b", "e", "a"): Fraction(2)}
    # the object sum is a two-sided identity of the whole 4-dim algebra
    for z in ctx_z2.dsm.basis:
        ez = {z: one}
        assert ctx_z2.dsm.multiply(ctx_z2.y_obj, ez) == ez
        assert ctx_z2.dsm.multiply(ez, ctx_z2.y_obj) == ez


def test_identity_candidates_trivial_group():
    doc = {
        "name": "triv", "field": {"kind": "rational"},
        "groupoid": {"objects": ["e"],
                     "morphisms": [{"id": "e", "src": "e", "tgt": "e", "inv": "e"}],
                     "composition": [["e", "e", "e"]]},
        "algebra": {"basis": ["b"], "unit": {"b": "1"},
                    "multiplication": [["b", "b", {"b": "1"}]]},
        "action": [["e", "b", {"b": "1"}]],
    }
    ctx = LabelView(VerificationContext(parse_instance(doc)))
    assert ctx.y_obj == ctx.y_morph == {("b", "e", "e"): one}


def test_identity_candidates_i2(ctx_i2):
    # object sum: one idempotent per object, dual legs tailing off src
    ctx_i2 = LabelView(ctx_i2)
    assert ctx_i2.y_obj == {("e1", "x", "x"): one, ("e1", "x", "g"): one,
                            ("e2", "y", "y"): one, ("e2", "y", "gi"): one}
    extra = {("e1", "y", "y"): one, ("e1", "y", "gi"): one,
             ("e2", "x", "x"): one, ("e2", "x", "g"): one}
    want = dict(ctx_i2.y_obj)
    want.update(extra)
    assert ctx_i2.y_morph == want


def test_ex28_morphism_sum_extends_displayed_identity(ctx_ex28):
    # the four displayed terms: (g.1_B) # u_t # (r_t + r_gi) plus
    # (gi.1_B) # u_s # (r_s + r_g); the all-morphism sum adds the
    # object-indexed terms on top of them
    ctx_ex28 = LabelView(ctx_ex28)
    F = ctx_ex28.field
    act = ctx_ex28.action
    displayed = {}
    for l, u, tails in (("g", "t", ("t", "gi")), ("gi", "s", ("s", "g"))):
        img = act.act({l: F.one}, ctx_ex28.B.unit)
        for n in tails:
            for lab, c in img.items():
                displayed[(lab, u, n)] = F.add(displayed.get((lab, u, n), F.zero), c)
    combined = dict(ctx_ex28.y_obj)
    for k, v in displayed.items():
        combined[k] = F.add(combined.get(k, F.zero), v)
    assert ctx_ex28.y_morph == combined


def test_passing_candidates_supported_in_corner_are_idempotent(ctx_i2, ctx_z2, ctx_z3):
    for ctx in (ctx_i2, ctx_z2, ctx_z3):
        corner = set(ctx.stratum_labels(("A1", "A7", "A10")))
        for y in (ctx.y_morph, ctx.y_obj):
            identity = all(
                ctx.dsm.multiply(y, {z: one}) == {z: one}
                and ctx.dsm.multiply({z: one}, y) == {z: one}
                for z in corner)
            if identity and set(y) <= corner:
                assert ctx.dsm.multiply(y, y) == y


# -- psi ----------------------------------------------------------------------


def test_thm29_numbers_i2(ctx_i2):
    res = ctx_i2.verify("thm2.9")
    assert res.holds and not res.conditional
    assert res.dimensions == {"skew_smash_dim": 16, "D1": 8, "C": 8,
                              "phi_psi_C": 8, "kernel_phi_psi": 8,
                              "B0": 4, "A1": 4}


def test_thm29_group_bijection(ctx_z2):
    res = ctx_z2.verify("thm2.9")
    assert res.holds
    assert res.dimensions["D1"] == 0
    assert res.dimensions["skew_smash_dim"] == ctx_z2.dsm.dim == 4


# -- claim drivers ---------------------------------------------------------------


def test_all_claims_pass_on_valid_library(ctx_i2, ctx_z2, ctx_z3):
    for ctx in (ctx_i2, ctx_z2, ctx_z3):
        for res in ctx.verify_all():
            assert res.holds, (ctx.instance.name, res.claim, res.witnesses)
            assert not res.conditional


def test_claims_complete_with_diagnostics_on_ex28(ctx_ex28, ctx_ex28_gf2):
    for ctx in (ctx_ex28, ctx_ex28_gf2):
        results = ctx.verify_all()
        assert all(r.conditional for r in results)
        assert any(not r.holds for r in results)
        diags = ctx.diagnostics
        assert any("module-axiom-ii" in d for d in diags)
        assert any("classification partial" in d for d in diags)


def test_ex28_over_q_reports_empty_a6_and_kernel_mismatch(ctx_ex28):
    res = ctx_ex28.verify("thm2.2")
    assert res.dimensions["strata"]["A6"] == 0
    assert res.dimensions["kernel"] == 32
    assert not res.holds  # nothing classifies, so the span comparison fails
    assert res.witnesses


def test_unknown_claim_rejected(ctx_z2):
    with pytest.raises(ValueError):
        ctx_z2.verify("thm9.9")


def test_kernel_strata_never_meet_image_strata(ctx_i2, ctx_z2, ctx_z3, ctx_ex28_gf2):
    # no label of an image stratum is in the kernel: its phi column is nonzero
    for ctx in (ctx_i2, ctx_z2, ctx_z3, ctx_ex28_gf2):
        if not ctx.module_report.ok:
            continue
        for lab in ctx.stratum_labels(("A1", "A2", "A7", "A8", "A9", "A10")):
            assert ctx.phi.columns.get(lab)


# -- the sparse kernel and image against the dense oracle ----------------------


def _assert_kernel_and_image_match_oracle(ctx):
    import oracle
    F, phi = ctx.field, ctx.phi
    kernel, image, _ = oracle.kernel_and_image(phi)
    n_dom = len(phi.domain_basis)
    assert [oracle.dense(v, n_dom, F) for v in oracle.kernel_vectors(ctx)] == kernel
    assert ctx.ki.dims["image"] == len(image)


def _generated(name):
    from conftest import groupoid_doc
    g = {"pair2": pair_groupoid(2), "z3": cyclic_group(3),
         "pair2+z3": disjoint_union(pair_groupoid(2), cyclic_group(3))}[name]
    return VerificationContext(parse_instance(groupoid_doc(g, name)))


@pytest.mark.parametrize("name", ["z2-trivial", "z3-trivial", "i2-swap", "ex2.8",
                                  "ex2.8-gf2", "pair2", "z3", "pair2+z3"])
def test_kernel_and_image_equal_dense_oracle(name):
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    _assert_kernel_and_image_match_oracle(
        context(name) if name in BUILTIN_NAMES else _generated(name))


_I2 = builtin_doc("i2-swap")
_I2_KEYS = [(m["id"], b) for m in _I2["groupoid"]["morphisms"]
            for b in _I2["algebra"]["basis"]]
_coeff = st.integers(min_value=-2, max_value=2)


@given(st.lists(st.tuples(_coeff, _coeff), min_size=len(_I2_KEYS), max_size=len(_I2_KEYS)),
       st.sampled_from([{"kind": "rational"}, {"kind": "prime", "p": 7}]))
@settings(max_examples=25, deadline=None)
def test_kernel_and_image_equal_dense_oracle_on_random_actions(values, field):
    # any action table, valid or not, gives a phi whose kernel and image
    # the sparse and the dense elimination must agree on
    doc = dict(_I2, field=field)
    doc["action"] = [[m, b, {"e1": str(x), "e2": str(y)}]
                     for (m, b), (x, y) in zip(_I2_KEYS, values)]
    _assert_kernel_and_image_match_oracle(VerificationContext(parse_instance(doc)))


@pytest.mark.parametrize("name", ["z2-trivial", "z3-trivial", "i2-swap", "ex2.8",
                                  "ex2.8-gf2", "pair2", "z3", "pair2+z3"])
def test_kernel_ideal_witnesses_equal_all_labels_oracle(name):
    import oracle
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    ctx = context(name) if name in BUILTIN_NAMES else _generated(name)
    assert ctx.kernel_ideal_witnesses() == oracle.kernel_ideal_witnesses(ctx)


def test_kernel_ideal_witnesses_equal_oracle_on_broken_composition():
    import oracle
    from conftest import groupoid_doc, spurious_i2_doc
    wrong = groupoid_doc(pair_groupoid(2), "wrong")
    for entry in wrong["groupoid"]["composition"]:
        if entry[:2] == ["m1_2", "m2_1"]:
            entry[2] = "m1_2"
    for doc in (wrong, spurious_i2_doc()):
        ctx = VerificationContext(parse_instance(doc))
        assert ctx.kernel_ideal_witnesses() == oracle.kernel_ideal_witnesses(ctx)


# -- phi's checks, the closure test and the claims against the oracle ---------


def _findings(rep):
    return rep.title, [(f.check, f.witness) for f in rep.findings]


def assert_duality_matches_oracle(ctx):
    """phi's two checks, the closure test and the thm2.2, thm2.6, rem2.7 and
    thm2.9 verdicts equal the all-pairs, kernel-echelon and subspace_equal
    forms."""
    import oracle
    phi, view = ctx.phi, LabelView(ctx)
    assert _findings(phi_is_homomorphism(phi, ctx.dsm, ctx.validated)) \
        == _findings(oracle.phi_is_homomorphism(view.phi, view.dsm))
    assert _findings(right_linearity(phi, ctx.bsm, ctx.B, ctx.validated)) \
        == _findings(oracle.right_linearity(view.phi, view.bsm, ctx.B))
    for names in (UNITAL_STRATA, IMAGE_STRATA, COMPLEMENT_STRATA):
        assert ctx._closure_check(names) == oracle.closure_witnesses(view, names)
    for cid, ref in (("thm2.2", oracle.verify_thm2_2), ("thm2.6", oracle.verify_thm2_6),
                     ("rem2.7", oracle.verify_rem2_7), ("thm2.9", oracle.verify_thm2_9)):
        got, want = ctx.verify(cid), ref(view)
        assert got.to_json() == want.to_json()
        assert got.witnesses == want.witnesses


def _fresh(doc):
    return VerificationContext(parse_instance(doc))


def _walked(phi):
    """phi's columns as a map with no B#KG record, so that phi's two checks
    walk even on a validated instance."""
    return LinearMapRep(phi.field, phi.domain_basis, phi.codomain_basis, phi.columns)


def test_duality_equals_oracle_on_builtins():
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        ctx = _fresh(builtin_doc(name))
        assert_duality_matches_oracle(ctx)
        if name == "ex2.8":
            assert ctx.verify("thm2.2").witnesses  # so the comparison shows


def test_closure_walk_runs_once_per_label_set(monkeypatch):
    # on z4-regular S and the unital corner are both A1, and T is empty
    from conftest import z4_regular_doc
    from weakhopf import duality
    ctx = _fresh(z4_regular_doc())
    walks, walk = [], duality.closure_witnesses

    def counted(dsm, labels):
        walks.append(tuple(labels))
        return walk(dsm, labels)
    monkeypatch.setattr(duality, "closure_witnesses", counted)
    ctx.verify_all()
    assert len(walks) == len(set(walks)) == 2


def _wrong_twice_doc():
    # pair(2) with m1_2 * o2 wrong as well: two products of one left
    # factor escape, so the order of the right factors shows
    from conftest import wrong_composition_doc
    twice = wrong_composition_doc(2)
    next(e for e in twice["groupoid"]["composition"] if e[:2] == ["m1_2", "o2"])[2] = "o1"
    return twice


def test_closure_and_claims_equal_oracle_on_broken_composition():
    from conftest import spurious_i2_doc, wrong_composition_doc
    twice = _wrong_twice_doc()
    docs = [wrong_composition_doc(2), wrong_composition_doc(3), twice, spurious_i2_doc()]
    for doc in docs:
        assert_duality_matches_oracle(_fresh(doc))
    ctx = _fresh(twice)
    lefts = [w["product_escapes"][0] for w in ctx._closure_check(UNITAL_STRATA)]
    assert len(lefts) > len(set(lefts))


def test_closure_witnesses_do_not_depend_on_row_order():
    # the double smash emits each row in basis order; the witnesses of a
    # table with every row reversed must still come in basis order
    from weakhopf.duality import closure_witnesses
    from weakhopf.walg import FinAlgebra
    ctx = _fresh(_wrong_twice_doc())
    dsm, labels = ctx.dsm, ctx.stratum_labels(UNITAL_STRATA)
    flipped = FinAlgebra(dsm.field, dsm.basis,
                         {x: dict(reversed(row.items())) for x, row in dsm.right.items()},
                         label=dsm.label)
    assert closure_witnesses(flipped, labels) == closure_witnesses(dsm, labels)


GENERATED = ([pair_groupoid(n) for n in (1, 2, 3)] + [cyclic_group(n) for n in (2, 3, 4, 5)]
             + [disjoint_union(pair_groupoid(2), cyclic_group(3))])
GENERATED_IDS = ["pair1", "pair2", "pair3", "z2", "z3", "z4", "z5", "pair2+z3"]
FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]


@given(st.sampled_from(GENERATED), st.sampled_from(FIELDS))
@settings(max_examples=20, deadline=None)
def test_duality_equals_oracle_on_generated_groupoids(g, field):
    from conftest import groupoid_doc
    assert_duality_matches_oracle(_fresh(groupoid_doc(g, "generated", field)))


# -- the report's phi sections: read off B#KG's associativity, or walked ------


def _right_zero_doc(n):
    """Z/n's records with a * b = b: a broken groupoid (a * e = e) whose B#KG
    is associative, over B = K, while right-linearity fails."""
    from conftest import groupoid_doc
    doc = groupoid_doc(cyclic_group(n), f"right-zero-z{n}")
    for entry in doc["groupoid"]["composition"]:
        entry[2] = entry[1]
    return doc


def _report_docs():
    import conftest
    from weakhopf.instances import BUILTIN_NAMES
    docs = {name: builtin_doc(name) for name in BUILTIN_NAMES}
    docs.update({f"generated-{i}": conftest.groupoid_doc(g, i)
                 for i, g in zip(GENERATED_IDS, GENERATED)})
    docs.update({"m2-pair2": conftest.m2_pair2_doc(),
                 "m2-z2": conftest.m2_doc(cyclic_group(2), "m2-z2"),
                 "m2-pair2-gf2": conftest.m2_doc(pair_groupoid(2), "m2", {"kind": "prime", "p": 2}),
                 "z4-regular": conftest.z4_regular_doc(), "half-unit-z2": conftest.half_unit_z2_doc(),
                 "spurious-i2": conftest.spurious_i2_doc(), "twin-identity": conftest.twin_identity_doc(),
                 "wrong-composition-pair3": conftest.wrong_composition_pair3_doc(),
                 "right-zero-z2": _right_zero_doc(2), "right-zero-z3": _right_zero_doc(3)})
    return docs


BROKEN = ("ex2.8", "ex2.8-gf2", "spurious-i2", "twin-identity", "wrong-composition-pair3",
          "right-zero-z2", "right-zero-z3")


def assert_report_phi_sections_equal_oracle(ctx):
    """build_report_doc's phi-multiplicative and phi-image-right-linear
    sections are the oracle's all-pairs reports; returns the sections."""
    import oracle
    from weakhopf.cli import build_report_doc
    validation, view = build_report_doc(ctx, [])["validation"], LabelView(ctx)
    assert validation["phi-multiplicative"] \
        == oracle.phi_is_homomorphism(view.phi, view.dsm).to_json()
    assert validation["phi-image-right-linear"] \
        == oracle.right_linearity(view.phi, view.bsm, ctx.B).to_json()
    return validation


@pytest.mark.parametrize("name", list(_report_docs()))
def test_report_phi_sections_equal_oracle(name):
    # validated instances take the verdict of B#KG's associativity; the
    # broken ones walk, as the right-zero tables show: their B#KG is
    # associative, yet right-linearity fails
    ctx = _fresh(_report_docs()[name])
    assert ctx.validated == (name not in BROKEN)
    validation = assert_report_phi_sections_equal_oracle(ctx)
    if ctx.validated:
        assert ctx.bsm.associative
    if name.startswith("right-zero"):
        assert ctx.bsm.associative and not validation["phi-image-right-linear"]["ok"]


@pytest.mark.parametrize("name", ["z4-regular", "m2-pair2", "generated-pair2"])
def test_report_phi_sections_walk_when_bsm_is_not_associative(monkeypatch, name):
    # one product of B#KG scaled by 2 before the double smash and phi are
    # read off it: the instance still validates, Light's test fails, and
    # the walks give the oracle's findings, in order
    ctx = _fresh(_report_docs()[name])
    F, bsm = ctx.field, ctx.bsm
    a = next(a for a in bsm.basis if bsm.right.get(a))
    b, prod = next(iter(bsm.right[a].items()))
    scaled = {lab: F.mul(c, F.parse("2")) for lab, c in prod.items()}
    monkeypatch.setitem(bsm.right, a, {**bsm.right[a], b: scaled})
    assert ctx.validated and not bsm.associative
    validation = assert_report_phi_sections_equal_oracle(ctx)
    assert not validation["phi-multiplicative"]["ok"]


@given(st.sampled_from([builtin_i2(), cyclic_group(2), cyclic_group(3), pair_groupoid(2)]),
       st.sampled_from(FIELDS), st.sampled_from(["none", "wrong", "spurious", "missing"]),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_duality_equals_oracle_on_random_tables(g, field, table, random_b, data):
    # any action table, any multiplication of B (so that z (b # sum) can
    # have labels other than z), and one wrong, spurious or missing
    # composition entry
    from conftest import groupoid_doc
    doc = groupoid_doc(g, "random", field)
    objects = doc["algebra"]["basis"]
    coeff = st.sampled_from(["0", "1", "2", "-1"])
    doc["action"] = [[m.id, b, {x: data.draw(coeff) for x in objects}]
                     for m in g.morphisms for b in objects]
    if random_b:
        doc["algebra"]["multiplication"] = [[a, b, {x: data.draw(coeff) for x in objects}]
                                            for a in objects for b in objects]
    comp = doc["groupoid"]["composition"]
    loose = [[a.id, b.id] for a in g.morphisms for b in g.morphisms if a.tgt != b.src]
    if table == "wrong":
        comp[data.draw(st.integers(0, len(comp) - 1))][2] = \
            data.draw(st.sampled_from(g.morphism_ids()))
    elif table == "spurious" and loose:
        comp.append(data.draw(st.sampled_from(loose)) + [data.draw(st.sampled_from(g.morphism_ids()))])
    elif table == "missing":
        comp.remove(data.draw(st.sampled_from(comp)))
    assert_duality_matches_oracle(_fresh(doc))


def test_thm29_compares_b0_and_a1_as_label_sets():
    # on i2 with the ideal at x spanned by e2 and the one at y by e1, B0
    # and A1 have four labels each but not the same ones
    import oracle
    from weakhopf.action import DfapAction, skew_groupoid_ring
    ctx = _fresh(builtin_doc("i2-swap"))
    labels = {"x": ["e2"], "y": ["e1"], "g": [], "gi": []}
    ctx.skew = skew_groupoid_ring(ctx.bsm, DfapAction({}, labels)), None
    res = ctx.verify("thm2.9")
    assert res.dimensions["B0"] == res.dimensions["A1"] == 4
    assert "psi(B0) equals span(A1): False" in res.notes
    assert res.to_json() == oracle.verify_thm2_9(LabelView(ctx)).to_json()


@pytest.mark.parametrize("field", [FIELDS[0], {"kind": "prime", "p": 7}], ids=["q", "gf7"])
@pytest.mark.parametrize("g", [pair_groupoid(2), cyclic_group(2)], ids=["pair2", "z2"])
def test_m2_family_equals_oracle_and_holds(g, field):
    # B is a sum of M_2 blocks, not commutative, so a(s.b) and (s.b)a differ
    from conftest import m2_doc
    from test_smash import assert_read_offs_match_oracle
    ctx = _fresh(m2_doc(g, "m2", field))
    assert ctx.validated
    assert_read_offs_match_oracle(ctx)
    assert_duality_matches_oracle(ctx)
    for res in ctx.verify_all():
        assert res.holds and not res.conditional, (res.claim, res.notes)


def test_prop25_names_right_survivors_under_a_broken_action():
    # A8 is nonempty only under a broken action; on i2 with this table the
    # all-morphism sum leaves two A8 labels alive from the right
    doc = builtin_doc("i2-swap")
    doc["action"] = [["x", "e2", {"e2": "2"}], ["g", "e1", {"e1": "2", "e2": "2"}],
                     ["gi", "e1", {"e1": "2"}], ["gi", "e2", {"e1": "2"}]]
    res = _fresh(doc).verify("prop2.5")
    assert res.dimensions == {"A2": 0, "A8+A9": 2}
    assert res.witnesses == [
        {"candidate": "all-morphism-sum", "right_survivor": "e2#u_g#r_y"},
        {"candidate": "all-morphism-sum", "right_survivor": "e2#u_g#r_gi"}]
    assert res.holds and res.conditional  # the object sum annihilates both


def _sabotage(ctx, data):
    """phi with one column entry dropped, rescaled, moved to another
    codomain label (as a column or as a row), copied into the column of
    another domain label or given a second term, or with the whole column
    of another domain label copied onto its own."""
    F, phi = ctx.field, ctx.phi
    columns = {x: {col: dict(img) for col, img in endo.items()}
               for x, endo in phi.columns.items()}
    cod_index = {lab: i for i, lab in enumerate(phi.codomain_basis)}
    x = data.draw(st.sampled_from([x for x in phi.domain_basis if columns.get(x)]))
    col = data.draw(st.sampled_from(sorted(columns[x], key=cod_index.get)))
    row = data.draw(st.sampled_from(sorted(columns[x][col], key=cod_index.get)))
    w = columns[x][col].pop(row)
    other = data.draw(st.sampled_from(phi.codomain_basis))
    c = F.parse(data.draw(st.sampled_from(["2", "-1"])))
    how = data.draw(st.sampled_from(["drop", "rescale", "row", "column", "copy",
                                     "term", "copy-column"]))
    if how == "rescale":
        columns[x][col][row] = F.mul(w, c)
    elif how == "row":
        columns[x][col][other] = w
    elif how == "column":
        columns[x].setdefault(other, {})[row] = w
    elif how == "copy":
        columns[x][col][row] = w
        y = data.draw(st.sampled_from(phi.domain_basis))
        columns.setdefault(y, {}).setdefault(col, {})[row] = w
    elif how == "term":
        columns[x][col][row] = w
        if other != row:
            columns[x][col][other] = c
    elif how == "copy-column":
        y = data.draw(st.sampled_from(phi.domain_basis))
        columns[x] = dict(columns.get(y, {}))
    if not columns[x].get(col, True):
        del columns[x][col]
    return LinearMapRep(F, list(phi.domain_basis), list(phi.codomain_basis), columns)


@given(st.sampled_from([builtin_i2(), cyclic_group(3), pair_groupoid(2)]),
       st.sampled_from([FIELDS[0], FIELDS[2]]), st.data())
@settings(max_examples=60, deadline=None)
def test_duality_equals_oracle_on_sabotaged_phi(g, field, data):
    # one wrong phi column makes the multiplicativity, right-linearity and
    # claim witnesses appear; they must be the oracle's, in its order
    from conftest import groupoid_doc
    ctx = _fresh(groupoid_doc(g, "sabotaged", field))
    ctx.phi = _sabotage(ctx, data)
    assert_duality_matches_oracle(ctx)


def _perturbable_doc(name, field):
    from conftest import groupoid_doc, m2_doc
    return {"i2": lambda: dict(builtin_doc("i2-swap"), field=field),
            "z3": lambda: groupoid_doc(cyclic_group(3), name, field),
            "m2-pair2": lambda: m2_doc(pair_groupoid(2), name, field),
            "pair2": lambda: groupoid_doc(pair_groupoid(2), name, field)}[name]()


@given(st.sampled_from(["i2", "z3", "m2-pair2", "pair2"]),
       st.sampled_from([FIELDS[0], {"kind": "prime", "p": 7}]), st.data())
@settings(max_examples=80, deadline=None)
def test_phi_checks_equal_oracle_on_perturbed_phi(name, field, data):
    # phi's checks read images of the form {label: one} off phi.image and
    # the B#KG table; a rescaled entry, a second term or a copied column
    # must give the all-pairs findings, in their order
    import oracle
    ctx = _fresh(_perturbable_doc(name, field))
    ctx.phi = phi = _sabotage(ctx, data)
    view = LabelView(ctx)
    assert _findings(phi_is_homomorphism(phi, ctx.dsm)) \
        == _findings(oracle.phi_is_homomorphism(view.phi, view.dsm))
    assert _findings(right_linearity(phi, ctx.bsm, ctx.B)) \
        == _findings(oracle.right_linearity(view.phi, view.bsm, ctx.B))
    assert ctx.kernel_ideal_witnesses() == oracle.kernel_ideal_witnesses(ctx)


# -- phi's null space, one block at a time, against one global elimination ----


def _assert_phi_null_space_is_one_block_elimination(phi, labels):
    # the oracle keys rows by r * dim + c, not by (row, column) label
    # pairs; row keys only group entries, so the answer must not change
    import oracle
    zero, eliminated, pivots = phi.null_space(labels)
    assert zero == [j for j, lab in enumerate(labels) if not phi.columns.get(lab)]
    kernel = oracle.merged_kernel(phi.field, zero, eliminated)
    want_kernel, want_pivots = oracle.null_space(phi.field, oracle.row_major(phi, labels))
    assert pivots == want_pivots
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in want_kernel]


@given(st.sampled_from(["i2", "z3", "m2-pair2", "pair2"]),
       st.sampled_from([FIELDS[0], {"kind": "prime", "p": 7}]), st.data())
@settings(max_examples=60, deadline=None)
def test_phi_null_space_equals_one_block_elimination_on_perturbed_phi(name, field, data):
    ctx = _fresh(_perturbable_doc(name, field))
    phi = _sabotage(ctx, data)
    _assert_phi_null_space_is_one_block_elimination(phi, phi.domain_basis)
    labels = data.draw(st.permutations(phi.domain_basis))
    _assert_phi_null_space_is_one_block_elimination(
        phi, labels[:data.draw(st.integers(0, len(labels)))])


@pytest.mark.parametrize("n", [2, 3])
def test_phi_null_space_equals_one_block_elimination_on_m2_family(n):
    # B = sum of M_2 is the only family whose phi has blocks of many columns
    from conftest import m2_doc
    ctx = _fresh(m2_doc(pair_groupoid(n), f"m2-pair{n}"))
    _assert_phi_null_space_is_one_block_elimination(ctx.phi, ctx.phi.domain_basis)
    _assert_phi_null_space_is_one_block_elimination(ctx.phi, ctx.stratum_labels(IMAGE_STRATA))
    for labels in ctx.strata.values():
        _assert_phi_null_space_is_one_block_elimination(ctx.phi, labels)


def test_zero_columns_skip_the_elimination_and_from_vector(monkeypatch):
    # on pair(6) with B = K^X, 7,560 of the 7,776 labels have phi = 0 and
    # the kernel is exactly those labels: the elimination sees only the
    # 216 nonzero columns, and thm2.2 and thm2.6 read the zero labels
    # without turning any kernel vector into an element
    from conftest import groupoid_doc
    from weakhopf import duality
    from weakhopf.walg import FinAlgebra
    ctx = _fresh(groupoid_doc(pair_groupoid(6), "pair6"))
    phi, seen, null_space = ctx.phi, [], duality.null_space
    monkeypatch.setattr(duality, "null_space",
                        lambda F, cols: seen.append(cols) or null_space(F, cols))
    ki = duality.kernel_and_image(phi)
    assert len(seen) == 1 and all(seen[0])
    assert len(seen[0]) == sum(map(bool, phi.columns.values())) == 216
    assert ki.dims == {"domain": 7776, "kernel": 7560, "image": 216}
    assert ki.zero == [x for x in phi.domain_basis if not phi.columns.get(x)]
    assert ki.eliminated == []
    ctx.ki = ki
    calls, from_vector = [], FinAlgebra.from_vector
    monkeypatch.setattr(FinAlgebra, "from_vector",
                        lambda self, v: calls.append(v) or from_vector(self, v))
    assert ctx.verify("thm2.2").holds and ctx.verify("thm2.6").holds
    assert calls == []


def _mix_kernel(ctx, data):
    """phi with a zero column replaced by a multiple, or by the sum, of
    one or two nonzero columns, so that the elimination finds kernel
    vectors of several terms, and a nonzero column not copied dropped, so
    that a zero label can fall outside the kernel strata."""
    F, phi = ctx.field, ctx.phi
    columns = dict(phi.columns)
    nonzero = [x for x in phi.domain_basis if columns.get(x)]
    zero = [x for x in phi.domain_basis if not columns.get(x)]
    used = set()
    for x in data.draw(st.lists(st.sampled_from(zero), min_size=1, max_size=3, unique=True)):
        ys = data.draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=2, unique=True))
        c = F.parse(data.draw(st.sampled_from(["1", "2", "-1"])))
        columns[x] = phi.apply({y: c for y in ys})
        used.update(ys)
    for x in data.draw(st.lists(st.sampled_from(nonzero), max_size=2, unique=True)):
        if x not in used:
            del columns[x]
    return LinearMapRep(F, list(phi.domain_basis), list(phi.codomain_basis), columns)


@given(st.sampled_from(["i2", "m2-pair2", "pair2"]),
       st.sampled_from([FIELDS[0], {"kind": "prime", "p": 7}]), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_witnesses_equal_oracle_with_zero_labels_and_eliminated_vectors(name, field, data):
    # no benchmark or golden instance has both kinds of kernel vector; the
    # thm2.2 and thm2.6 witnesses must still be the oracle's, in its order
    from hypothesis import assume
    ctx = _fresh(_perturbable_doc(name, field))
    ctx.phi = _mix_kernel(ctx, data)
    ki = ctx.ki
    assume(ki.zero and any(len(v) > 1 for _, v in ki.eliminated))
    _assert_kernel_and_image_match_oracle(ctx)
    assert_duality_matches_oracle(ctx)


@pytest.mark.parametrize("name", ["z8-trivial", "z4-regular"])
def test_kernel_and_image_eliminates_nothing_on_one_column_blocks(monkeypatch, name):
    # with B diagonal each nonzero phi column of Z/8 and of Z/4 acting
    # regularly is a block of its own, a pivot without arithmetic; one
    # global elimination made 64 Echelon.add calls on each
    from conftest import groupoid_doc, z4_regular_doc
    from weakhopf import exactmath
    from weakhopf.duality import kernel_and_image
    doc = groupoid_doc(cyclic_group(8), name) if name == "z8-trivial" else z4_regular_doc()
    phi, calls, add = _fresh(doc).phi, [], exactmath.Echelon.add
    monkeypatch.setattr(exactmath.Echelon, "add", lambda self, v: calls.append(v) or add(self, v))
    assert kernel_and_image(phi).dims == {"domain": 64, "kernel": 0, "image": 64}
    assert calls == []


def test_phi_checks_and_double_smash_make_few_field_ops_on_z8(monkeypatch):
    # on Z/8 with B = K every product of B#KG#KG* and every image in a
    # column of phi is one label with coefficient one.  Composing whole
    # column maps took 2,048 field add/sub/mul calls in phi's
    # multiplicativity check and multiplying out every coefficient 1,536 in
    # the double smash; reading them off phi.image and skipping unit
    # coefficients takes 128 and 512, and writing a key met once as formed,
    # not added to zero, takes none in the double smash.  phi is a copy
    # with no B#KG record, so the check walks on this validated instance
    from conftest import groupoid_doc
    from weakhopf.smash import double_smash
    ctx = _fresh(groupoid_doc(cyclic_group(8), "z8-trivial"))
    F, phi, dsm = ctx.field, ctx.phi, ctx.dsm
    calls = []
    for op in ("add", "sub", "mul"):
        monkeypatch.setattr(F, op, lambda *args, fn=getattr(F, op): calls.append(None) or fn(*args))
    assert double_smash(ctx.bsm).mul == dsm.mul
    assert not calls
    calls.clear()
    assert phi_is_homomorphism(_walked(phi), dsm, ctx.validated).ok
    assert len(calls) <= 256


class _Reads(dict):
    """A table that records the label of each row read off it by get."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def test_phi_checks_test_associativity_at_the_one_generator_of_z8(monkeypatch):
    # on Z/8 with B = K, B#KG is generated by e#u_a1 alone; the two checks
    # read phi's verdicts off Light's test at that label: its row and
    # column, and the 8 stored rows and 8 stored columns they reach, with
    # no sum and no field operation, where the walk above made up to 256
    # field operations in phi's multiplicativity check alone
    from conftest import groupoid_doc
    from weakhopf import walg
    ctx = _fresh(groupoid_doc(cyclic_group(8), "z8-trivial"))
    F, phi, dsm, bsm = ctx.field, ctx.phi, ctx.dsm, ctx.bsm
    y = ctx.kg.index["a1"]  # the position of (B.basis[0], "a1")
    assert ctx.validated and bsm.first == [y] and bsm.generators == [y]
    calls, reads, el_sum = [], [], walg.el_sum
    for op in ("add", "sub", "mul"):
        monkeypatch.setattr(F, op, lambda *args, fn=getattr(F, op): calls.append(None) or fn(*args))
    monkeypatch.setattr(walg, "el_sum", lambda F, terms: calls.append(terms) or el_sum(F, terms))
    for side in ("right", "left"):
        monkeypatch.setattr(bsm, side, _Reads(getattr(bsm, side), reads))
    assert phi_is_homomorphism(phi, dsm, True).ok
    assert right_linearity(phi, bsm, ctx.B, True).ok
    assert len(reads) == 2 * (1 + 8) and reads[0] == reads[9] == y
    assert calls == []


def test_right_linearity_reads_only_nonempty_columns(monkeypatch):
    # phi(x) = 0 makes both sides zero for every (z, b), so right_linearity
    # evaluates phi(x) by el_apply only for the labels with a nonempty
    # column: on pair(3) with B = K^X that is 27 of the 243.  phi is a
    # copy with no B#KG record, so the check walks
    from conftest import groupoid_doc
    from weakhopf import duality
    ctx = _fresh(groupoid_doc(pair_groupoid(3), "pair3"))
    phi, seen, el_apply = _walked(ctx.phi), set(), duality.el_apply
    label_of = {id(endo): x for x, endo in phi.columns.items()}

    def spy(F, images, x):
        if id(images) in label_of:
            seen.add(label_of[id(images)])
        return el_apply(F, images, x)
    monkeypatch.setattr(duality, "el_apply", spy)
    assert right_linearity(phi, ctx.bsm, ctx.B, ctx.validated).ok
    assert sorted(seen, key=phi.domain_basis.index) == [x for x in phi.domain_basis
                                                        if phi.columns.get(x)]
    assert len(seen) == 27


def _one_pass_docs():
    from conftest import m2_doc, twin_identity_doc, z4_regular_doc
    gf2 = {"kind": "prime", "p": 2}
    return {"m2-pair2-gf2": m2_doc(pair_groupoid(2), "m2", gf2),
            "m2-pair3-gf2": m2_doc(pair_groupoid(3), "m2", gf2),
            "m2-z2-gf2": m2_doc(cyclic_group(2), "m2", gf2),
            "twin-identity": twin_identity_doc(), "z4-regular": z4_regular_doc()}


@pytest.mark.parametrize("name", list(_one_pass_docs()))
def test_right_linearity_makes_no_multiply_call_and_equals_oracle(monkeypatch, name):
    # z (b # sum) is summed off the rows of B#KG, where the terms of a
    # non-diagonal B gather and, on the twin identities over GF(2), the
    # terms for e and f cancel: the findings stay the oracle's, in order.
    # phi is a copy with no B#KG record, so the check walks
    import oracle
    from weakhopf.walg import FinAlgebra
    ctx = _fresh(_one_pass_docs()[name])
    view = LabelView(ctx)
    want = _findings(oracle.right_linearity(view.phi, view.bsm, ctx.B))
    calls, multiply = [], FinAlgebra.multiply
    monkeypatch.setattr(FinAlgebra, "multiply",
                        lambda self, x, y: calls.append(x) or multiply(self, x, y))
    assert _findings(right_linearity(_walked(ctx.phi), ctx.bsm, ctx.B, ctx.validated)) == want
    assert calls == []
    if name == "twin-identity":
        assert len(want[1]) == 7


@pytest.mark.parametrize("name", ["m2-pair3-gf2", "twin-identity", "z4-regular"])
def test_classify_basis_tests_each_pair_once_and_classifies_each_class_once(monkeypatch, name):
    from weakhopf import duality
    from weakhopf.exactmath import Echelon
    ctx = _fresh(_one_pass_docs()[name])
    B, g, comp = ctx.B, ctx.groupoid, ctx.decomp.component_of
    spans = ctx.action.image_spans()
    inside = {(b, m): spans[m].contains(B.to_vector({b: ctx.field.one}))
              for b in B.basis for m in g.morphism_ids()}
    labels = LabelView(ctx).dsm.basis
    classes = {(comp.get(b), g.src(m), g.tgt(m), g.composable(m, h), inside[(b, m)])
               for b, m, h in labels}
    tests, classified = [], []
    contains, classify_one = Echelon.contains, duality.classify
    monkeypatch.setattr(Echelon, "contains", lambda self, v: tests.append(v) or contains(self, v))
    monkeypatch.setattr(duality, "classify",
                        lambda *args: classified.append(args) or classify_one(*args))
    strata, by_pair = duality.classify_basis(ctx.dsm, g, ctx.decomp, ctx.action)
    assert len(tests) == len(inside) == B.dim * len(g.morphisms)
    assert len(classified) == len(classes)
    assert {(c, g.src(m), g.tgt(m), g.composable(m, h), i)
            for _, c, m, h, i in classified} == classes
    assert {ctx.dsm.label(q): s for s, qs in strata.items() for q in qs} \
        == {lab: classify_one(g, comp.get(lab[0]), lab[1], lab[2], inside[lab[:2]])
            for lab in labels}
    assert [ctx.bsm.label(x) for x in range(len(by_pair))] == list(inside)


def test_phi_columns_are_flattened_once_per_verify(monkeypatch):
    # the nine rank queries of a verify (the kernel, six image strata, S
    # and thm2.9's C + D1) all eliminate the same flattened columns
    from functools import cached_property
    from conftest import m2_pair2_doc
    from weakhopf import duality
    ctx = _fresh(m2_pair2_doc())
    flattened, queries, eliminated = [], [], []
    flat, query, null_space = LinearMapRep.flat.func, LinearMapRep.null_space, duality.null_space
    prop = cached_property(lambda self: flattened.append(self) or flat(self))
    prop.__set_name__(LinearMapRep, "flat")
    monkeypatch.setattr(LinearMapRep, "flat", prop)
    monkeypatch.setattr(LinearMapRep, "null_space",
                        lambda self, labels: queries.append(labels) or query(self, labels))
    monkeypatch.setattr(duality, "null_space",
                        lambda F, cols: eliminated.extend(cols) or null_space(F, cols))
    ctx.verify_all()
    assert len(queries) == 9
    assert flattened == [ctx.phi]
    cols = {id(col) for col in ctx.phi.flat.values()}
    assert eliminated and all(id(col) in cols for col in eliminated)


@given(st.sampled_from([{"kind": "rational"}, {"kind": "prime", "p": 7}]),
       st.sampled_from(["one", "scaled", "several"]), st.data())
@settings(max_examples=150, deadline=None)
def test_el_apply_and_phi_apply_equal_the_oracle_evaluation(spec, shape, data):
    # the shortcut at {k: one} and the sum over the labels both sides share
    # give the term-by-term evaluation: at one term with coefficient one or
    # another, at several terms, and at labels whose image is empty or, for
    # el_apply, absent from the table
    import oracle
    from weakhopf.exactmath import field_from_spec
    from weakhopf.walg import el_apply
    F = field_from_spec(spec)
    scalar = st.sampled_from(["1", "2", "-1", "3/2", "5"]).map(F.parse)

    def element(labels, min_size=0):
        return st.dictionaries(st.sampled_from(labels), scalar, min_size=min_size, max_size=3)

    def point(labels):
        if shape == "one":
            return st.sampled_from(labels).map(lambda k: {k: F.one})
        if shape == "scaled":
            return st.dictionaries(st.sampled_from(labels), scalar.filter(lambda c: c != F.one),
                                   min_size=1, max_size=1)
        return element(labels, 2)

    images = data.draw(st.dictionaries(st.sampled_from("pqr"), element("uvw")))
    x = data.draw(point("pqrst"))
    assert el_apply(F, images, x) == oracle.apply_images(F, images, x)
    endo = st.dictionaries(st.sampled_from(["c1", "c2"]), element("uvw", 1))
    columns = data.draw(st.fixed_dictionaries({lab: endo for lab in "pqrs"}))
    phi = LinearMapRep(F, list("pqrs"), ["c1", "c2"], columns)
    x = data.draw(point("pqrs"))
    assert phi.apply(x) == oracle.apply_columns(phi, x)


@pytest.mark.parametrize("builder", ["groupoid_doc", "m2_doc"])
def test_verify_writes_through_no_stored_image(builder):
    # el_apply and phi.apply return the stored image at {k: one}; a full
    # verify, validation and unit search included, only reads them
    import copy
    import conftest
    from weakhopf.cli import build_report_doc
    ctx = _fresh(getattr(conftest, builder)(pair_groupoid(3), "pair3"))
    tables = (ctx.phi.columns, ctx.dsm.right, ctx.dsm.left, ctx.bsm.right,
              ctx.kgstar.right, ctx.kgstar.left, ctx.kgstar_rec.P)
    before = copy.deepcopy(tables)
    assert all(r.holds for r in ctx.verify_all())
    build_report_doc(ctx, [])
    assert tables == before


def test_sabotaged_phi_gives_witnesses():
    # the oracle comparison above is not vacuous: a copied entry breaks
    # multiplicativity, right-linearity and the kernel claims
    from conftest import groupoid_doc
    ctx = _fresh(groupoid_doc(pair_groupoid(2), "sabotaged"))
    F, phi = ctx.field, ctx.phi
    x = next(x for x in phi.domain_basis if not phi.columns.get(x))
    col, img = next(iter(phi.columns[phi.domain_basis[0]].items()))
    columns = {**phi.columns, x: {col: img}}
    ctx.phi = LinearMapRep(F, list(phi.domain_basis), list(phi.codomain_basis), columns)
    assert not phi_is_homomorphism(ctx.phi, ctx.dsm).ok
    assert not ctx.verify("thm2.2").holds and not ctx.verify("thm2.9").holds
    assert_duality_matches_oracle(ctx)


def test_thm26_needs_phi_injective_on_the_image_strata():
    # on i2, give the phi column of the A1 label x to the A1 label y, and
    # y's own column to a kernel-stratum label k: the rank of phi and the
    # kernel dimension stay, but the kernel now meets span(S) and A1
    ctx = _fresh(builtin_doc("i2-swap"))
    phi = ctx.phi
    x, y = ctx.stratum_labels(["A1"])[:2]
    k = ctx.stratum_labels(KERNEL_STRATA)[0]
    columns = {**phi.columns, y: phi.columns[x], k: phi.columns[y]}
    ctx.phi = LinearMapRep(ctx.field, list(phi.domain_basis), list(phi.codomain_basis),
                           columns)
    res = ctx.verify("thm2.6")
    assert res.dimensions["kernel"] + res.dimensions["S"] == res.dimensions["dim"]
    assert "whole space = kernel (+) image strata: False" in res.notes
    assert {"stratum_meets_kernel": ["A1", label_str(ctx.dsm.label(y))]} in ctx.verify("thm2.2").witnesses
    assert_duality_matches_oracle(ctx)


# -- generated valid instances: every claim, over Q and over GF(2^31 - 1) -----


@pytest.mark.parametrize("g", GENERATED, ids=GENERATED_IDS)
def test_generated_valid_instances_hold_alike_over_q_and_gfp(g):
    from conftest import groupoid_doc
    runs = []
    for field in ({"kind": "rational"}, {"kind": "prime", "p": 2**31 - 1}):
        ctx = _fresh(groupoid_doc(g, "generated", field))
        results = ctx.verify_all()
        for res in results:
            assert res.holds and not res.conditional, (res.claim, res.notes)
        runs.append((ctx.strata_dims, ctx.ki.dims, [r.to_json() for r in results]))
    assert runs[0] == runs[1]


# -- phi's eliminations, once per distinct sequence of nonzero columns --------


def _spied_verify(monkeypatch, ctx):
    """The (labels, answer) of each phi.null_space call of a verify, and the
    column lists that reached exactmath's elimination; the spies are gone
    on return."""
    from weakhopf import duality
    queries, eliminated = [], []
    query, null_space = LinearMapRep.null_space, duality.null_space

    def spy(self, labels):
        queries.append((list(labels), query(self, labels)))
        return queries[-1][1]
    monkeypatch.setattr(LinearMapRep, "null_space", spy)
    monkeypatch.setattr(duality, "null_space",
                        lambda F, cols: eliminated.append(cols) or null_space(F, cols))
    ctx.verify_all()
    monkeypatch.undo()
    return queries, eliminated


@pytest.mark.parametrize("name", ["z8-trivial", "pair3"])
def test_each_sequence_of_nonzero_columns_is_eliminated_once_per_verify(monkeypatch, name):
    # on Z/8 the kernel, thm2.2's A1, the image strata and thm2.9's C + D1
    # all eliminate the same 64 columns; on pair(3) label lists of 243, 27
    # and 81 labels share one sequence of 27.  Each answer equals that of a
    # fresh map with nothing memoised
    from collections import Counter
    from conftest import groupoid_doc
    g = cyclic_group(8) if name == "z8-trivial" else pair_groupoid(3)
    ctx = _fresh(groupoid_doc(g, name))
    phi = ctx.phi
    queries, eliminated = _spied_verify(monkeypatch, ctx)
    uses = Counter(tuple(lab for lab in labels if phi.columns.get(lab)) for labels, _ in queries)
    assert len(eliminated) == len(uses) < len(queries) == 9
    assert max((n, len(seq)) for seq, n in uses.items() if seq) \
        == {"z8-trivial": (4, 64), "pair3": (3, 27)}[name]
    for labels, got in queries:
        fresh = LinearMapRep(phi.field, phi.domain_basis, phi.codomain_basis, phi.columns)
        assert fresh.null_space(labels) == got


@pytest.mark.parametrize("name", ["m2-pair2", "i2"])
def test_memoised_null_space_equals_a_fresh_one_on_reordered_labels(name):
    # the same nonzero columns in another order, or another set of as many,
    # is another elimination: with a zero column given a copy of a nonzero
    # one, the pivots and kernel vectors follow the order
    ctx = _fresh(_perturbable_doc(name, FIELDS[0]))
    phi, labels = ctx.phi, list(ctx.phi.domain_basis)
    x = next(x for x in labels if not phi.columns.get(x))
    y = next(y for y in labels if phi.columns.get(y))
    phi = LinearMapRep(phi.field, phi.domain_basis, phi.codomain_basis,
                       {**phi.columns, x: phi.columns[y]})
    orders = [labels, labels[::-1], labels[1:] + labels[:1], labels[::2], labels[1::2]]
    for order in orders + orders:
        fresh = LinearMapRep(phi.field, phi.domain_basis, phi.codomain_basis, phi.columns)
        assert phi.null_space(order) == fresh.null_space(order)


# -- positions inside the engine, labels at its boundary -----------------------


def _builtin_and_golden_contexts():
    import conftest
    from test_golden import DOCUMENTS
    from weakhopf.instances import BUILTIN_NAMES
    docs = [builtin_doc(name) for name in BUILTIN_NAMES]
    docs += [getattr(conftest, builder)() for builder in DOCUMENTS.values()]
    return [_fresh(doc) for doc in docs]


def test_positional_tables_hold_only_int_keys():
    # B#KG, B#KG#KG* and phi are keyed by basis position: every row, every
    # product, every column and every image, and the strata, the kernel,
    # the identity candidates and the skew labels read off them
    for ctx in _builtin_and_golden_contexts():
        for table in (ctx.bsm.right, ctx.dsm.right, ctx.phi.columns):
            for x, row in table.items():
                assert type(x) is int
                for y, prod in row.items():
                    assert type(y) is int and all(type(k) is int for k in prod)
        assert type(ctx.bsm.basis) is type(ctx.dsm.basis) is range
        assert all(type(q) is int for qs in ctx.strata.values() for q in qs)
        assert all(type(q) is int for q in (*ctx.ki.zero, *ctx.y_obj, *ctx.y_morph))
        assert ctx.skew[0] is None or all(type(x) is int for x in ctx.skew[0])


def test_label_str_refuses_a_position_that_leaks_into_a_witness():
    # a position is printed only through its label; a witness that reaches
    # label_str as a bare int fails loudly instead of printing a number
    with pytest.raises(TypeError):
        label_str(3)
    assert label_str(("e1", "g", "gi")) == "e1#u_g#r_gi" and label_str("e1") == "e1"
    ctx = _fresh(builtin_doc("ex2.8"))
    assert ctx.verify("thm2.2").witnesses
    ctx.dsm.label = lambda q: q
    with pytest.raises(TypeError):
        ctx.verify("thm2.2")


def test_flat_and_null_space_refuse_codomain_labels_that_are_not_positions():
    # flat keys the entry at (row, column) by row * n + column, which names
    # one entry only if the codomain labels are the positions 0..n-1; the
    # kernel's zero labels are read back through the domain basis
    F = _fresh(builtin_doc("z2-trivial")).field
    columns = {"p": {"c1": {"u": F.one}}, "q": {"c2": {"u": F.one}}}
    with pytest.raises(ValueError):
        LinearMapRep(F, list("pqr"), ["c1", "c2"], columns).null_space(list("pqr"))
    phi = LinearMapRep(F, list("pqr"), [0, 1], {"p": {0: {1: F.one}}, "q": {1: {1: F.one}}})
    ki = kernel_and_image(phi)
    assert ki.zero == ["r"] and ki.dims == {"domain": 3, "kernel": 1, "image": 2}


# -- B = a sum of M_k blocks: products with many terms ------------------------


def test_mk_family_with_two_by_two_blocks_is_the_m2_family():
    from conftest import m2_doc, mk_doc
    for n in (2, 3):
        assert mk_doc(n, 2) == dict(m2_doc(pair_groupoid(n), "m2-pair" + str(n)), name=f"m2-pair{n}")


@pytest.mark.parametrize("field", [FIELDS[0], {"kind": "prime", "p": 7}], ids=["q", "gf7"])
def test_mk_family_equals_oracle_through_labels_and_holds(field):
    # M_3 blocks on pair(2): the nonzero products of B#KG have one, two
    # or three terms
    import oracle
    from conftest import mk_doc
    from test_smash import assert_find_unit_matches_oracle, assert_read_offs_match_oracle
    ctx = _fresh(mk_doc(2, 3, field))
    assert ctx.validated
    assert {len(prod) for row in ctx.bsm.right.values() for prod in row.values()} == {1, 2, 3}
    assert_read_offs_match_oracle(ctx)
    assert_duality_matches_oracle(ctx)
    assert_find_unit_matches_oracle(ctx, "m3-pair2")
    assert ctx.kernel_ideal_witnesses() == oracle.kernel_ideal_witnesses(ctx)
    for res in ctx.verify_all():
        assert res.holds and not res.conditional, (res.claim, res.notes)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (3, 4)])
def test_mk_family_has_the_closed_form_kernel_and_image(n, k):
    # domain k^2 n^5, image k^2 n^3, without the oracle
    from conftest import mk_doc
    ctx = _fresh(mk_doc(n, k))
    assert ctx.ki.dims == {"domain": k * k * n ** 5, "kernel": k * k * (n ** 5 - n ** 3),
                           "image": k * k * n ** 3}
    for res in ctx.verify_all():
        assert res.holds and not res.conditional, (res.claim, res.notes)
