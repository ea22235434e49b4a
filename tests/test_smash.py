from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BASES, SABOTAGE_KINDS, compose, disjoint_union, pair_groupoid,
                      sabotaged_groupoid, skew_ring)
from oracle import LabelView, labelled, labelled_map
from weakhopf.action import DfapAction
from weakhopf.duality import VerificationContext
from weakhopf.exactmath import QQ
from weakhopf.groupoid import builtin_i2, cyclic_group
from weakhopf.instances import parse_instance
from weakhopf.smash import find_unit
from weakhopf.walg import el_addto

one = Fraction(1)


def harpoon(rho_label, z: dict) -> dict:
    """Evaluation action of a dual basis vector on B#KG: keeps the terms
    whose middle leg equals the given label."""
    return {lab: c for lab, c in z.items() if lab[1] == rho_label}


def test_smash_product_rule_i2(ctx_i2):
    bsm = labelled(ctx_i2.bsm)
    assert bsm.basis_product(("e1", "g"), ("e2", "gi")) == {("e1", "x"): one}
    assert bsm.basis_product(("e1", "g"), ("e1", "g")) == {}


def test_smash_product_group_trivial(ctx_z2):
    bsm = labelled(ctx_z2.bsm)
    assert bsm.basis_product(("b", "a"), ("b", "a")) == {("b", "e"): one}


def test_smash_basis_order_is_lexicographic(ctx_i2):
    assert labelled(ctx_i2.bsm).basis[:4] == [("e1", "x"), ("e1", "y"), ("e1", "g"), ("e1", "gi")]
    assert labelled(ctx_i2.dsm).basis[0] == ("e1", "x", "x")
    assert labelled(ctx_i2.dsm).basis[1] == ("e1", "x", "y")


def test_harpoon():
    z = {("e1", "g"): one}
    assert harpoon("g", z) == z
    assert harpoon("x", {("e1", "x"): one}) == {("e1", "x"): one}
    assert harpoon("g", {("e1", "x"): one}) == {}
    mixed = {("e1", "x"): one, ("e2", "g"): one}
    assert harpoon("x", mixed) == {("e1", "x"): one}


def test_double_smash_rule(ctx_i2):
    dsm = labelled(ctx_i2.dsm)
    # the dual leg splits through the coproduct: the second factor's u and
    # rho legs must multiply back to the first factor's rho leg
    assert dsm.basis_product(("e1", "g", "gi"), ("e2", "gi", "x")) == \
        {("e1", "x", "x"): one}
    assert dsm.basis_product(("e1", "g", "y"), ("e2", "gi", "g")) == \
        {("e1", "x", "g"): one}
    # rho legs that do not factor kill the product
    assert dsm.basis_product(("e1", "g", "gi"), ("e2", "gi", "gi")) == {}
    # non-composable middle legs kill it too (g*y = g equals the rho leg,
    # but g*g is undefined)
    assert dsm.basis_product(("e1", "g", "g"), ("e2", "g", "y")) == {}


def test_double_smash_group_case_is_matrix_units(ctx_z2):
    # (m, n) -> (row m*n, column n) identifies the product table with the
    # 2x2 matrix units over the label set {e, a}
    dsm, g = labelled(ctx_z2.dsm), ctx_z2.groupoid
    for (_, m, n) in dsm.basis:
        for (_, s, t) in dsm.basis:
            got = dsm.basis_product(("b", m, n), ("b", s, t))
            expected = {}
            if compose(g, s, t) == n:
                expected = {("b", compose(g, m, s), t): one}
            assert got == expected


def test_smash_products_associative_on_valid_instances(ctx_i2, ctx_z2, ctx_z3):
    for ctx in (ctx_i2, ctx_z2, ctx_z3):
        assert ctx.bsm.associativity_violations() == []
        assert ctx.dsm.associativity_violations() == []


def test_smash_products_not_associative_for_broken_action(ctx_ex28):
    # the action fails the module axioms, and the failure is visible here:
    # (e1#u_s)(e3#u_s) evaluates before e3 can annihilate
    bsm = ctx_ex28.bsm
    v = [tuple(map(bsm.label, t)) for t in bsm.associativity_violations()]
    assert (("e1", "s"), ("e3", "s"), ("e1", "s")) in v
    assert ctx_ex28.dsm.associativity_violations() != []


def test_left_identity_on_matching_basis_vectors(ctx_i2):
    # sum_e (e.1_B # u_e) fixes b # u_g whenever b sits in the component at
    # src(g); no global unit is claimed
    F = ctx_i2.field
    bsm, g, d = labelled(ctx_i2.bsm), ctx_i2.groupoid, ctx_i2.decomp
    s = {}
    for e in g.objects:
        for lab, c in d.idempotents[e].items():
            s[(lab, e)] = c
    for (b, m) in bsm.basis:
        z = {(b, m): F.one}
        if d.component_of[b] == g.src(m):
            assert bsm.multiply(s, z) == z


def test_double_smash_unit_reported(ctx_z2, ctx_i2):
    # B = K group case: the object-sum candidate is a genuine unit
    assert find_unit(ctx_z2.dsm) == ctx_z2.y_obj
    # i2-swap's double smash has no unit at all
    assert find_unit(ctx_i2.dsm) is None


def test_mismatched_parents_rejected(ctx_i2, ctx_z2):
    from weakhopf.duality import build_phi
    import pytest
    with pytest.raises(ValueError):
        build_phi(ctx_i2.dsm, ctx_z2.bsm)


# -- find_unit against the dense solve oracle ---------------------------------


def smash_unit_candidate(ctx):
    """sum over objects e of (e.1_B) # u_e, the closed form of the unit of
    B#KG, over its positions."""
    F, M = ctx.field, len(ctx.kg.basis)
    return {ctx.B.index[b] * M + ctx.kg.index[e]: c for e in ctx.groupoid.objects
            for b, c in ctx.action.act({e: F.one}, ctx.B.unit).items()}


def assert_find_unit_matches_oracle(ctx, name):
    """find_unit equals the dense oracle on B, KG, KG*, B#KG and B#KG#KG*,
    with no candidate and with the closed-form candidates; the identity
    test equals its multiply form on the prop2.4 corner.  The double smash
    is the engine's view, and the oracle's reference its all-pairs table
    (LabelView.dsm), read back as labels."""
    import oracle
    view = LabelView(ctx)
    for alg, candidate, ref in ((ctx.B, ctx.B.unit, ctx.B), (ctx.kg, None, ctx.kg),
                                (ctx.kgstar, None, ctx.kgstar),
                                (ctx.bsm, smash_unit_candidate(ctx), ctx.bsm),
                                (ctx.dsm, ctx.y_obj, view.dsm)):
        want, named = oracle.find_unit(ref), (lambda u: u) if ref is alg else view.named
        assert named(find_unit(alg)) == want, (name, alg.name)
        assert named(find_unit(alg, candidate)) == want, (name, alg.name)
    corner = ctx.stratum_labels(("A1", "A7", "A10"))
    for y in (ctx.y_morph, ctx.y_obj):
        assert view.labels(ctx.dsm.not_fixed(y, corner)) \
            == oracle.not_fixed(view.dsm, view.named(y), view.labels(corner)), name


def test_find_unit_equals_dense_oracle_on_builtins():
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        assert_find_unit_matches_oracle(context(name), name)


def test_find_unit_equals_dense_oracle_on_golden_documents():
    import conftest
    from test_golden import DOCUMENTS
    for name, builder in DOCUMENTS.items():
        ctx = VerificationContext(parse_instance(getattr(conftest, builder)()))
        assert_find_unit_matches_oracle(ctx, name)


def test_closed_form_candidates_are_the_units_of_z4_regular(monkeypatch):
    # a unital instance whose B is not the field: the candidates are
    # confirmed, so the elimination never runs
    from conftest import z4_regular_doc
    from weakhopf import exactmath
    ctx = VerificationContext(parse_instance(z4_regular_doc()))
    ctx.dsm  # built before the elimination is switched off

    def unused(*args):
        raise AssertionError("find_unit ran the elimination")
    monkeypatch.setattr(exactmath, "rref", unused)
    candidate = smash_unit_candidate(ctx)
    assert len(candidate) == 4
    assert find_unit(ctx.bsm, candidate) == candidate
    assert find_unit(ctx.dsm, ctx.y_obj) == ctx.y_obj


def test_report_confirms_both_units_from_their_closed_forms(monkeypatch):
    # build_report_doc reads B#KG's candidate off y_obj, at the B#KG
    # position q // M of each double-smash position q; on Z/4 acting
    # regularly both candidates are the units, so no equation is solved
    from conftest import z4_regular_doc
    from weakhopf import exactmath
    from weakhopf.cli import build_report_doc
    ctx = VerificationContext(parse_instance(z4_regular_doc()))
    ctx.dsm, ctx.ki  # built before the elimination is switched off

    def unused(*args):
        raise AssertionError("find_unit ran the elimination")
    monkeypatch.setattr(exactmath, "rref", unused)
    units = build_report_doc(ctx, [])["units"]
    assert units["smash"] == " + ".join(f"x{i}#u_e" for i in range(4))
    assert units["double_smash"] == " + ".join(
        f"x{i}#u_e#r_{n}" for i in range(4) for n in ("a1", "a2", "a3", "e"))


@given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 3]), st.booleans(),
       st.sampled_from(["none", "oracle", "random"]), st.data())
@settings(max_examples=120, deadline=None)
def test_find_unit_equals_dense_oracle_on_random_tables(dim, p, unital, candidate, data):
    # with unital set, x0 multiplies as a unit, so the candidate path and
    # the fallback both see tables that have one
    import oracle
    from weakhopf.exactmath import PrimeField
    F = PrimeField(p)
    basis = [f"x{i}" for i in range(dim)]
    coeff = st.integers(min_value=0, max_value=p - 1)
    mul = {(a, b): dict(zip(basis, data.draw(st.lists(coeff, min_size=dim, max_size=dim))))
           for a in basis for b in basis}
    if unital:
        mul.update({pair: {b: 1} for b in basis for pair in (("x0", b), (b, "x0"))})
    alg = oracle.table_algebra(F, basis, mul)
    want = oracle.find_unit(alg)
    y = alg.element(dict(zip(basis, data.draw(st.lists(coeff, min_size=dim, max_size=dim)))))
    given_candidate = {"none": None, "oracle": want, "random": y}[candidate]
    assert find_unit(alg, given_candidate) == want
    assert alg.not_fixed(y, alg.basis) == oracle.not_fixed(alg, y, alg.basis)
    with_unit = oracle.table_algebra(F, basis, mul, y)
    assert with_unit.unit_violations() == oracle.unit_violations(with_unit)


def _table(products):
    """Algebra over Q on the labels a, b with the given nonzero products."""
    import oracle
    return oracle.table_algebra(QQ, ["a", "b"],
                                {pair: {lab: one} for pair, lab in products.items()})


class _CountedRow(dict):
    """A table row that counts each product read off it, under (side, the
    row's label, the product's other factor)."""

    def __init__(self, row, key, reads):
        super().__init__(row)
        self.key, self.reads = key, reads

    def items(self):
        self.reads.update(self.key + (z,) for z in dict.keys(self))
        return super().items()

    def __getitem__(self, z):
        self.reads[self.key + (z,)] += 1
        return super().__getitem__(z)

    def get(self, z, default=None):
        return self[z] if z in self else default


@pytest.mark.parametrize("name", ["m2-pair2-gf2", "twin-identity", "z4-regular"])
def test_not_fixed_reads_each_product_in_y_rows_once_and_equals_oracle(name):
    # yz and zy are summed off right[a] and left[a] for the labels a of y,
    # each product once, whatever labels are asked about; the sums gather
    # terms on M_2 blocks and cancel over GF(2) on the twin identities
    from collections import Counter
    import oracle
    from test_duality import _one_pass_docs
    from weakhopf.walg import FinAlgebra
    ctx = VerificationContext(parse_instance(_one_pass_docs()[name]))
    reads = Counter()
    for alg, candidates in ((ctx.bsm, [smash_unit_candidate(ctx)]),
                            (ctx.dsm, [ctx.y_morph, ctx.y_obj])):
        counted = FinAlgebra(alg.field, alg.basis,
                             {a: _CountedRow(row, ("right", a), reads) for a, row in alg.right.items()})
        counted.left = {b: _CountedRow(row, ("left", b), reads) for b, row in counted.left.items()}
        for y in candidates:
            want = oracle.not_fixed(alg, y, alg.basis)
            for labels in (alg.basis, alg.basis[::2]):
                reads.clear()
                assert counted.not_fixed(y, labels) == [z for z in want if z in set(labels)]
                assert reads == Counter({(side, a, z): 1 for a in y for side, table
                                         in (("right", alg.right), ("left", alg.left))
                                         for z in table.get(a, ())})


def test_one_sided_unit_candidate_is_rejected():
    # aa = a, ab = b, bb = b and ba = 0: every label occurs in some ax and
    # some xb, a is a left unit and not a right one, and no unit exists;
    # the mirrored table makes a a right unit only
    left_unit = _table({("a", "a"): "a", ("a", "b"): "b", ("b", "b"): "b"})
    right_unit = _table({("a", "a"): "a", ("b", "a"): "b", ("b", "b"): "b"})
    for alg in (left_unit, right_unit):
        assert find_unit(alg, {"a": one}) is None
        assert find_unit(alg) is None
    assert left_unit.not_fixed({"a": one}, left_unit.basis) == ["b"]
    assert right_unit.not_fixed({"a": one}, right_unit.basis) == ["b"]


def test_label_test_settles_without_elimination(monkeypatch):
    # b occurs in no product xb (first table) or in no product ax (second):
    # no unit, decided before any equation is solved.  A confirmed
    # candidate is returned without solving either.
    from weakhopf import exactmath

    def unused(*args):
        raise AssertionError("find_unit ran the elimination")
    monkeypatch.setattr(exactmath, "rref", unused)
    no_right = _table({("a", "a"): "a", ("a", "b"): "b"})
    no_left = _table({("a", "a"): "a", ("b", "a"): "b"})
    for alg in (no_right, no_left):
        assert find_unit(alg) is None
        assert find_unit(alg, {"a": one}) is None
    unital = _table({("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b"})
    assert find_unit(unital, {"a": one}) == {"a": one}


# -- B#KG#KG*, the skew ring and phi against the all-pairs oracle --------------


def ordered(x):
    """A dict as nested item lists, so that comparisons see key order."""
    return [(k, ordered(v)) for k, v in x.items()] if isinstance(x, dict) else x


def skew_outcome(build, bsm):
    """The skew labels, or what was raised.  The engine's positions are
    named by bsm's labels.  The oracle's ring gives its basis once its
    table is checked to be that of bsm restricted to it, as the engine,
    which keeps only the labels, takes it to be."""
    try:
        skew = build()
    except ValueError as exc:
        return "raised", str(exc)
    if isinstance(skew, list):
        return [bsm.label(x) for x in skew]
    view = labelled(bsm)
    assert skew.mul == {(x, y): prod for (x, y), prod in view.mul.items()
                        if x in skew.index and y in skew.index}
    return skew.basis


def assert_read_offs_match_oracle(ctx, dfap=None):
    """B#KG, and the double smash, phi and the skew ring read off it, equal
    the constructions that compute the smash formula over all label pairs,
    key order included, once positions are read as labels; the strata
    equal the per-label classification.  The skew ring is built on the
    derived action unless dfap is given."""
    import oracle
    from weakhopf.action import skew_groupoid_ring
    from weakhopf.duality import build_phi
    from weakhopf.smash import double_smash
    view = LabelView(ctx)
    ref_bsm = oracle.smash_product(ctx.B, ctx.kg, ctx.action)
    assert view.bsm.basis == ref_bsm.basis
    assert ordered(view.bsm.mul) == ordered(ref_bsm.mul)
    assert ordered(view.strata) == ordered(oracle.strata(view))
    dsm, ref = double_smash(ctx.bsm), view.dsm
    assert labelled(dsm).basis == ref.basis
    assert ordered(labelled(dsm).mul) == ordered(ref.mul)
    phi, ref_phi = build_phi(dsm, ctx.bsm), oracle.build_phi(ref, view.bsm)
    phi = labelled_map(phi, dsm, ctx.bsm)
    assert phi.domain_basis == ref_phi.domain_basis
    assert phi.codomain_basis == ref_phi.codomain_basis
    # a label has no engine column exactly when the oracle's is empty
    assert {lab: ordered(col) for lab, col in phi.columns.items()} \
        == {lab: ordered(col) for lab, col in ref_phi.columns.items() if col}
    if dfap is None:
        assert_view_matches_oracle(ctx)
    dfap = dfap or ctx.dfap[0]
    assert (skew_outcome(lambda: skew_groupoid_ring(ctx.bsm, dfap), ctx.bsm)
            == skew_outcome(lambda: oracle.skew_groupoid_ring(ctx.B, ctx.action, dfap), ctx.bsm))


def assert_view_matches_oracle(ctx, units=False):
    """Every read of the engine's double smash, a view that stores no
    product, equals the all-pairs table LabelView.dsm once positions are
    read as labels, key order included: each row and column, the keys
    either walk, basis_product at every pair, multiply, moved and
    not_fixed, the closure witnesses of the three unions of strata, the
    kernel-ideal witnesses and, with units, find_unit."""
    import oracle
    from weakhopf.duality import COMPLEMENT_STRATA, IMAGE_STRATA, UNITAL_STRATA, closure_witnesses
    view = LabelView(ctx)
    dsm, ref = ctx.dsm, view.dsm
    L = [dsm.label(q) for q in dsm.basis]
    assert L == ref.basis

    def named(x):
        return {L[k]: c for k, c in x.items()}
    for q, lab in enumerate(L):
        for line, want in ((dsm.right.get(q, {}), ref.right.get(lab, {})),
                           (dsm.left.get(q, {}), ref.left.get(lab, {}))):
            assert [(L[p], ordered(named(prod))) for p, prod in line.items()] == ordered(want)
    assert [L[q] for q in dsm.right] == list(ref.right)
    assert [L[q] for q in dsm.left] == sorted(ref.left, key=ref.index.get)
    for p in dsm.basis:
        for q in dsm.basis:
            assert ordered(named(dsm.basis_product(p, q))) == ordered(ref.basis_product(L[p], L[q]))
    F = ctx.field
    mixed = {q: F.add(F.one, F.one) if q % 3 else F.one for q in dsm.basis[::5]}
    elements = [ctx.y_morph, ctx.y_obj, mixed]
    for x in elements:
        for y in elements:
            assert ordered(named(dsm.multiply(x, y))) == ordered(ref.multiply(named(x), named(y)))
        assert [(side, L[z]) for side, z in dsm.moved(x, dsm.basis)] \
            == list(ref.moved(named(x), ref.basis))
        assert [L[z] for z in dsm.not_fixed(x, dsm.basis)] \
            == oracle.not_fixed(ref, named(x), ref.basis)
    for names in (UNITAL_STRATA, IMAGE_STRATA, COMPLEMENT_STRATA):
        want = oracle.closure_witnesses(view, names)
        assert closure_witnesses(dsm, ctx.classes[1], names) == want
        assert ctx._closure_check(names) == want
    assert [L[z] for z in ctx.kernel_ideal_witnesses()] == oracle.kernel_ideal_witnesses(view)
    if units:
        want = oracle.find_unit(ref)
        assert view.named(find_unit(dsm)) == want == view.named(find_unit(dsm, ctx.y_obj))


def test_read_offs_equal_oracle_on_builtins():
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        assert_read_offs_match_oracle(context(name))
    # ex2.8 has an inhomogeneous basis, so the unclassified list is compared
    assert not context("ex2.8").decomp.homogeneous


def test_read_offs_equal_oracle_on_golden_documents_and_a_missing_entry():
    # the wrong-composition pair(3) with m2_3 * m3_1 also left out
    import conftest
    from test_golden import DOCUMENTS
    missing = conftest.wrong_composition_doc(3)
    comp = missing["groupoid"]["composition"]
    comp.remove(next(e for e in comp if e[:2] == ["m2_3", "m3_1"]))
    for doc in [getattr(conftest, builder)() for builder in DOCUMENTS.values()] + [missing]:
        ctx = VerificationContext(parse_instance(doc))
        assert_read_offs_match_oracle(ctx)
    assert "composition-missing" in ctx.groupoid_report.checks_failed()


# -- every construction emits well-formed rows --------------------------------


def assert_rows_well_formed(alg, ref):
    """alg's rows hold no empty product and no zero coefficient and name
    only basis labels, and alg.mul is ref's table, key order included,
    once positions are read as labels."""
    for a, row in alg.right.items():
        assert a in alg.index
        for b, prod in row.items():
            assert b in alg.index and prod
            assert all(lab in alg.index and c != alg.field.zero for lab, c in prod.items())
    assert ordered(labelled(alg).mul) == ordered(ref.mul)


def assert_constructions_well_formed(ctx):
    """KG, KG*, B#KG, B#KG#KG* and, where it exists, B*G against the
    all-pairs constructions."""
    import oracle
    assert_rows_well_formed(ctx.kg, oracle.groupoid_algebra(ctx.field, ctx.groupoid))
    assert_rows_well_formed(ctx.kgstar, oracle.dual_weak_hopf(
        ctx.kg, oracle.groupoid_coalgebra(ctx.field, ctx.groupoid))[0])
    assert_rows_well_formed(ctx.bsm, oracle.smash_product(ctx.B, ctx.kg, ctx.action))
    assert_rows_well_formed(ctx.dsm, LabelView(ctx).dsm)
    if ctx.skew[0] is not None:
        skew_ring(ctx)


def test_constructions_emit_well_formed_rows():
    import conftest
    from test_golden import DOCUMENTS
    from weakhopf.instances import BUILTIN_NAMES
    docs = [conftest.builtin_doc(name) for name in BUILTIN_NAMES]
    docs += [getattr(conftest, builder)() for builder in DOCUMENTS.values()]
    docs.append(conftest.m2_doc(cyclic_group(2), "m2-z2", {"kind": "prime", "p": 7}))
    docs += [conftest.groupoid_doc(g, "generated", field, k)
             for g, field, k in ((pair_groupoid(3), None, 1), (cyclic_group(5), None, 1),
                                 (disjoint_union(pair_groupoid(2), cyclic_group(3)),
                                  {"kind": "prime", "p": 3}, 2))]
    skews = 0
    for doc in docs:
        ctx = VerificationContext(parse_instance(doc))
        assert_constructions_well_formed(ctx)
        skews += ctx.skew[0] is not None
    assert skews == len(docs) - 1  # ex2.8 has an inhomogeneous basis


def test_constructions_drop_products_whose_legs_cancel():
    # the engine builds KG* and the double smash from the composition index
    # alone and refuses any other coalgebra.  The oracles, the references of
    # the row tests above, take coproduct tables: delta(u_g) = u_g x u_g -
    # u_g x u_g in KG of i2 cancels r_g r_g in KG*, and two cancelling legs
    # of delta(r_x) cancel the double-smash products that run through them;
    # both oracles drop them
    import oracle
    from conftest import context
    from weakhopf.walg import dual_weak_hopf
    ctx = context("i2-swap")
    co = oracle.groupoid_coalgebra(QQ, ctx.groupoid)
    kgstar, star_co = oracle.dual_weak_hopf(ctx.kg, co)
    bad_co = oracle.CoStructure(QQ, {**co.delta, "g": [("g", "g", one), ("g", "g", -one)]},
                                co.counit, co.antipode)
    with pytest.raises(ValueError):
        dual_weak_hopf(ctx.kg, bad_co)
    dual, _ = oracle.dual_weak_hopf(ctx.kg, bad_co)
    assert kgstar.basis_product("g", "g") and not dual.basis_product("g", "g")
    bad_star_co = oracle.CoStructure(
        QQ, {**star_co.delta, "x": [("x", "x", one), ("x", "x", -one)]},
        star_co.counit, star_co.antipode)
    dsm = oracle.double_smash(ctx.B, ctx.kg, kgstar, bad_star_co, ctx.action)
    assert len(dsm.mul) < len(ctx.dsm.mul)
    for alg in (dual, dsm):
        assert all(prod for row in alg.right.values() for prod in row.values())


def smash_identity_failures(ctx):
    """The pairs (a, b) of B labels at which a -> sum_e a(e.1_B) # u_e is
    not multiplicative into B#KG, and the (g, b) at which
    (1_B # u_g)(b # sum_e u_e) != (g.b) # u_g."""
    F, B, g, act, bsm = ctx.field, ctx.B, ctx.groupoid, ctx.action, labelled(ctx.bsm)

    def tagged(x, m):  # x # u_m
        return {(lab, m): c for lab, c in x.items()}

    def embed(x):
        out = {}
        for e in g.objects:
            out.update(tagged(B.multiply(x, act.act({e: F.one}, B.unit)), e))
        return out

    return ([(a, b) for a in B.basis for b in B.basis
             if bsm.multiply(embed({a: F.one}), embed({b: F.one}))
             != embed(B.basis_product(a, b))],
            [(m, b) for m in g.morphism_ids() for b in B.basis
             if bsm.multiply(tagged(B.unit, m), {(b, e): F.one for e in g.objects})
             != tagged(act.rho[m].get(b, {}), m)])


def test_smash_product_satisfies_its_defining_identities():
    # a(s.b) and (s.b)a differ only on a non-commutative B: B#KG computed
    # with (s.b)a breaks the first identity on 20 of 64, 10 of 16 and 30 of
    # 144 pairs of the M_2 family, and keeps the second.  The broken action
    # of ex2.8 breaks the first on two pairs
    from conftest import context, m2_doc
    from weakhopf.instances import BUILTIN_NAMES
    m2 = [VerificationContext(parse_instance(m2_doc(g, "m2")))
          for g in (pair_groupoid(2), cyclic_group(2), pair_groupoid(3))]
    valid = [context(name) for name in BUILTIN_NAMES if context(name).validated]
    assert len(valid) == 3
    for ctx in m2 + valid:
        assert ctx.validated
        assert smash_identity_failures(ctx) == ([], []), ctx.instance.name
    assert len(smash_identity_failures(context("ex2.8"))[0]) == 2


def double_smash_identity_failures(ctx):
    """Where the double smash breaks two identities of Nikshych's
    construction, read off its multiply and B#KG's, with KG*'s coproduct
    legs r_n1 (x) r_n2 of r_n taken from the oracle's coalgebra tables:

    - iota(x) iota(y) == iota(xy) for x, y in B#KG, iota(b#u_g) the sum of
      b#u_g#r_n over the n leaving tgt(g).  The n that do not leave tgt(g)
      give the labels of A3, which no product reaches, so with them iota
      would not be multiplicative on a groupoid with two objects;
    - (1#1#r_n)(b#u_s#r_t) is the sum over the legs of r_n of
      [n1 = s][n2 = t] ((1#1)(b#u_s)) # r_t, and (b#u_s#r_t)(1#1#r_n) the
      sum over the legs of r_t and the objects e of
      [t1 = e][t2 = n] ((b#u_s)(1#u_e)) # r_n, 1#1 the sum of 1_B#u_e.

    Returns the failing pairs (x, y), then the failing (n, z, side)."""
    import oracle
    F, g, dsm, bsm = ctx.field, ctx.groupoid, ctx.dsm, labelled(ctx.bsm)
    legs = oracle.dual_weak_hopf(ctx.kg, oracle.groupoid_coalgebra(F, g))[1].delta
    L = [dsm.label(q) for q in dsm.basis]
    at = {lab: q for q, lab in enumerate(L)}

    def mul(x, y):  # the view's product, over labels
        return {L[k]: c for k, c in dsm.multiply({at[a]: c for a, c in x.items()},
                                                 {at[b]: c for b, c in y.items()}).items()}

    def tag(x, n):  # x # r_n
        return {(b, m, n): c for (b, m), c in x.items()}

    def iota(x):
        return {(b, m, n): c for (b, m), c in x.items() for n in g.leaving[g.tgt(m)]}
    failures = [(x, y) for x in bsm.basis for y in bsm.basis
                if mul(iota({x: F.one}), iota({y: F.one})) != iota(bsm.basis_product(x, y))]

    def at_object(e):  # 1_B # u_e
        return {(b, e): c for b, c in ctx.B.unit.items()}
    unit = {lab: c for e in g.objects for lab, c in at_object(e).items()}
    for n in g.morphism_ids():
        for (b, s, t) in L:
            z = {(b, s, t): F.one}
            left, right = {}, {}
            for n1, n2, c in legs.get(n, ()):
                if (n1, n2) == (s, t):
                    el_addto(F, left, c, tag(bsm.multiply(unit, {(b, s): F.one}), t))
            for t1, t2, c in legs.get(t, ()):
                if t1 in g.objects and t2 == n:
                    el_addto(F, right, c, tag(bsm.multiply({(b, s): F.one}, at_object(t1)), n))
            failures += [(n, (b, s, t), side) for side, got, want
                         in (("left", mul(tag(unit, n), z), left),
                             ("right", mul(z, tag(unit, n)), right)) if got != want]
    return failures


def test_double_smash_satisfies_its_defining_identities():
    # the view is compared with the all-pairs table elsewhere, and both
    # compute one formula; these identities are read off KG*'s coproduct
    # and B#KG instead.  They hold on the valid builtins, on M_3 blocks
    # over pair(2), whose B#KG products have up to three terms, and on the
    # broken ex2.8, whose groupoid is valid
    from conftest import context, mk_doc
    from weakhopf.instances import BUILTIN_NAMES
    ctxs = [context(name) for name in BUILTIN_NAMES if context(name).validated]
    ctxs += [VerificationContext(parse_instance(mk_doc(2, 3))), context("ex2.8")]
    assert len(ctxs) == 5 and not ctxs[-1].validated and ctxs[-1].groupoid_report.ok
    for ctx in ctxs:
        assert double_smash_identity_failures(ctx) == [], ctx.instance.name


def test_validated_verify_never_walks_the_double_smash(tmp_path, monkeypatch, capsys):
    # on a validated instance every reader of the double smash works per
    # product of B#KG: with a walk over all its rows or all its columns made
    # to raise, wh verify --claim all prints, exits and reports the same on
    # the valid builtins, Z/8 and M_3 blocks on pair(2).  The broken ex2.8
    # walks it, in thm2.6's kernel-ideal test, and then fails
    import json
    from conftest import context, groupoid_doc, mk_doc
    from weakhopf import smash
    from weakhopf.cli import main
    from weakhopf.instances import BUILTIN_NAMES
    targets = [name for name in BUILTIN_NAMES if context(name).validated]
    for name, doc in (("z8", groupoid_doc(cyclic_group(8), "z8-trivial")), ("m3", mk_doc(2, 3))):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        targets.append(str(tmp_path / f"{name}.json"))
    report = tmp_path / "report.json"

    def run(target):
        code = main(["verify", target, "--claim", "all", "--json", str(report)])
        return code, capsys.readouterr(), report.read_bytes()
    before = [run(target) for target in targets]

    def walk(self):
        raise AssertionError("the double smash was walked")
    monkeypatch.setattr(smash.Lines, "__iter__", walk)
    assert [run(target) for target in targets] == before
    assert main(["verify", "ex2.8", "--claim", "all"]) == 3
    assert "the double smash was walked" in capsys.readouterr().err


def test_smash_product_forms_each_coefficient_once(monkeypatch):
    # a(s.b) is formed once per (a, s, b), not once per composable pair of
    # labels (a # u_s, b # u_t)
    from conftest import groupoid_doc
    from weakhopf.smash import smash_product
    ctx = VerificationContext(parse_instance(groupoid_doc(pair_groupoid(3), "pair3")))
    B, calls = ctx.B, []
    multiply = B.multiply

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)
    monkeypatch.setattr(B, "multiply", counted)
    smash_product(B, ctx.kg, ctx.action)
    assert 0 < len(calls) <= B.dim * len(ctx.groupoid.morphisms) * B.dim


def test_smash_product_on_pair8_multiplies_only_along_nonzero_action_entries(monkeypatch):
    # a(s.b) is formed for the b with s.b != 0: dim B per nonzero entry, 512
    # B.multiply calls on pair(8) k=1, where every (a, s, b) would be 4,096
    from conftest import groupoid_doc
    from weakhopf.smash import smash_product
    from weakhopf.walg import groupoid_algebra
    inst = parse_instance(groupoid_doc(pair_groupoid(8), "pair8"))
    B, calls = inst.algebra, []
    multiply = B.multiply
    monkeypatch.setattr(B, "multiply", lambda x, y: calls.append(1) or multiply(x, y))
    smash_product(B, groupoid_algebra(inst.field, inst.groupoid)[0], inst.action)
    nonzero = sum(map(len, inst.action.rho.values()))
    assert nonzero == 64 and len(calls) <= B.dim * nonzero


GENERATED = ([pair_groupoid(n) for n in (1, 2, 3)] + [cyclic_group(n) for n in (2, 3, 4, 5)]
             + [disjoint_union(pair_groupoid(2), cyclic_group(3))])
FIELDS = [{"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3}]


@given(st.sampled_from(GENERATED), st.sampled_from(FIELDS))
@settings(max_examples=20, deadline=None)
def test_find_unit_equals_dense_oracle_on_generated_groupoids(g, field):
    from conftest import groupoid_doc
    ctx = VerificationContext(parse_instance(groupoid_doc(g, "generated", field)))
    assert_find_unit_matches_oracle(ctx, g)


@given(st.sampled_from(GENERATED), st.sampled_from(FIELDS))
@settings(max_examples=20, deadline=None)
def test_read_offs_equal_oracle_on_generated_groupoids(g, field):
    from conftest import groupoid_doc
    assert_read_offs_match_oracle(
        VerificationContext(parse_instance(groupoid_doc(g, "generated", field))))


@given(st.sampled_from([builtin_i2(), cyclic_group(2), cyclic_group(3), pair_groupoid(2)]),
       st.sampled_from(FIELDS), st.sampled_from(["none", "spurious", "missing"]), st.data())
@settings(max_examples=60, deadline=None)
def test_read_offs_equal_oracle_on_random_actions(g, field, table, data):
    # any action table, valid or not, and a composition table with one
    # spurious or missing entry: the read-offs, the skew ring's error and
    # the kernel-ideal witnesses of thm2.6 must match the oracle
    import oracle
    from conftest import groupoid_doc
    doc = groupoid_doc(g, "random", field)
    objects = doc["algebra"]["basis"]
    coeff = st.sampled_from(["0", "1", "2", "-1"])
    doc["action"] = [[m.id, b, {x: data.draw(coeff) for x in objects}]
                     for m in g.morphisms for b in objects]
    comp = doc["groupoid"]["composition"]
    loose = [(a.id, b.id) for a in g.morphisms for b in g.morphisms if a.tgt != b.src]
    if table == "spurious" and loose:
        a, b = data.draw(st.sampled_from(loose))
        comp.append([a, b, data.draw(st.sampled_from(g.morphism_ids()))])
    elif table == "missing":
        comp.remove(data.draw(st.sampled_from(comp)))
    ctx = VerificationContext(parse_instance(doc))
    assert_read_offs_match_oracle(ctx)
    assert ctx.kernel_ideal_witnesses() == oracle.kernel_ideal_witnesses(ctx)
    # the skew ring reads only the ideal labels of the derived action: any
    # labels, in any order, must give the oracle's ring or its error; with
    # every label at every morphism the ring is always closed
    shape = data.draw(st.sampled_from(["full", "partial", "unlabeled"]))
    ids = g.morphism_ids()
    labels = {m: data.draw(st.permutations(objects) if shape == "full"
                           else st.lists(st.sampled_from(objects), unique=True))
              for m in ids}
    if shape == "unlabeled":
        labels[data.draw(st.sampled_from(ids))] = None
    assert_read_offs_match_oracle(ctx, DfapAction({}, labels))


def test_spurious_composition_entry_multiplies_to_zero_everywhere():
    # KG, B#KG, B#KG#KG* and the skew ring all ignore the entry g*g = x,
    # and the validator reports it
    from conftest import spurious_i2_doc
    ctx = VerificationContext(parse_instance(spurious_i2_doc()))
    assert "composition-spurious" in ctx.groupoid_report.checks_failed()
    assert ctx.kg.basis_product("g", "g") == {}
    view = LabelView(ctx)
    assert view.bsm.basis_product(("e1", "g"), ("e2", "g")) == {}
    for ((_, s), (_, t)), prod in view.bsm.mul.items():
        assert {m for _, m in prod} <= set(ctx.kg.basis_product(s, t))
    for ((_, m, _), (_, s, _)), prod in view.dsm.mul.items():
        assert {ms for _, ms, _ in prod} <= set(ctx.kg.basis_product(m, s))
    skew_ring(ctx)  # B#KG restricted to the skew labels


@given(st.sampled_from([b for b in BASES if len(b.morphisms) <= 4]),
       st.lists(st.sampled_from(SABOTAGE_KINDS), min_size=1, max_size=3),
       st.sampled_from([{"kind": "rational"}, {"kind": "prime", "p": 2}]),
       st.integers(1, 2), st.data())
@settings(max_examples=80, deadline=None)
def test_module_check_and_double_smash_equal_oracle_on_broken_groupoids(g, kinds, field, k, data):
    # the double smash read off g.after, and the module-algebra check with
    # KG's grouplike legs and its target counit read off KG.left, against
    # the oracles fed the oracle's own KG* and KG's coalgebra tables, on
    # groupoids broken in up to three places
    import oracle
    from conftest import groupoid_doc
    from weakhopf.action import check_module_algebra
    from weakhopf.smash import double_smash
    doc = groupoid_doc(sabotaged_groupoid(g, kinds, data), "broken", field, k)
    ctx = VerificationContext(parse_instance(doc))
    dsm, ref = labelled(double_smash(ctx.bsm)), LabelView(ctx).dsm
    assert dsm.basis == ref.basis
    assert ordered(dsm.mul) == ordered(ref.mul)
    assert_view_matches_oracle(ctx, units=True)
    kg_co = oracle.groupoid_coalgebra(ctx.field, ctx.groupoid)
    assert (check_module_algebra(ctx.B, ctx.kg, ctx.action)
            == oracle.check_module_algebra(ctx.B, ctx.kg, kg_co, ctx.action))


def test_closure_reads_equal_oracle_when_no_morphism_leaves_an_object():
    # i2 with y and gi moved to start at x: no morphism leaves y, so the
    # strata of (b, g) with tgt g == y have no composable kind
    from dataclasses import replace

    from conftest import groupoid_doc
    from weakhopf.groupoid import Groupoid
    g = builtin_i2()
    morphs = [replace(m, src="x") if m.id in ("y", "gi") else m for m in g.morphisms]
    doc = groupoid_doc(Groupoid(g.objects, morphs, dict(g.comp)), "nothing-leaves-y")
    ctx = VerificationContext(parse_instance(doc))
    assert not ctx.groupoid_report.ok
    assert_view_matches_oracle(ctx, units=True)
