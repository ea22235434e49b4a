from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.smash import find_unit

one = Fraction(1)


def harpoon(rho_label, z: dict) -> dict:
    """Evaluation action of a dual basis vector on B#KG: keeps the terms
    whose middle leg equals the given label."""
    return {lab: c for lab, c in z.items() if lab[1] == rho_label}


def test_smash_product_rule_i2(ctx_i2):
    bsm = ctx_i2.bsm
    assert bsm.basis_product(("e1", "g"), ("e2", "gi")) == {("e1", "x"): one}
    assert bsm.basis_product(("e1", "g"), ("e1", "g")) == {}


def test_smash_product_group_trivial(ctx_z2):
    bsm = ctx_z2.bsm
    assert bsm.basis_product(("b", "a"), ("b", "a")) == {("b", "e"): one}


def test_smash_basis_order_is_lexicographic(ctx_i2):
    assert ctx_i2.bsm.basis[:4] == [("e1", "x"), ("e1", "y"), ("e1", "g"), ("e1", "gi")]
    assert ctx_i2.dsm.basis[0] == ("e1", "x", "x")
    assert ctx_i2.dsm.basis[1] == ("e1", "x", "y")


def test_harpoon():
    z = {("e1", "g"): one}
    assert harpoon("g", z) == z
    assert harpoon("x", {("e1", "x"): one}) == {("e1", "x"): one}
    assert harpoon("g", {("e1", "x"): one}) == {}
    mixed = {("e1", "x"): one, ("e2", "g"): one}
    assert harpoon("x", mixed) == {("e1", "x"): one}


def test_double_smash_rule(ctx_i2):
    dsm = ctx_i2.dsm
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
    dsm, g = ctx_z2.dsm, ctx_z2.groupoid
    for (_, m, n) in dsm.basis:
        for (_, s, t) in dsm.basis:
            got = dsm.basis_product(("b", m, n), ("b", s, t))
            expected = {}
            if g.compose(s, t) == n:
                expected = {("b", g.compose(m, s), t): one}
            assert got == expected


def test_smash_products_associative_on_valid_instances(ctx_i2, ctx_z2, ctx_z3):
    for ctx in (ctx_i2, ctx_z2, ctx_z3):
        assert ctx.bsm.associativity_violations() == []
        assert ctx.dsm.associativity_violations() == []


def test_smash_products_not_associative_for_broken_action(ctx_ex28):
    # the action fails the module axioms, and the failure is visible here:
    # (e1#u_s)(e3#u_s) evaluates before e3 can annihilate
    v = ctx_ex28.bsm.associativity_violations()
    assert (("e1", "s"), ("e3", "s"), ("e1", "s")) in v
    assert ctx_ex28.dsm.associativity_violations() != []


def test_left_identity_on_matching_basis_vectors(ctx_i2):
    # sum_e (e.1_B # u_e) fixes b # u_g whenever b sits in the component at
    # src(g); no global unit is claimed
    F = ctx_i2.field
    bsm, g, d = ctx_i2.bsm, ctx_i2.groupoid, ctx_i2.decomp
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


def test_find_unit_equals_dense_oracle_on_builtins():
    import oracle
    from conftest import context
    from weakhopf.instances import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        ctx = context(name)
        for alg in (ctx.B, ctx.kg, ctx.kgstar, ctx.bsm, ctx.dsm):
            assert find_unit(alg) == oracle.find_unit(alg), (name, alg.name)


@given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 3]), st.data())
@settings(max_examples=80, deadline=None)
def test_find_unit_equals_dense_oracle_on_random_tables(dim, p, data):
    import oracle
    from weakhopf.exactmath import PrimeField
    from weakhopf.walg import FinAlgebra
    F = PrimeField(p)
    basis = [f"x{i}" for i in range(dim)]
    coeff = st.integers(min_value=0, max_value=p - 1)
    mul = {(a, b): dict(zip(basis, data.draw(st.lists(coeff, min_size=dim, max_size=dim))))
           for a in basis for b in basis}
    alg = FinAlgebra(F, basis, mul)
    assert find_unit(alg) == oracle.find_unit(alg)
