"""Smash products B#KG and B#KG#KG*, and the search for a unit.

Basis labels are tuples: (b, g) for B#KG and (b, g, h) for the double
smash, ordered lexicographically by (B index, morphism index, dual index).
smash_product is the only place the smash formula a(s.b) # u_{st} is
computed: the double smash, the skew groupoid ring and phi are read off
the nonzero products of the B#KG it returns.  Neither product is assumed
unital; find_unit reports one if it exists, in three exact steps: a label
test that rejects every algebra in which some basis label is missing from
its own products (a unit u needs x = ux = xu), a two-sided check of a
caller's candidate (a two-sided unit is unique, so a confirmed candidate
is the unit), and an exact linear solve when neither settles it.
"""

from . import exactmath
from .walg import FinAlgebra


def smash_product(B: FinAlgebra, kg: FinAlgebra, action) -> FinAlgebra:
    """(a # u_s)(b # u_t) = a(s.b) # u_{st}, zero when st is undefined.
    a(s.b) is formed once per (a, s, b) with s.b != 0 (read off rho[s]) and
    emitted for each t composable with s whose product the table defines.
    Its generators start from the (b, g), g over KG's generators but no object."""
    F = B.field
    g = action.groupoid
    basis = [(b, m) for b in B.basis for m in g.morphism_ids()]
    right = {}
    for (a, s) in basis:
        for b, sb in action.rho[s].items():
            coeff = B.multiply({a: F.one}, sb)
            if coeff:
                for t, st in g.after[s]:
                    right.setdefault((a, s), {})[(b, t)] = {(lab, st): c for lab, c in coeff.items()}
    objects = set(g.objects)
    first = [(b, m) for b in B.basis for m in kg.generators if m not in objects]
    return FinAlgebra(F, basis, right, None, name="B#KG",
                      meta={"B": B, "kg": kg, "action": action, "groupoid": g}, first=first)


def double_smash(bsm: FinAlgebra) -> FinAlgebra:
    """B#KG#KG*, read off the nonzero products of B#KG and the groupoid's
    composition index:

        (a # u_m # r_n)(b # u_s # r_t) = a(m.b) # u_{ms} # r_t

    for each t with st defined and equal to n, and zero otherwise.  This
    is the product through the legs r_{n1} (x) r_{n2} of KG*'s coproduct
    (the factorizations n1 n2 = n) with n1 == s, as r_{n2} r_t =
    [n2 = t] r_t.  KG* enters only through that rule.

    The keys come out in basis order: (a, m), n and (b, s) are walked in
    basis order, and so is t in g.after[s].  Its meta records bsm.
    """
    g = bsm.meta["groupoid"]
    ids = g.morphism_ids()
    right = {}
    for a, m in bsm.basis:
        by_n = {}  # n -> the row of (a, m, n)
        for (b, s), prod in bsm.right.get((a, m), {}).items():
            for t, n in g.after[s]:
                terms = {(lab, ms, t): c for (lab, ms), c in prod.items()}
                by_n.setdefault(n, {})[(b, s, t)] = terms
        for n in ids:
            if n in by_n:
                right[(a, m, n)] = by_n[n]
    basis = [(b, m, n) for (b, m) in bsm.basis for n in ids]
    return FinAlgebra(bsm.field, basis, right, None, name="B#KG#KG*", meta={**bsm.meta, "bsm": bsm})


def find_unit(alg: FinAlgebra, candidate=None):
    """Two-sided unit of a structure-constant algebra, or None.

    1. If a unit u exists, then x = ux = xu for every basis label x, so x
       occurs in some product ax and in some product xb.  If a label fails
       either test there is no unit; no field operation is needed.
    2. A two-sided unit is unique, so a candidate that fixes every basis
       label on both sides is the unit.
    3. Otherwise solve 'u x = x = x u for all basis x' exactly.  The
       equation for (x, side, i) says that the coefficient of basis label i
       in sum_b u_b (b x), or in sum_b u_b (x b), is 1 when i == x and 0
       otherwise; it is read off the nonzero structure constants.  The
       solution is confirmed on both sides.
    """
    right, left = alg.right, alg.left
    for x in alg.basis:
        if not any(x in prod for prod in left.get(x, {}).values()) \
                or not any(x in prod for prod in right.get(x, {}).values()):
            return None
    if candidate is not None and not alg.not_fixed(candidate, alg.basis):
        return alg.from_vector(alg.to_vector(candidate))
    F = alg.field
    n = alg.dim
    eqs = {}
    for a, row in right.items():
        for b, prod in row.items():
            for lab, c in prod.items():
                eqs.setdefault((b, 0, lab), {})[alg.index[a]] = c
                eqs.setdefault((a, 1, lab), {})[alg.index[b]] = c
    for x in alg.basis:
        for side in (0, 1):
            eqs.setdefault((x, side, x), {})[n] = F.one  # index n: right-hand side
    # the lookup through the module keeps rref visible to tracers
    rows, pivots = exactmath.rref(F, eqs.values())
    if n in pivots:
        return None
    unit = alg.from_vector({p: row[n] for p, row in zip(pivots, rows) if n in row})
    return None if alg.not_fixed(unit, alg.basis) else unit
