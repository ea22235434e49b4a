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
from .walg import FinAlgebra, acc


def smash_product(B: FinAlgebra, kg: FinAlgebra, action) -> FinAlgebra:
    """(a # u_s)(b # u_t) = a(s.b) # u_{st}, zero when st is undefined.
    a(s.b) is formed once per (a, s, b) with s.b != 0 (read off rho[s]) and
    emitted for each t composable with s whose product the table defines."""
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
    return FinAlgebra(F, basis, right, None, name="B#KG",
                      meta={"B": B, "kg": kg, "action": action, "groupoid": g})


def double_smash(bsm: FinAlgebra, kgstar: FinAlgebra, kgstar_co) -> FinAlgebra:
    """B#KG#KG* with the dual acting through its coproduct legs:

        (a # u_m # r_n)(b # u_s # r_t)
            = sum over coproduct legs n -> n1 x n2 with n1 == s of
              (a # u_m)(b # u_s) # r_{n2} r_t

    For a groupoid dual this collapses to a(m.b) # u_{ms} # r_t when the
    product s*t exists and equals n, and zero otherwise.  Only the nonzero
    products of B#KG and KG* are visited.

    The keys come out in basis order: (a, m), n and (b, s) are walked in
    basis order, and for fixed (s, n) so is t.  dual_weak_hopf lists the
    legs of delta(r_n) sorted by (n1, n2), and in KG* r_a r_b = delta_ab r_a,
    so t runs over the second legs n2 in order.  Products whose legs cancel
    are dropped.
    """
    F = bsm.field
    one = F.one
    legs = {}  # (s, n) -> the legs (n2, c) of delta(r_n) with first factor s
    for n in kgstar.basis:
        for n1, n2, c in kgstar_co.delta.get(n, []):
            legs.setdefault((n1, n), []).append((n2, c))
    right = {}
    for a, m in bsm.basis:
        row = bsm.right.get((a, m), {})
        for n in kgstar.basis:
            out_row = {}
            for (b, s), prod in row.items():
                for n2, c in legs.get((s, n), ()):
                    for t, conv in kgstar.right.get(n2, {}).items():
                        terms = {(lab, ms, rho): cb if c == one == cr else F.mul(c, F.mul(cb, cr))
                                 for (lab, ms), cb in prod.items() for rho, cr in conv.items()}
                        out = out_row.setdefault((b, s, t), terms)
                        if out is not terms:
                            for k, w in terms.items():
                                acc(F, out, k, w)
            if out_row := {k: out for k, out in out_row.items() if out}:
                right[(a, m, n)] = out_row
    basis = [(b, m, n) for (b, m) in bsm.basis for n in kgstar.basis]
    return FinAlgebra(F, basis, right, None, name="B#KG#KG*",
                      meta={**bsm.meta, "kgstar": kgstar})


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
