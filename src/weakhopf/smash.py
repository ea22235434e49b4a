"""Smash products B#KG and B#KG#KG*, and the search for a unit.

Both are keyed by basis position, as their meta["positions"] records:
(b, g) sits at pos(iB, ig) and (b, g, h) at pos(pos(iB, ig), ih), for iB
the index of b in B's basis and ig, ih those of g, h among the morphism
ids.  Positions order the labels lexicographically; alg.label(i) names
one where it is printed.
smash_product is the only place the smash formula a(s.b) # u_{st} is
computed, and B#KG the only table of products: the double smash is a view
that computes its products off B#KG's when read, and phi and the skew
groupoid ring are read off the nonzero products of B#KG.  Neither product
is assumed unital; find_unit reports one if it exists, in three exact
steps: a two-sided check of a caller's candidate, a label test, and an
exact linear solve when neither settles it.
"""

from collections.abc import Mapping

from . import exactmath
from .walg import FinAlgebra


class Positions:
    """How B#KG and B#KG#KG* key their labels.  With M morphisms, in
    morphism_ids() order, the pair of a position i (of b in B, or of (b, g)
    in B#KG) and a morphism index j sits at pos(i, j) = i * M + j, and
    split(q) gives (i, j) back.  The loops of this module inline pos."""

    def __init__(self, ids):
        self.ids, self.M = ids, len(ids)
        self.index = {m: j for j, m in enumerate(ids)}  # morphism id -> its index

    def pos(self, i, j):
        return i * self.M + j

    def split(self, q):
        return divmod(q, self.M)


def smash_product(B: FinAlgebra, kg: FinAlgebra, action) -> FinAlgebra:
    """(a # u_s)(b # u_t) = a(s.b) # u_{st}, zero when st is undefined.
    a(s.b) is formed once per (a, s, b) with s.b != 0 (read off rho[s]) and
    emitted for each t composable with s whose product the table defines.
    Its generators start from the (b, g), g over KG's generators but no
    object.  Its meta keeps the positions and after[s], g.after by
    morphism index."""
    F, g, pos = B.field, action.groupoid, B.index
    P = Positions(g.morphism_ids())
    M, ids, mid = P.M, P.ids, P.index
    after = [[(mid[t], mid[st]) for t, st in g.after[s]] for s in ids]
    right = {}
    for x in range(B.dim * M):
        ia, s = P.split(x)  # x is the position of (a, s)
        for b, sb in action.rho[ids[s]].items():
            if coeff := B.multiply({B.basis[ia]: F.one}, sb):
                terms = [(pos[lab] * M, c) for lab, c in coeff.items()]
                for t, st in after[s]:
                    right.setdefault(x, {})[pos[b] * M + t] = {k + st: c for k, c in terms}

    def label(x):
        ib, m = P.split(x)
        return B.basis[ib], ids[m]
    first = [P.pos(ib, mid[m]) for ib in range(B.dim) for m in kg.generators
             if m not in g.objects]
    return FinAlgebra(F, range(B.dim * M), right, None, name="B#KG", first=first, label=label,
                      meta={"B": B, "kg": kg, "action": action, "groupoid": g,
                            "positions": P, "after": after})


class Lines(Mapping):
    """The rows or the columns of a double smash: the line at q is line(q),
    computed when read and absent when empty; walk() gives the keys."""

    def __init__(self, line, walk):
        self.line, self.walk = line, walk

    def __getitem__(self, q):
        if line := self.line(q):
            return line
        raise KeyError(q)

    def __iter__(self):
        return self.walk()

    def __len__(self):
        return sum(1 for _ in self)


def double_smash(bsm: FinAlgebra) -> FinAlgebra:
    """B#KG#KG*, a view on bsm that stores no product:

        (a # u_m # r_n)(b # u_s # r_t) = a(m.b) # u_{ms} # r_t

    for each t with st defined and equal to n, and zero otherwise.  This
    is the product through the legs r_{n1} (x) r_{n2} of KG*'s coproduct
    (the factorizations n1 n2 = n) with n1 == s, as r_{n2} r_t =
    [n2 = t] r_t.  KG* enters only through that rule: the product is
    xy # r_t, xy the product in B#KG of x = a#u_m and y = b#u_s.  Its
    right and left are Lines read off B#KG's row of x or column of y and
    after[s], keyed and walked in basis order.  Its meta records bsm."""
    P, after = bsm.meta["positions"], bsm.meta["after"]
    M = P.M
    ending = [dict(pairs) for pairs in after]  # [s]: {t: st}
    into = [{} for _ in after]                 # [s]: {n: the t with st = n}
    for pairs, out in zip(after, into):
        for t, n in pairs:
            out.setdefault(n, []).append(t)

    def row(q):
        x, n = divmod(q, M)
        return {y * M + t: {k * M + t: c for k, c in prod.items()}
                for y, prod in bsm.right.get(x, {}).items() for t in into[y % M].get(n, ())}

    def rows():
        for x, products in bsm.right.items():
            yield from (x * M + n for n in sorted({n for y in products for n in into[y % M]}))

    def column(q):
        y, t = divmod(q, M)
        n = ending[y % M].get(t)
        return {} if n is None else {x * M + n: {k * M + t: c for k, c in prod.items()}
                                     for x, prod in bsm.left.get(y, {}).items()}

    def columns():
        return (y * M + t for y in sorted(bsm.left) for t in ending[y % M])

    def label(q):
        x, n = P.split(q)
        return (*bsm.label(x), P.ids[n])
    dsm = FinAlgebra(bsm.field, range(bsm.dim * M), Lines(row, rows), None, name="B#KG#KG*",
                     meta={**bsm.meta, "bsm": bsm}, label=label)
    dsm.left = Lines(column, columns)
    return dsm


def find_unit(alg: FinAlgebra, candidate=None):
    """Two-sided unit of a structure-constant algebra, or None.

    1. A two-sided unit is unique, so a candidate that fixes every basis
       label on both sides is the unit.  The test stops at the first label
       the candidate does not fix.
    2. If a unit u exists, then x = ux = xu for every basis label x, so x
       occurs in some product ax and in some product xb.  If a label fails
       either test there is no unit, and no field operation is needed.  A
       confirmed candidate passes this test, so step 1 changes no answer.
    3. Otherwise solve 'u x = x = x u for all basis x' exactly.  The
       equation for (x, side, i) says that the coefficient of basis label i
       in sum_b u_b (b x), or in sum_b u_b (x b), is 1 when i == x and 0
       otherwise; it is read off the nonzero structure constants.  The
       solution is confirmed on both sides.
    """
    def fixes_all(y):
        return next(alg.moved(y, alg.basis), None) is None
    if candidate is not None and fixes_all(candidate):
        return alg.from_vector(alg.to_vector(candidate))
    right, left = alg.right, alg.left
    for x in alg.basis:
        if not any(x in prod for prod in left.get(x, {}).values()) \
                or not any(x in prod for prod in right.get(x, {}).values()):
            return None
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
    return unit if fixes_all(unit) else None
