"""Finite-dimensional algebras by structure constants, coalgebra data, and
the groupoid algebra / dual constructions with their axiom checkers.

Elements are finitely supported dicts {basis label: scalar}; zero
coefficients are never stored.  The owning algebra carries the field, so
all element arithmetic goes through the algebra (or the el_* helpers).
el_apply evaluates every map given by basis images; at {k: one} it
returns the stored image, which callers only read.
"""

from collections import Counter
from functools import cache, cached_property

from .report import Report

# -- element helpers ----------------------------------------------------------


def el_norm(field, coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v != field.zero}


def acc(field, out: dict, key, w):
    """out[key] += w, dropping the entry when the sum is zero."""
    s = field.add(out.get(key, field.zero), w)
    if s == field.zero:
        out.pop(key, None)
    else:
        out[key] = s


def el_addto(field, out: dict, c, a: dict):
    """out += c * a, in place."""
    if c != field.zero:
        for k, v in a.items():
            acc(field, out, k, field.mul(c, v))


def _summed(field, terms):
    """The terms (key, w), all w != 0, summed per key."""
    out = dict(terms)
    if len(out) < len(terms):  # a key repeats
        out = {}
        for key, w in terms:
            acc(field, out, key, w)
    return out


def el_apply(field, images: dict, x: dict) -> dict:
    """The map with basis images images[label] (absent: zero) at x, summed
    over the labels of both; at x = {k: one}, the stored images[k], read-only."""
    if len(x) == 1:
        (k, c), = x.items()
        if c == field.one:
            return images.get(k, {})
    out = {}
    for lab in x.keys() & images.keys():
        el_addto(field, out, x[lab], images[lab])
    return out


class FinAlgebra:
    """Algebra on an ordered basis with structure constants.

    right[a] is the row {b: ab} of nonzero products, with no zero
    coefficient; absent pairs multiply to zero.  It is stored as given:
    parse_instance checks outside tables, and the constructions here and in
    smash and action emit their own.  unit is an element or None.
    Nothing is assumed: associativity and the unit law are checked, not
    taken on faith.  The tables are never mutated after construction;
    left, and the record of groupoid_algebra, rely on it.
    """

    def __init__(self, field, basis, right, unit=None, name="", meta=None):
        self.field = field
        self.basis = list(basis)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.right = right
        self.unit = unit
        self.name = name
        self.meta = meta or {}

    @cached_property
    def left(self):
        """left[b] maps each a with ab != 0 to ab."""
        left = {}
        for a, row in self.right.items():
            for b, prod in row.items():
                left.setdefault(b, {})[a] = prod
        return left

    @property
    def mul(self):
        """The flat view {(a, b): ab}, built on each access."""
        return {(a, b): prod for a, row in self.right.items() for b, prod in row.items()}

    @property
    def dim(self):
        return len(self.basis)

    def basis_element(self, label) -> dict:
        if label not in self.index:
            raise ValueError(f"foreign label {label!r}")
        return {label: self.field.one}

    def element(self, coeffs: dict) -> dict:
        for lab in coeffs:
            if lab not in self.index:
                raise ValueError(f"foreign label {lab!r}")
        return el_norm(self.field, coeffs)

    def basis_product(self, a, b) -> dict:
        return self.right.get(a, {}).get(b, {})

    def multiply(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants."""
        F = self.field
        out = {}
        for la, ca in x.items():
            if la not in self.index:
                raise ValueError(f"foreign label {la!r}")
            row = self.right.get(la, {})
            for lb, cb in y.items():
                if lb not in self.index:
                    raise ValueError(f"foreign label {lb!r}")
                prod = row.get(lb)
                if not prod:
                    continue
                c = F.mul(ca, cb)
                for lab, cc in prod.items():
                    acc(F, out, lab, F.mul(c, cc))
        return out

    def to_vector(self, x: dict) -> dict:
        """Sparse coordinate vector {basis index: scalar}."""
        return {self.index[lab]: c for lab, c in x.items()}

    def from_vector(self, v: dict) -> dict:
        return el_norm(self.field, {self.basis[i]: v[i] for i in sorted(v)})

    def associativity_violations(self):
        """Exhaustive check of (ab)c == a(bc) over basis triples, in basis
        order.  Only triples where (ab)c or a(bc) can be nonzero are
        visited: c must multiply some label of ab, or a some label of bc."""
        right, left = self.right, self.left
        triples = set()
        for a, row in right.items():
            for b, ab in row.items():
                for w in ab:
                    triples.update((a, b, c) for c in right.get(w, ()))
                    triples.update((x, a, b) for x in left.get(w, ()))
        one, order = self.field.one, self.index.get
        return [(a, b, c) for a, b, c in sorted(triples, key=lambda t: tuple(map(order, t)))
                if self.multiply(self.basis_product(a, b), {c: one})
                != self.multiply({a: one}, self.basis_product(b, c))]

    def unit_violations(self):
        """("left", b) when ub != b and ("right", b) when bu != b, for the
        basis labels b in order; tested as in not_fixed."""
        if self.unit is None:
            return []
        F, u = self.field, self.element(self.unit)
        return [(side, b) for b in self.basis
                for side, prods in (("left", self.left), ("right", self.right))
                if el_apply(F, prods.get(b, {}), u) != {b: F.one}]

    def not_fixed(self, y: dict, labels) -> list:
        """The labels z, in the order given, with yz != z or zy != z.  yz
        is summed over the a of y with az != 0, read off left[z]; zy over
        the b of y with zb != 0, read off right[z]."""
        F, y = self.field, self.element(y)
        return [z for z in labels
                if el_apply(F, self.left.get(z, {}), y) != {z: F.one}
                or el_apply(F, self.right.get(z, {}), y) != {z: F.one}]


class CoStructure:
    """Comultiplication, counit and (optional) antipode tables.

    delta[label] is a list of (left, right, scalar) triples; counit maps a
    label to a scalar; antipode maps a label to an element or is None.
    The tables are never mutated after construction.  groupoid is the
    record groupoid_algebra(field, g) leaves on KG's, (KG, g, P, L, False),
    and dual_weak_hopf on that of KG* built from it, (KG*, g, P, L, True):
    P[a] = {b: ab} is g's composition index, L = KG.left its transpose.
    A check reads it only when its first entry is the algebra it was given.
    """

    groupoid = None

    def __init__(self, field, delta, counit, antipode=None):
        self.field = field
        self.delta = {k: [(a, b, c) for (a, b, c) in v if c != field.zero]
                      for k, v in delta.items()}
        self.counit = dict(counit)
        self.antipode = ({k: el_norm(field, v) for k, v in antipode.items()}
                         if antipode is not None else None)

    def delta_element(self, x: dict) -> dict:
        """Comultiplication of an element, as {(l1, l2): scalar}."""
        F = self.field
        out = {}
        for lab, c in x.items():
            for a, b, w in self.delta.get(lab, []):
                acc(F, out, (a, b), F.mul(c, w))
        return out

    def counit_element(self, x: dict):
        F = self.field
        acc = F.zero
        for lab, c in x.items():
            acc = F.add(acc, F.mul(c, self.counit.get(lab, F.zero)))
        return acc


# -- tensor helpers (dicts keyed by label tuples) ------------------------------


def acc_tensor(field, out, w, *factors):
    """out += w * (f1 x f2 x ...) for elements f1, f2, ..., in place."""
    terms = {(): w}
    for f in factors:
        terms = {k + (lab,): field.mul(c, x) for k, c in terms.items()
                 for lab, x in f.items()}
    for k, c in terms.items():
        acc(field, out, k, c)


# -- constructions -------------------------------------------------------------


def groupoid_algebra(field, g):
    """The groupoid algebra: u_a u_b = u_{ab} when tgt(a) == src(b), else 0;
    grouplike comultiplication, counit 1, antipode by inversion."""
    basis = g.morphism_ids()
    # a missing entry is the validator's to report
    P = {a: dict(g.after[a]) for a in basis}
    right = {a: {b: {ab: field.one} for b, ab in row.items()} for a, row in P.items() if row}
    unit = {e: field.one for e in g.objects}
    alg = FinAlgebra(field, basis, right, unit, name="KG")
    delta = {m: [(m, m, field.one)] for m in basis}
    counit = {m: field.one for m in basis}
    antipode = {m: {g.inv(m): field.one} for m in basis}
    co = CoStructure(field, delta, counit, antipode)
    co.groupoid = alg, g, P, alg.left, False
    return alg, co


def dual_weak_hopf(alg: FinAlgebra, co: CoStructure):
    """Finite dual on the same labels: products by walking delta,
    coproducts by walking the factorizations recorded in the products,
    counit from the unit, antipode transposed.  Tables come out in basis
    order, and products whose legs cancel are dropped.  When co carries
    the record of groupoid_algebra for this very alg, the dual's coalgebra
    carries it over."""
    F = alg.field
    if alg.unit is None:
        raise ValueError("dual construction needs a unital algebra")
    basis, order = list(alg.basis), alg.index.get

    right = {}
    for x in basis:
        for a, b, c in co.delta.get(x, []):
            if a in alg.index and b in alg.index:
                acc(F, right.setdefault(a, {}).setdefault(b, {}), x, c)
    right = {a: row for a in sorted(right, key=order)
             if (row := {b: right[a][b] for b in sorted(right[a], key=order) if right[a][b]})}
    unit = {x: c for x in basis if (c := co.counit.get(x, F.zero)) != F.zero}

    delta = {x: [] for x in basis}
    for a in sorted(alg.right, key=order):
        row = alg.right[a]
        for b in sorted(row, key=order):
            for x, c in row[b].items():
                delta[x].append((a, b, c))
    counit = {x: alg.unit.get(x, F.zero) for x in basis}

    antipode = None
    if co.antipode is not None:
        antipode = {x: {} for x in basis}
        for y in basis:
            for x, c in co.antipode.get(y, {}).items():
                if x in antipode:
                    antipode[x][y] = c

    dual = FinAlgebra(F, basis, right, unit, name=f"{alg.name}*")
    dual_co = CoStructure(F, delta, counit, antipode)
    if (kg := _record(alg, co, False)) is not None:
        dual_co.groupoid = (dual, *kg, True)
    return dual, dual_co


# -- axiom checkers -------------------------------------------------------------

ANTIPODE_CHECKS = ("antipode-left", "antipode-right", "antipode-sandwich")


def _record(alg: FinAlgebra, co: CoStructure, dual: bool):
    """(g, P, L) when co carries the record of KG (dual False) or of KG*
    (dual True) for this very alg, else None."""
    rec = co.groupoid
    return rec[1:4] if rec is not None and rec[0] is alg and rec[4] is dual else None


def _objects_orthogonal(g, P, L):
    """Whether ef = [e = f] e for all objects e, f."""
    objs = set(g.objects)
    return all({f: ef for f, ef in P[e].items() if f in objs} == {e: e} for e in objs)


def _kg_weak_counit(alg, g, P, L):
    """[x, y, z] breaks KG's weak counit where xy = w and z is a key of
    exactly one of P[w] and P[y]."""
    return [[x, y, z] for y in alg.basis for x in sorted(L.get(y, ()), key=alg.index.get)
            for z in sorted(P[P[x][y]].keys() ^ P[y].keys(), key=alg.index.get)]


def _kgstar_coalgebra_holds(g, P, L):
    """Whether KG* is coassociative, {(a, b, c): (ab)c = x} == {(a, b, c):
    a(bc) = x} for every x: each (ab)c equals its a(bc), and there are as
    many of the first as of the second; and counital: the pairs (b, eb)
    and (a, ae), e an object, are the pairs (x, x), each once."""
    walked = 0
    for row in P.values():
        for b, ab in row.items():
            Pb, walked = P[b], walked + len(P[ab])
            for c, x in P[ab].items():
                if row.get(Pb.get(c)) != x:
                    return False
    diagonal = Counter((x, x) for x in P)
    return (walked == sum(len(L.get(bc, ())) for row in P.values() for bc in row.values())
            and Counter((b, eb) for e in g.objects for b, eb in P[e].items()) == diagonal
            and Counter((a, P[a][e]) for e in g.objects for a in L.get(e, ())) == diagonal)


def check_weak_bialgebra(alg: FinAlgebra, co: CoStructure) -> Report:
    """Exhaustive check of the weak bialgebra axioms over basis tuples:
    coassociativity, the counit law, multiplicativity of the coproduct, the
    weakened unit axiom for delta^2(1), and the weakened counit axiom.
    Tuples whose sides are zero by construction are skipped, and sides are
    summed by bilinearity: the weak-unit sides one third-leg slice at a
    time, and the weak-counit sides as rows of eps(ab).  On a recorded KG
    (CoStructure.groupoid), with delta(x) = x (x) x, only the weak unit
    and counit can fail: the weak counit is read off the composition
    index, and the weak unit holds if the objects are orthogonal
    idempotents.  On a recorded KG*, paired with x (x) y (x) z, delta(xy)
    == delta(x) delta(y) as KG's coproduct is multiplicative, and the weak
    unit and its flip hold exactly when KG's weak counit does; a check the
    index shows to hold everywhere is skipped, as are the coalgebra axioms
    of a groupoid that validate_groupoid found valid."""
    if alg.unit is None:
        raise ValueError("weak bialgebra check needs a unit")
    F = alg.field
    rep = Report(f"weak bialgebra axioms ({alg.name or 'algebra'})")
    kg, dual = _record(alg, co, False), _record(alg, co, True)

    # coassociativity and counit law, per basis label.  A coefficient of
    # delta(x) and a stored leg weight are nonzero, and so is their product
    if kg is None and not (dual and (dual[0].valid or _kgstar_coalgebra_holds(*dual))):
        deltas = {x: co.delta_element({x: F.one}) for x in alg.basis}
        for x in alg.basis:
            dx = deltas[x].items()
            if (_summed(F, [((a1, a2, b), F.mul(c, w)) for (a, b), c in dx
                            for a1, a2, w in co.delta.get(a, [])])
                    != _summed(F, [((a, b1, b2), F.mul(c, w)) for (a, b), c in dx
                                   for b1, b2, w in co.delta.get(b, [])])):
                rep.add("coassociativity", x)

            lhs, rhs = {}, {}
            for (a, b), c in dx:
                acc(F, lhs, b, F.mul(c, co.counit.get(a, F.zero)))
                acc(F, rhs, a, F.mul(c, co.counit.get(b, F.zero)))
            if lhs != {x: F.one} or rhs != {x: F.one}:
                rep.add("counit-law", x)

    # delta(xy) == delta(x) delta(y), the sum of ac x bd over the legs (a, b)
    # of delta(x) and (c, d) of delta(y).  Only the y with xy != 0, or with
    # ac and bd both nonzero for some legs, can break the identity
    right, left = alg.right, alg.left
    if kg is None and dual is None:
        with_legs = {}
        for y in alg.basis:
            for cd, w in deltas[y].items():
                with_legs.setdefault(cd, []).append((y, w))
        for x in alg.basis:
            prods = {y: {} for y in right.get(x, ())}
            for (a, b), w in deltas[x].items():
                for c, ac in right.get(a, {}).items():
                    for d, bd in right.get(b, {}).items():
                        for y, w2 in with_legs.get((c, d), ()):
                            acc_tensor(F, prods.setdefault(y, {}), F.mul(w, w2), ac, bd)
            for y in sorted(prods, key=alg.index.get):
                lhs, rhs = co.delta_element(alg.basis_product(x, y)), prods[y]
                if lhs != rhs:
                    rep.add("coproduct-multiplicative", [x, y])

    # delta^2(1) == (delta(1) x 1)(1 x delta(1)) == (1 x delta(1))(delta(1) x 1),
    # one third leg t at a time.  Over the legs (a, b), (c, d) of delta(1) =
    # sum P_t x t the products are the sums of (a1) x bc x (1d) and of
    # (1c) x ad x (b1), so their slices at t are sum L[b] x bQ_t and
    # sum H[d] x Q'_t d, with L[b], H[d] the sums of w (a1), w (1c) and Q_t,
    # Q'_t the sums of w (1d)_t c, w (b1)_t a; that of delta^2(1) is
    # delta(P_t).  Each distinct (P_t, Q_t, Q'_t) is compared once
    if kg is not None and _objects_orthogonal(*kg):  # then delta(1) = sum e x e is a
        unit_ok = flipped_ok = True                 # sum of orthogonal idempotents
    elif dual is not None:
        unit_ok = flipped_ok = not _kg_weak_counit(alg, *dual)
    else:
        one = alg.unit
        d1 = co.delta_element(one)
        labels = {lab for ab in d1 for lab in ab}
        times_one = {lab: alg.multiply({lab: F.one}, one) for lab in labels}
        one_times = {lab: alg.multiply(one, {lab: F.one}) for lab in labels}
        L, H, P, Q, Q_flip = {}, {}, {}, {}, {}
        for (a, b), w in d1.items():
            el_addto(F, L.setdefault(b, {}), w, times_one[a])
            el_addto(F, H.setdefault(b, {}), w, one_times[a])
            P.setdefault(b, {})[a] = w
            for slices, b_side in ((Q, one_times[b]), (Q_flip, times_one[b])):
                for t, v in b_side.items():
                    acc(F, slices.setdefault(t, {}), a, F.mul(w, v))

        def sliced(outer, q, prods):  # sum outer[b] x (sum q[c] prods[c][b])
            inner, out = {}, {}
            for c, v in q.items():
                for b, prod in prods.get(c, {}).items():
                    if b in outer:
                        el_addto(F, inner.setdefault(b, {}), v, prod)
            for b, ib in inner.items():
                acc_tensor(F, out, F.one, outer[b], ib)
            return out

        distinct = dict.fromkeys(tuple(frozenset(s.get(t, {}).items()) for s in (P, Q, Q_flip))
                                 for t in {**P, **Q, **Q_flip})
        unit_ok = flipped_ok = True
        for p, q, q_flip in distinct:
            dp = co.delta_element(dict(p))
            unit_ok = unit_ok and sliced(L, dict(q), left) == dp
            flipped_ok = flipped_ok and sliced(H, dict(q_flip), right) == dp
    if not unit_ok:
        rep.add("weak-unit", "delta^2(1)",
                "(delta(1) x 1)(1 x delta(1)) differs from delta^2(1)")
    if not flipped_ok:
        rep.add("weak-unit-flipped", "delta^2(1)",
                "(1 x delta(1))(delta(1) x 1) differs from delta^2(1)")

    # eps(xyz) == sum eps(x y1) eps(y2 z) == sum eps(x y2) eps(y1 z), each
    # side a combination of the rows eps[w] = eps(w .) of the nonzero values
    # eps(ab).  Only the x with xy != 0 or eps(x y_i) != 0 for a leg y_i of
    # delta(y) can break the identity; z is walked where the rows differ
    if kg is not None or (dual and _objects_orthogonal(*dual)):
        for w in _kg_weak_counit(alg, *kg) if kg else ():
            rep.add("weak-counit", w)
    else:
        eps, eps_left = {}, {}
        for a, row in right.items():
            for b, prod in row.items():
                v = co.counit_element(prod)
                if v != F.zero:
                    eps.setdefault(a, {})[b] = v
                    eps_left.setdefault(b, set()).add(a)

        for y in alg.basis:
            dy = co.delta.get(y, [])
            xs = set(left.get(y, ()))
            for y1, y2, _ in dy:
                xs.update(eps_left.get(y1, ()), eps_left.get(y2, ()))
            for x in sorted(xs, key=alg.index.get):
                mid, mid_flip = {}, {}
                ex = eps.get(x, {})
                for y1, y2, c in dy:
                    for comb, first, second in ((mid, y1, y2), (mid_flip, y2, y1)):
                        e1 = ex.get(first)
                        if e1 is not None:
                            acc(F, comb, second, F.mul(c, e1))
                lhs = el_apply(F, eps, alg.basis_product(x, y))
                mid, mid_flip = el_apply(F, eps, mid), el_apply(F, eps, mid_flip)
                if lhs == mid == mid_flip:
                    continue
                for z in sorted({*lhs, *mid, *mid_flip}, key=alg.index.get):
                    v = lhs.get(z, F.zero)
                    if v != mid.get(z, F.zero) or v != mid_flip.get(z, F.zero):
                        rep.add("weak-counit", [x, y, z])

    rep.info["dim"] = alg.dim
    return rep


def check_antipode(alg: FinAlgebra, co: CoStructure) -> Report:
    """The three antipode identities, exhaustively over basis labels.
    S(x1) x2 is formed once per label, and S(x1) x2 S(x3) is read off it
    as the sum of w S(p1) p2 S(c) over the legs (p, c) of delta(x).  Each
    identity is Phi == Psi.  On a recorded KG (CoStructure.groupoid) they
    read {x x^-1} == {objects e: ex != 0}, {x^-1 x} == {objects e: xe != 0}
    and {(x^-1 x) x^-1} == {x^-1}.  The transposes of Phi, Psi are the maps
    of the same identity on KG* (eps_t, eps_s and (delta x id) delta map
    to themselves), so on a recorded KG* f fails it where f lies in one
    side of KG's reading and not the other."""
    if alg.unit is None:
        raise ValueError("antipode check needs a unit")
    if co.antipode is None:
        raise ValueError("no antipode table")
    F = alg.field
    rep = Report(f"antipode axioms ({alg.name or 'algebra'})")
    kg, dual = _record(alg, co, False), _record(alg, co, True)
    if kg or dual:
        g, P, L = kg or dual
        objs, failed = set(g.objects), set()  # the pairs (check, label) that fail
        for x in alg.basis:
            xi = g.inv(x)
            xix = P[xi].get(x)
            for check, lhs, rhs in zip(ANTIPODE_CHECKS, (P[x].get(xi), xix, P.get(xix, {}).get(xi)),
                                       (objs & L.get(x, {}).keys(), objs & P[x].keys(), {xi})):
                if (lhs := {lhs} - {None}) != rhs:
                    failed.update((check, f) for f in (lhs ^ rhs if dual else (x,)))
        for x in alg.basis:
            for check in (c for c in ANTIPODE_CHECKS if (c, x) in failed):
                rep.add(check, x)
        return rep
    right, left = alg.right, alg.left
    by_first, by_second = {}, {}  # the legs (a, b) of delta(1) by a and by b
    for (a, b), w in co.delta_element(alg.unit).items():
        by_first.setdefault(a, []).append((b, w))
        by_second.setdefault(b, []).append((a, w))

    def S(lab):
        return co.antipode.get(lab, {})

    @cache
    def S_times(p):
        """S(p1) p2, the left side of antipode-right at p."""
        out = {}
        for (a, b), c in co.delta_element({p: F.one}).items():
            el_addto(F, out, c, alg.multiply(S(a), {b: F.one}))
        return out

    for x in alg.basis:
        dx = co.delta_element({x: F.one})

        # x1 S(x2) == eps(1_1 x) 1_2  and  S(x1) x2 == 1_1 eps(x 1_2), where
        # eps(1_1 x) needs 1_1 x != 0 and eps(x 1_2) needs x 1_2 != 0
        left_l, left_r, right_r = {}, {}, {}
        for (a, b), c in dx.items():  # a S(b), read off right[a]
            el_addto(F, left_l, c, el_apply(F, right.get(a, {}), S(b)))
        for out, prods, legs in ((left_r, left, by_first), (right_r, right, by_second)):
            for a, ax in prods.get(x, {}).items():
                eps = co.counit_element(ax)
                for b, c in legs.get(a, ()):
                    acc(F, out, b, F.mul(c, eps))

        # S(x1) x2 S(x3) == S(x), with x1 x x2 x x3 = (delta x id) delta(x)
        sandwich = {}
        for (p, c), w in dx.items():
            el_addto(F, sandwich, w, alg.multiply(S_times(p), S(c)))

        for check, lhs, rhs in zip(ANTIPODE_CHECKS, (left_l, S_times(x), sandwich),
                                   (left_r, right_r, S(x))):
            if lhs != rhs:
                rep.add(check, x)
    return rep


def target_counit_images(alg: FinAlgebra, co: CoStructure) -> dict:
    """The target counit x -> sum eps(1_1 x) 1_2 over the coproduct of the
    unit, as its images {y: image} (el_apply evaluates it) over the y with
    1_1 y != 0 for a leg 1_1, forming delta(1) once and reading eps(1_1 y)
    off 1_1's row.  On a groupoid algebra it sends u_g to the identity at
    src(g)."""
    if alg.unit is None:
        raise ValueError("target counit needs a unit")
    F, out = alg.field, {}
    for (a, b), c in co.delta_element(alg.unit).items():
        for y, ay in alg.right.get(a, {}).items():
            el_addto(F, out.setdefault(y, {}), F.mul(c, co.counit_element(ay)), {b: F.one})
    return out
