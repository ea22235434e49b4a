"""Finite-dimensional algebras by structure constants, coalgebra data, and
the groupoid algebra / dual constructions with their axiom checkers.

Elements are finitely supported dicts {basis label: scalar}; zero
coefficients are never stored.  The owning algebra carries the field, so
all element arithmetic goes through the algebra (or the el_* helpers).
"""

from functools import cached_property
from itertools import product

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


class FinAlgebra:
    """Algebra on an ordered basis with structure constants.

    mul maps a pair of basis labels to an element; absent pairs multiply to
    zero.  unit is an element or None (smash products may have none).
    Nothing is assumed: associativity and the unit law are checked, not
    taken on faith.
    """

    def __init__(self, field, basis, mul, unit=None, name="", meta=None):
        self.field = field
        self.basis = list(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis labels")
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.mul = {k: el_norm(field, v) for k, v in mul.items()}
        self.mul = {k: v for k, v in self.mul.items() if v}
        for (a, b), prod in self.mul.items():
            for lab in (a, b, *prod):
                if lab not in self.index:
                    raise ValueError(f"structure constant references foreign label {lab!r}")
        self.unit = el_norm(field, unit) if unit else None
        self.name = name
        self.meta = meta or {}

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
        return self.mul.get((a, b), {})

    def multiply(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants."""
        F = self.field
        out = {}
        for la, ca in x.items():
            if la not in self.index:
                raise ValueError(f"foreign label {la!r}")
            for lb, cb in y.items():
                if lb not in self.index:
                    raise ValueError(f"foreign label {lb!r}")
                prod = self.mul.get((la, lb))
                if not prod:
                    continue
                c = F.mul(ca, cb)
                for lab, cc in prod.items():
                    acc(F, out, lab, F.mul(c, cc))
        return out

    @cached_property
    def nonzero_products(self):
        """(right, left): right[a] maps each b with ab != 0 to ab, and
        left[b] maps each a with ab != 0 to ab."""
        right, left = {}, {}
        for (a, b), prod in self.mul.items():
            right.setdefault(a, {})[b] = prod
            left.setdefault(b, {})[a] = prod
        return right, left

    def to_vector(self, x: dict) -> dict:
        """Sparse coordinate vector {basis index: scalar}."""
        return {self.index[lab]: c for lab, c in x.items()}

    def from_vector(self, v: dict) -> dict:
        return el_norm(self.field, {self.basis[i]: v[i] for i in sorted(v)})

    def associativity_violations(self):
        """Exhaustive check of (ab)c == a(bc) over basis triples, in basis
        order.  Only triples where (ab)c or a(bc) can be nonzero are
        visited: c must multiply some label of ab, or a some label of bc."""
        right, left = self.nonzero_products
        triples = set()
        for (a, b), ab in self.mul.items():
            for w in ab:
                triples.update((a, b, c) for c in right.get(w, ()))
                triples.update((x, a, b) for x in left.get(w, ()))
        one = self.field.one
        return [(a, b, c) for a, b, c in sorted(triples, key=self._order)
                if self.multiply(self.mul.get((a, b), {}), {c: one})
                != self.multiply({a: one}, self.mul.get((b, c), {}))]

    def _order(self, labels):
        return tuple(self.index[lab] for lab in labels)

    def unit_violations(self):
        if self.unit is None:
            return []
        out = []
        for b in self.basis:
            e = self.basis_element(b)
            if self.multiply(self.unit, e) != e:
                out.append(("left", b))
            if self.multiply(e, self.unit) != e:
                out.append(("right", b))
        return out


class CoStructure:
    """Comultiplication, counit and (optional) antipode tables.

    delta[label] is a list of (left, right, scalar) triples; counit maps a
    label to a scalar; antipode maps a label to an element or is None.
    """

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

    def antipode_element(self, x: dict) -> dict:
        if self.antipode is None:
            raise ValueError("no antipode table")
        out = {}
        for lab, c in x.items():
            el_addto(self.field, out, c, self.antipode.get(lab, {}))
        return out


# -- tensor helpers (dicts keyed by label tuples) ------------------------------


def tensor_mul(alg, t, u, legs):
    """Componentwise product of two tensors with the given number of legs.
    For each key of t only the keys of u whose every leg multiplies the
    matching leg of t to a nonzero product are looked up."""
    F = alg.field
    right, _ = alg.nonzero_products
    leg_labels = [{k[i] for k in u} for i in range(legs)]
    out = {}
    for ka, ca in t.items():
        candidates = [[b for b in right.get(a, ()) if b in labels]
                      for a, labels in zip(ka, leg_labels)]
        for kb in product(*candidates):
            cb = u.get(kb)
            if cb is None:
                continue
            terms = {(): F.mul(ca, cb)}
            for a, b in zip(ka, kb):
                terms = {k + (lab,): F.mul(w, cc) for k, w in terms.items()
                         for lab, cc in right[a][b].items()}
            for k, w in terms.items():
                acc(F, out, k, w)
    return out


def delta_square(alg, co, x: dict) -> dict:
    """(delta x id) applied to delta(x), as {(l1, l2, l3): scalar}."""
    F = alg.field
    out = {}
    for (a, b), c in co.delta_element(x).items():
        for a1, a2, w in co.delta.get(a, []):
            acc(F, out, (a1, a2, b), F.mul(c, w))
    return out


# -- constructions -------------------------------------------------------------


def groupoid_algebra(field, g):
    """The groupoid algebra: u_a u_b = u_{ab} when tgt(a) == src(b), else 0;
    grouplike comultiplication, counit 1, antipode by inversion."""
    basis = g.morphism_ids()
    mul = {}
    for a, b in g.composable_pairs():
        if (a, b) in g.comp:  # a missing entry is the validator's to report
            mul[(a, b)] = {g.comp[(a, b)]: field.one}
    unit = {e: field.one for e in g.objects}
    alg = FinAlgebra(field, basis, mul, unit, name="KG", meta={"groupoid": g})
    delta = {m: [(m, m, field.one)] for m in basis}
    counit = {m: field.one for m in basis}
    antipode = {m: {g.inv(m): field.one} for m in basis}
    return alg, CoStructure(field, delta, counit, antipode)


def dual_weak_hopf(alg: FinAlgebra, co: CoStructure):
    """Finite dual on the same labels: products by walking delta,
    coproducts by walking the factorizations recorded in mul, counit from
    the unit, antipode transposed.  Tables come out in basis order."""
    F = alg.field
    if alg.unit is None:
        raise ValueError("dual construction needs a unital algebra")
    basis = list(alg.basis)

    mul = {}
    for x in basis:
        for a, b, c in co.delta.get(x, []):
            if a in alg.index and b in alg.index:
                acc(F, mul.setdefault((a, b), {}), x, c)
    mul = {k: mul[k] for k in sorted(mul, key=alg._order)}
    unit = {x: co.counit.get(x, F.zero) for x in basis}

    delta = {x: [] for x in basis}
    for (a, b), prod in sorted(alg.mul.items(), key=lambda kv: alg._order(kv[0])):
        for x, c in prod.items():
            delta[x].append((a, b, c))
    counit = {x: alg.unit.get(x, F.zero) for x in basis}

    antipode = None
    if co.antipode is not None:
        antipode = {x: {} for x in basis}
        for y in basis:
            for x, c in co.antipode.get(y, {}).items():
                if x in antipode:
                    antipode[x][y] = c

    dual = FinAlgebra(F, basis, mul, unit, name=f"{alg.name}*",
                      meta={"dual_of": alg})
    return dual, CoStructure(F, delta, counit, antipode)


# -- axiom checkers -------------------------------------------------------------


def check_weak_bialgebra(alg: FinAlgebra, co: CoStructure) -> Report:
    """Exhaustive check of the weak bialgebra axioms over basis tuples:
    coassociativity, the counit law, multiplicativity of the coproduct, the
    weakened unit axiom for delta^2(1), and the weakened counit axiom.
    Tuples whose sides are zero by construction are skipped."""
    if alg.unit is None:
        raise ValueError("weak bialgebra check needs a unit")
    F = alg.field
    rep = Report(f"weak bialgebra axioms ({alg.name or 'algebra'})")
    deltas = {x: co.delta_element({x: F.one}) for x in alg.basis}

    # coassociativity and counit law, per basis label
    for x in alg.basis:
        e = {x: F.one}
        right = {}
        for (a, b), c in deltas[x].items():
            for b1, b2, w in co.delta.get(b, []):
                acc(F, right, (a, b1, b2), F.mul(c, w))
        if delta_square(alg, co, e) != right:
            rep.add("coassociativity", x)

        lhs = {}
        rhs = {}
        for (a, b), c in deltas[x].items():
            acc(F, lhs, b, F.mul(c, co.counit.get(a, F.zero)))
            acc(F, rhs, a, F.mul(c, co.counit.get(b, F.zero)))
        if lhs != e or rhs != e:
            rep.add("counit-law", x)

    # delta(xy) == delta(x) delta(y)
    for x in alg.basis:
        for y in alg.basis:
            lhs = co.delta_element(alg.basis_product(x, y))
            if lhs != tensor_mul(alg, deltas[x], deltas[y], 2):
                rep.add("coproduct-multiplicative", [x, y])

    # delta^2(1) == (delta(1) x 1)(1 x delta(1)) == (1 x delta(1))(delta(1) x 1)
    one = alg.unit
    d2_1 = delta_square(alg, co, one)
    t_d1_1 = {}
    t_1_d1 = {}
    for (a, b), c in co.delta_element(one).items():
        for u, cu in one.items():
            acc(F, t_d1_1, (a, b, u), F.mul(c, cu))
            acc(F, t_1_d1, (u, a, b), F.mul(c, cu))
    if tensor_mul(alg, t_d1_1, t_1_d1, 3) != d2_1:
        rep.add("weak-unit", "delta^2(1)",
                "(delta(1) x 1)(1 x delta(1)) differs from delta^2(1)")
    if tensor_mul(alg, t_1_d1, t_d1_1, 3) != d2_1:
        rep.add("weak-unit-flipped", "delta^2(1)",
                "(1 x delta(1))(delta(1) x 1) differs from delta^2(1)")

    # eps(xyz) == sum eps(x y1) eps(y2 z) == sum eps(x y2) eps(y1 z), read
    # off the nonzero values eps[a][b] = eps(ab).  Only the x with xy != 0
    # or eps(x y_i) != 0 for a leg y_i of delta(y), and only the z where one
    # of the three sums has a nonzero term, can break the identity
    _, left = alg.nonzero_products
    eps, eps_left = {}, {}
    for (a, b), prod in alg.mul.items():
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
            lhs, mid, mid_flip = {}, {}, {}
            for w, cw in alg.basis_product(x, y).items():
                for z, v in eps.get(w, {}).items():
                    acc(F, lhs, z, F.mul(cw, v))
            ex = eps.get(x, {})
            for y1, y2, c in dy:
                for out, first, second in ((mid, y1, y2), (mid_flip, y2, y1)):
                    e1 = ex.get(first)
                    if e1 is not None:
                        for z, e2 in eps.get(second, {}).items():
                            acc(F, out, z, F.mul(c, F.mul(e1, e2)))
            zs = {*lhs, *mid, *mid_flip}
            for z in sorted(zs, key=alg.index.get):
                v = lhs.get(z, F.zero)
                if v != mid.get(z, F.zero) or v != mid_flip.get(z, F.zero):
                    rep.add("weak-counit", [x, y, z])

    rep.info["dim"] = alg.dim
    return rep


def check_antipode(alg: FinAlgebra, co: CoStructure) -> Report:
    """The three antipode identities, exhaustively over basis labels."""
    if alg.unit is None:
        raise ValueError("antipode check needs a unit")
    if co.antipode is None:
        raise ValueError("no antipode table")
    F = alg.field
    rep = Report(f"antipode axioms ({alg.name or 'algebra'})")
    d1 = co.delta_element(alg.unit)

    def S(lab):
        return co.antipode.get(lab, {})

    for x in alg.basis:
        e = {x: F.one}
        dx = co.delta_element(e)

        # x1 S(x2) == eps(1_1 x) 1_2  and  S(x1) x2 == 1_1 eps(x 1_2)
        left_l, left_r, right_l, right_r = {}, {}, {}, {}
        for (a, b), c in dx.items():
            el_addto(F, left_l, c, alg.multiply({a: F.one}, S(b)))
            el_addto(F, right_l, c, alg.multiply(S(a), {b: F.one}))
        for (a, b), c in d1.items():
            el_addto(F, left_r, F.mul(c, co.counit_element(alg.multiply({a: F.one}, e))), {b: F.one})
            el_addto(F, right_r, F.mul(c, co.counit_element(alg.multiply(e, {b: F.one}))), {a: F.one})
        if left_l != left_r:
            rep.add("antipode-left", x)
        if right_l != right_r:
            rep.add("antipode-right", x)

        # S(x1) x2 S(x3) == S(x)
        lhs = {}
        for (a, b, cc), c in delta_square(alg, co, e).items():
            el_addto(F, lhs, c, alg.multiply(alg.multiply(S(a), {b: F.one}), S(cc)))
        if lhs != S(x):
            rep.add("antipode-sandwich", x)

    return rep


def target_counit(alg: FinAlgebra, co: CoStructure, x: dict) -> dict:
    """sum eps(1_1 x) 1_2 over the coproduct of the unit.  On a groupoid
    algebra this sends u_g to the identity at src(g)."""
    if alg.unit is None:
        raise ValueError("target counit needs a unit")
    F = alg.field
    out = {}
    for (a, b), c in co.delta_element(alg.unit).items():
        el_addto(F, out, F.mul(c, co.counit_element(alg.multiply({a: F.one}, x))), {b: F.one})
    return out
