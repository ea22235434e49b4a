"""Finite-dimensional algebras by structure constants, coalgebra data, and
the groupoid algebra / dual constructions with their axiom checkers.

Elements are finitely supported dicts {basis label: scalar}; zero
coefficients are never stored.  The owning algebra carries the field, so
all element arithmetic goes through the algebra (or the el_* helpers).
"""

from .report import Report

# -- element helpers ----------------------------------------------------------


def el_norm(field, coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v != field.zero}


def el_add(field, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = field.add(out.get(k, field.zero), v)
        if s == field.zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def el_scale(field, c, a: dict) -> dict:
    if c == field.zero:
        return {}
    return {k: field.mul(c, v) for k, v in a.items()}


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
                    s = F.add(out.get(lab, F.zero), F.mul(c, cc))
                    if s == F.zero:
                        out.pop(lab, None)
                    else:
                        out[lab] = s
        return out

    def to_vector(self, x: dict) -> dict:
        """Sparse coordinate vector {basis index: scalar}."""
        return {self.index[lab]: c for lab, c in x.items()}

    def from_vector(self, v: dict) -> dict:
        return el_norm(self.field, {self.basis[i]: v[i] for i in sorted(v)})

    def associativity_violations(self):
        """Exhaustive check of (ab)c == a(bc) over basis triples."""
        out = []
        table = {}
        for a in self.basis:
            for b in self.basis:
                p = self.mul.get((a, b))
                if p:
                    table[(a, b)] = p
        for a in self.basis:
            for b in self.basis:
                ab = table.get((a, b), {})
                for c in self.basis:
                    bc = table.get((b, c), {})
                    left = self.multiply(ab, {c: self.field.one}) if ab else {}
                    right = self.multiply({a: self.field.one}, bc) if bc else {}
                    if left != right:
                        out.append((a, b, c))
        return out

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
                key = (a, b)
                s = F.add(out.get(key, F.zero), F.mul(c, w))
                if s == F.zero:
                    out.pop(key, None)
                else:
                    out[key] = s
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
        F = self.field
        out = {}
        for lab, c in x.items():
            out = el_add(F, out, el_scale(F, c, self.antipode.get(lab, {})))
        return out


# -- tensor helpers (dicts keyed by label tuples) ------------------------------


def tensor_mul(alg, t, u, legs):
    """Componentwise product of two tensors with the given number of legs."""
    F = alg.field
    out = {}
    for ka, ca in t.items():
        for kb, cb in u.items():
            parts = [alg.mul.get((ka[i], kb[i]), None) for i in range(legs)]
            if any(p is None for p in parts):
                continue
            c = F.mul(ca, cb)
            keys = [()]
            coeffs = [c]
            for p in parts:
                nk, nc = [], []
                for k, w in zip(keys, coeffs):
                    for lab, cc in p.items():
                        nk.append(k + (lab,))
                        nc.append(F.mul(w, cc))
                keys, coeffs = nk, nc
            for k, w in zip(keys, coeffs):
                s = F.add(out.get(k, F.zero), w)
                if s == F.zero:
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def delta_square(alg, co, x: dict) -> dict:
    """(delta x id) applied to delta(x), as {(l1, l2, l3): scalar}."""
    F = alg.field
    out = {}
    for (a, b), c in co.delta_element(x).items():
        for a1, a2, w in co.delta.get(a, []):
            key = (a1, a2, b)
            s = F.add(out.get(key, F.zero), F.mul(c, w))
            if s == F.zero:
                out.pop(key, None)
            else:
                out[key] = s
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
    """Finite dual on the same labels: products from delta, coproducts by
    enumerating the factorizations recorded in mul, counit from the unit,
    antipode transposed."""
    F = alg.field
    if alg.unit is None:
        raise ValueError("dual construction needs a unital algebra")
    basis = list(alg.basis)

    mul = {}
    for f in basis:
        for h in basis:
            out = {}
            for x in basis:
                acc = F.zero
                for a, b, c in co.delta.get(x, []):
                    if a == f and b == h:
                        acc = F.add(acc, c)
                if acc != F.zero:
                    out[x] = acc
            if out:
                mul[(f, h)] = out
    unit = {x: co.counit.get(x, F.zero) for x in basis}

    delta = {}
    for x in basis:
        pairs = []
        for a in basis:
            for b in basis:
                c = alg.mul.get((a, b), {}).get(x, F.zero)
                if c != F.zero:
                    pairs.append((a, b, c))
        delta[x] = pairs
    counit = {x: alg.unit.get(x, F.zero) for x in basis}

    antipode = None
    if co.antipode is not None:
        antipode = {}
        for x in basis:
            img = {}
            for y in basis:
                c = co.antipode.get(y, {}).get(x, F.zero)
                if c != F.zero:
                    img[y] = c
            antipode[x] = img

    dual = FinAlgebra(F, basis, mul, unit, name=f"{alg.name}*",
                      meta={"dual_of": alg})
    return dual, CoStructure(F, delta, counit, antipode)


# -- axiom checkers -------------------------------------------------------------


def check_weak_bialgebra(alg: FinAlgebra, co: CoStructure) -> Report:
    """Exhaustive check of the weak bialgebra axioms over basis tuples:
    coassociativity, the counit law, multiplicativity of the coproduct, the
    weakened unit axiom for delta^2(1), and the weakened counit axiom."""
    if alg.unit is None:
        raise ValueError("weak bialgebra check needs a unit")
    F = alg.field
    rep = Report(f"weak bialgebra axioms ({alg.name or 'algebra'})")

    # coassociativity and counit law, per basis label
    for x in alg.basis:
        e = alg.basis_element(x)
        left = delta_square(alg, co, e)
        right = {}
        for (a, b), c in co.delta_element(e).items():
            for b1, b2, w in co.delta.get(b, []):
                key = (a, b1, b2)
                s = F.add(right.get(key, F.zero), F.mul(c, w))
                if s == F.zero:
                    right.pop(key, None)
                else:
                    right[key] = s
        if left != right:
            rep.add("coassociativity", x)

        lhs = {}
        rhs = {}
        for (a, b), c in co.delta_element(e).items():
            lhs = el_add(F, lhs, el_scale(F, F.mul(c, co.counit.get(a, F.zero)), {b: F.one}))
            rhs = el_add(F, rhs, el_scale(F, F.mul(c, co.counit.get(b, F.zero)), {a: F.one}))
        if lhs != e or rhs != e:
            rep.add("counit-law", x)

    # delta(xy) == delta(x) delta(y)
    for x in alg.basis:
        dx = co.delta_element(alg.basis_element(x))
        for y in alg.basis:
            dy = co.delta_element(alg.basis_element(y))
            lhs = co.delta_element(alg.basis_product(x, y))
            rhs = tensor_mul(alg, dx, dy, 2)
            if lhs != rhs:
                rep.add("coproduct-multiplicative", [x, y])

    # delta^2(1) == (delta(1) x 1)(1 x delta(1)) == (1 x delta(1))(delta(1) x 1)
    one = alg.unit
    d1 = co.delta_element(one)
    d2_1 = delta_square(alg, co, one)
    t_d1_1 = {}
    t_1_d1 = {}
    for (a, b), c in d1.items():
        for u, cu in one.items():
            t_d1_1[(a, b, u)] = F.add(t_d1_1.get((a, b, u), F.zero), F.mul(c, cu))
            t_1_d1[(u, a, b)] = F.add(t_1_d1.get((u, a, b), F.zero), F.mul(c, cu))
    t_d1_1 = {k: v for k, v in t_d1_1.items() if v != F.zero}
    t_1_d1 = {k: v for k, v in t_1_d1.items() if v != F.zero}
    if tensor_mul(alg, t_d1_1, t_1_d1, 3) != d2_1:
        rep.add("weak-unit", "delta^2(1)",
                "(delta(1) x 1)(1 x delta(1)) differs from delta^2(1)")
    if tensor_mul(alg, t_1_d1, t_d1_1, 3) != d2_1:
        rep.add("weak-unit-flipped", "delta^2(1)",
                "(1 x delta(1))(delta(1) x 1) differs from delta^2(1)")

    # eps(xyz) == sum eps(x y1) eps(y2 z) == sum eps(x y2) eps(y1 z)
    for y in alg.basis:
        dy = co.delta.get(y, [])
        for x in alg.basis:
            for z in alg.basis:
                xyz = alg.multiply(alg.basis_product(x, y), alg.basis_element(z))
                lhs = co.counit_element(xyz)
                mid = F.zero
                mid_flip = F.zero
                for y1, y2, c in dy:
                    e1 = co.counit_element(alg.basis_product(x, y1))
                    e2 = co.counit_element(alg.basis_product(y2, z))
                    mid = F.add(mid, F.mul(c, F.mul(e1, e2)))
                    f1 = co.counit_element(alg.basis_product(x, y2))
                    f2 = co.counit_element(alg.basis_product(y1, z))
                    mid_flip = F.add(mid_flip, F.mul(c, F.mul(f1, f2)))
                if lhs != mid or lhs != mid_flip:
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
    one = alg.unit
    d1 = co.delta_element(one)

    for x in alg.basis:
        e = alg.basis_element(x)
        dx = co.delta_element(e)

        # x1 S(x2) == eps(1_1 x) 1_2
        lhs = {}
        for (a, b), c in dx.items():
            lhs = el_add(F, lhs, el_scale(F, c, alg.multiply(
                {a: F.one}, co.antipode_element({b: F.one}))))
        rhs = {}
        for (a, b), c in d1.items():
            w = F.mul(c, co.counit_element(alg.multiply({a: F.one}, e)))
            rhs = el_add(F, rhs, el_scale(F, w, {b: F.one}))
        if lhs != rhs:
            rep.add("antipode-left", x)

        # S(x1) x2 == 1_1 eps(x 1_2)
        lhs = {}
        for (a, b), c in dx.items():
            lhs = el_add(F, lhs, el_scale(F, c, alg.multiply(
                co.antipode_element({a: F.one}), {b: F.one})))
        rhs = {}
        for (a, b), c in d1.items():
            w = F.mul(c, co.counit_element(alg.multiply(e, {b: F.one})))
            rhs = el_add(F, rhs, el_scale(F, w, {a: F.one}))
        if lhs != rhs:
            rep.add("antipode-right", x)

        # S(x1) x2 S(x3) == S(x)
        lhs = {}
        for (a, b, cc), c in delta_square(alg, co, e).items():
            term = alg.multiply(co.antipode_element({a: F.one}), {b: F.one})
            term = alg.multiply(term, co.antipode_element({cc: F.one}))
            lhs = el_add(F, lhs, el_scale(F, c, term))
        if lhs != co.antipode_element(e):
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
        w = F.mul(c, co.counit_element(alg.multiply({a: F.one}, x)))
        out = el_add(F, out, el_scale(F, w, {b: F.one}))
    return out
