"""Finite-dimensional algebras by structure constants, the groupoid
algebra KG and its dual KG*, and their weak Hopf axiom checkers.  Neither
carries coalgebra tables: both coalgebras are known through the record of
the groupoid's composition index that groupoid_algebra builds.

Elements are finitely supported dicts {basis label: scalar}; zero
coefficients are never stored.  The owning algebra carries the field, so
all element arithmetic goes through the algebra (or the el_* helpers).
el_apply evaluates every map given by basis images; at {k: one} it
returns the stored image, which callers only read.
"""

from collections import Counter
from functools import cached_property

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


def el_sum(field, terms) -> dict:
    """Sum of c * a over the terms (c, a); a lone term c == one is its a, read-only."""
    if len(terms) == 1 and terms[0][0] == field.one:
        return terms[0][1]
    out = {}
    for c, a in terms:
        el_addto(field, out, c, a)
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
    left, generators, associative and groupoid_algebra's record rely on it.
    A basis given as range(n) is positional: its entries are ints, it is
    its own index, and label(i) gives the label at position i.
    """

    def __init__(self, field, basis, right, unit=None, name="", meta=None, first=(), label=None):
        self.field = field
        positional = type(basis) is range  # its own index, as range(n)[i] == i
        self.basis = basis if positional else list(basis)
        self.index = basis if positional else {b: i for i, b in enumerate(self.basis)}
        self.label = label or (lambda x: x)  # the label of a basis entry, where it is printed
        self.right = right
        self.unit = unit
        self.name = name
        self.meta = meta or {}
        self.first = first  # the labels generators tries before the basis

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
        one, order = self.field.one, self.index.__getitem__
        return [(a, b, c) for a, b, c in sorted(triples, key=lambda t: tuple(map(order, t)))
                if self.multiply(self.basis_product(a, b), {c: one})
                != self.multiply({a: one}, self.basis_product(b, c))]

    @cached_property
    def generators(self) -> list:
        """A generating set: each label of first, then of the basis, joins it
        unless it is a nonzero single-term product of generated labels, met
        by reading once the row and column of each newly generated label."""
        F, right, left = self.field, self.right, self.left
        gens, generated = [], set()
        for u in (*self.first, *self.basis):
            if u in generated:
                continue
            gens.append(u)
            generated.add(u)
            todo = [u]
            for w in todo:  # todo grows while it is read
                for row in (right.get(w, {}), left.get(w, {})):
                    for v, prod in row.items():
                        if v in generated and len(prod) == 1:
                            (p, c), = prod.items()
                            if p not in generated and c != F.zero:
                                generated.add(p)
                                todo.append(p)
        return gens

    @cached_property
    def associative(self) -> bool:
        """Whether (xy)z == x(yz) for all x, y, z, by Light's test: the y at
        which it holds form a subalgebra, so y runs over the generators.  The
        rows {z: (xy)z} and {x: x(yz)} are read off right and left at xy, yz."""
        F, right, left = self.field, self.right, self.left
        def table(row, ahead):  # {p: {q: the sum of c * ahead[w][q] over the terms c w of row[p]}}
            out = {}
            for p, prod in row.items():
                if len(prod) == 1 and F.one in prod.values():  # a lone w: ahead[w], stored
                    out[p] = ahead.get(next(iter(prod)), {})
                    continue
                terms = {}
                for w, c in prod.items():
                    for q, wq in ahead.get(w, {}).items():
                        terms.setdefault(q, []).append((c, wq))
                out[p] = {q: s for q, ts in terms.items() if (s := el_sum(F, ts))}
            return out
        for y in self.generators:
            xz, zx = table(left.get(y, {}), right), table(right.get(y, {}), left)
            if sum(map(len, xz.values())) != sum(map(len, zx.values())) or any(
                    zx.get(z, {}).get(x) != s for x, row in xz.items() for z, s in row.items()):
                return False
        return True

    def unit_violations(self):
        """("left", b) when ub != b and ("right", b) when bu != b, in basis order."""
        return [] if self.unit is None else list(self.moved(self.unit, self.basis))

    def products(self, y: dict):
        """({z: the terms (c, product) of yz}, {z: those of zy}) over the z
        with a nonzero product, gathered in one pass over right[a] and
        left[a] for the labels a of y, so each product with a factor in y
        is read once; el_sum of the terms of z is yz, or zy."""
        yz, zy = {}, {}
        for a, c in self.element(y).items():
            for terms, row in ((yz, self.right.get(a, {})), (zy, self.left.get(a, {}))):
                for z, prod in row.items():
                    terms.setdefault(z, []).append((c, prod))
        return yz, zy

    def moved(self, y: dict, labels, products=None):
        """(side, z) for the labels z, in the order given, with yz != z
        (side "left") or zy != z ("right"), generated as the labels are
        tested, off products(y) or the products given."""
        F, (yz, zy) = self.field, products or self.products(y)
        return ((side, z) for z in labels for side, terms in (("left", yz), ("right", zy))
                if el_sum(F, terms.get(z, ())) != {z: F.one})

    def not_fixed(self, y: dict, labels, products=None) -> list:
        """The labels z, in the order given, with yz != z or zy != z."""
        return list(dict.fromkeys(z for _, z in self.moved(y, labels, products)))


class GroupoidRecord:
    """What src/ knows of KG's coalgebra and of all of KG*, as
    groupoid_algebra and dual_weak_hopf leave it: alg, the algebra it
    belongs to, the groupoid g, its composition index P[a] = {b: ab} and
    L = KG.left, the transpose of P.  KG's coproduct is x -> x (x) x, its
    counit 1 and its antipode x -> x^-1; KG* is the function algebra on the
    same labels, with the pointwise product and the coproduct of r_x
    summing r_a (x) r_b over ab = x.  kg is None on KG's record and is
    KG's record on KG*'s.  KG's weak-counit and antipode findings, which
    KG*'s checks read too, are walked once, on KG's record, when first
    read.  The checks accept a record only next to its alg.
    """

    def __init__(self, alg, g, P, L, kg=None):
        self.alg, self.g, self.P, self.L, self.kg = alg, g, P, L, kg

    @cached_property
    def weak_counit(self):
        return _kg_weak_counit(self.alg, self.P, self.L)

    @cached_property
    def antipode_failures(self):
        return _kg_antipode(self.alg, self.g, self.P, self.L)


# -- constructions -------------------------------------------------------------


def groupoid_algebra(field, g):
    """The groupoid algebra: u_a u_b = u_{ab} when tgt(a) == src(b), else 0,
    and its record, the only form of its coalgebra."""
    basis = g.morphism_ids()
    # a missing entry is the validator's to report
    P = {a: dict(g.after[a]) for a in basis}
    right = {a: {b: {ab: field.one} for b, ab in row.items()} for a, row in P.items() if row}
    unit = {e: field.one for e in g.objects}
    alg = FinAlgebra(field, basis, right, unit, name="KG")
    return alg, GroupoidRecord(alg, g, P, alg.left)


def dual_weak_hopf(alg: FinAlgebra, rec: GroupoidRecord):
    """KG* of KG and its record: r_x r_y = [x = y] r_x on KG's labels, with
    the unit sum r_x, KG's counit, and a record that carries KG's.  Any
    other pair, KG* and its record included, raises ValueError."""
    if _record(alg, rec).kg is not None:
        raise ValueError(f"{alg.name} is a dual already")
    one = alg.field.one
    dual = FinAlgebra(alg.field, alg.basis, {x: {x: {x: one}} for x in alg.basis},
                      {x: one for x in alg.basis}, name="KG*")
    return dual, GroupoidRecord(dual, rec.g, rec.P, rec.L, rec)


# -- axiom checkers -------------------------------------------------------------

ANTIPODE_CHECKS = ("antipode-left", "antipode-right", "antipode-sandwich")


def _record(alg: FinAlgebra, rec) -> GroupoidRecord:
    """rec, which must be the record of this very alg: the checks read KG
    and KG* off the composition index alone."""
    if not isinstance(rec, GroupoidRecord) or rec.alg is not alg:
        raise ValueError(f"{alg.name or 'algebra'} is not KG or KG* as groupoid_algebra "
                         "and dual_weak_hopf record them")
    return rec


def _objects_orthogonal(g, P):
    """Whether ef = [e = f] e for all objects e, f."""
    objs = set(g.objects)
    return all({f: ef for f, ef in P[e].items() if f in objs} == {e: e} for e in objs)


def _kg_weak_unit(F, g, P):
    """Whether delta^2(1) = sum e x e x e equals sum (e1) x ef x (1f), and
    whether it equals the flip sum (1f) x ef x (e1), over the objects e, f
    with ef defined.  e1 and 1f are sums of labels, so a term can repeat,
    and the sums are read in F."""
    objs = g.objects
    times_one = {e: [P[e][h] for h in objs if h in P[e]] for e in objs}
    one_times = {f: [P[h][f] for h in objs if f in P[h]] for f in objs}
    unit, flipped = {}, {}
    for e in objs:
        for f in objs:
            if (ef := P[e].get(f)) is not None:
                for a in times_one[e]:
                    for b in one_times[f]:
                        acc(F, unit, (a, ef, b), F.one)
                        acc(F, flipped, (b, ef, a), F.one)
    d2 = {(e, e, e): F.one for e in objs}
    return unit == d2, flipped == d2


def _kg_weak_counit(alg, P, L):
    """The findings [x, y, z] of KG's weak counit, in basis order: xy = w
    and z is a key of exactly one of P[w] and P[y]."""
    order = alg.index.get
    return [[x, y, z] for y in alg.basis
            for x in sorted((x for x in L.get(y, ()) if P[P[x][y]].keys() != P[y].keys()),
                            key=order)
            for z in sorted(P[P[x][y]].keys() ^ P[y].keys(), key=order)]


def _kgstar_coalgebra(F, g, P):
    """The labels x where KG* is not coassociative, and those where its
    counit law fails.  One walk over the triples with (ab)c = x checks
    each against its a(bc); the two sets of triples are equal when every
    one agrees and as many triples have a(bc) = x, counted from the
    factorizations of each bc.  The counit law sums b over the objects e
    with eb = x, and a over those with ae = x, in F."""
    coassoc, walked, bracketed = set(), Counter(), Counter()
    for row in P.values():
        for b, ab in row.items():
            Pb = P[b]
            for c, x in P[ab].items():
                walked[x] += 1
                if row.get(Pb.get(c)) != x:
                    coassoc.add(x)
    factorizations = Counter(bc for row in P.values() for bc in row.values())
    for row in P.values():
        for bc, x in row.items():
            bracketed[x] += factorizations[bc]
    coassoc.update(x for x in P if walked[x] != bracketed[x])

    objs, lhs, rhs = set(g.objects), {}, {}
    for a, row in P.items():
        for b, ab in row.items():
            if a in objs:
                acc(F, lhs.setdefault(ab, {}), b, F.one)
            if b in objs:
                acc(F, rhs.setdefault(ab, {}), a, F.one)
    counit = {x for x in P if lhs.get(x) != {x: F.one} or rhs.get(x) != {x: F.one}}
    return coassoc, counit


def _kgstar_weak_counit(alg, g, P):
    """The findings [x, y, z] of KG*'s weak counit, in basis order: x, z
    objects and [x = y = z], [xz = y], [zx = y] not all equal."""
    objs, order, found = g.objects, alg.index.get, []
    for x in objs:
        for z in objs:
            xz, zx = P[x].get(z), P[z].get(x)
            for y in {x, xz, zx} - {None}:
                if len({x == y == z, xz == y, zx == y}) > 1:
                    found.append([x, y, z])
    return sorted(found, key=lambda w: (order(w[1]), order(w[0]), order(w[2])))


def check_weak_bialgebra(alg: FinAlgebra, rec: GroupoidRecord) -> Report:
    """The weak bialgebra axioms of KG or KG*, as recorded on rec,
    exhaustively over basis tuples: coassociativity, the counit law,
    multiplicativity of the coproduct, the weakened unit axiom for
    delta^2(1), and the weakened counit axiom, each read off the
    composition index.  On KG, with delta(x) = x (x) x, only the weak unit
    and counit can fail, and the weak unit holds if the objects are
    orthogonal idempotents.  On KG*, paired with x (x) y (x) z, delta(xy)
    == delta(x) delta(y) as KG's coproduct is multiplicative, and the weak
    unit and its flip hold exactly when KG's weak counit does; its
    coalgebra axioms hold on a groupoid that validate_groupoid found
    valid, and are walked otherwise.  Any other pair raises ValueError."""
    rec = _record(alg, rec)
    g, P, kg = rec.g, rec.P, rec.kg
    rep = Report(f"weak bialgebra axioms ({alg.name or 'algebra'})")
    if kg is not None and not g.valid:
        coassoc, counit = _kgstar_coalgebra(alg.field, g, P)
        for x in alg.basis:
            if x in coassoc:
                rep.add("coassociativity", x)
            if x in counit:
                rep.add("counit-law", x)

    if kg is not None:
        unit_ok = flipped_ok = not kg.weak_counit
    elif _objects_orthogonal(g, P):  # then delta(1) = sum e x e is a sum
        unit_ok = flipped_ok = True  # of orthogonal idempotents
    else:
        unit_ok, flipped_ok = _kg_weak_unit(alg.field, g, P)
    if not unit_ok:
        rep.add("weak-unit", "delta^2(1)",
                "(delta(1) x 1)(1 x delta(1)) differs from delta^2(1)")
    if not flipped_ok:
        rep.add("weak-unit-flipped", "delta^2(1)",
                "(1 x delta(1))(delta(1) x 1) differs from delta^2(1)")

    for w in rec.weak_counit if kg is None else _kgstar_weak_counit(alg, g, P):
        rep.add("weak-counit", w)
    rep.info["dim"] = alg.dim
    return rep


def _kg_antipode(alg, g, P, L):
    """The identities (check, x, lhs ^ rhs) that KG fails at x, in basis
    and check order, with KG's reading of each side as in check_antipode."""
    objs, failed = set(g.objects), []
    for x in alg.basis:
        xi = g.inv(x)
        xix = P[xi].get(x)
        for check, lhs, rhs in zip(ANTIPODE_CHECKS, (P[x].get(xi), xix, P.get(xix, {}).get(xi)),
                                   (objs & L.get(x, {}).keys(), objs & P[x].keys(), {xi})):
            if (lhs := {lhs} - {None}) != rhs:
                failed.append((check, x, lhs ^ rhs))
    return failed


def check_antipode(alg: FinAlgebra, rec: GroupoidRecord) -> Report:
    """The three antipode identities of KG or KG*, as recorded on rec,
    exhaustively over basis labels.  Each identity is Phi == Psi.  On KG
    they read {x x^-1} == {objects e: ex != 0}, {x^-1 x} == {objects e:
    xe != 0} and {(x^-1 x) x^-1} == {x^-1}.  The transposes of Phi, Psi
    are the maps of the same identity on KG* (eps_t, eps_s and (delta x
    id) delta map to themselves), so on KG* f fails it where f lies in one
    side of KG's reading and not the other.  Any other pair raises
    ValueError."""
    rec = _record(alg, rec)
    rep = Report(f"antipode axioms ({alg.name or 'algebra'})")
    if rec.kg is None:
        for check, x, _ in rec.antipode_failures:
            rep.add(check, x)
        return rep
    failed = {(check, f) for check, _, sides in rec.kg.antipode_failures for f in sides}
    for x in alg.basis:
        for check in (c for c in ANTIPODE_CHECKS if (c, x) in failed):
            rep.add(check, x)
    return rep
