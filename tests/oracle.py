"""Dense reference implementations, the oracles for the sparse engine.

table_algebra, the one builder of algebras from flat product tables;
trial division, the reference for the Miller-Rabin primality test;
dense Matrix / rref / Echelon routines over lists, the one-block
sparse null_space that the blocked engine core must reproduce, the row-major
flatten of phi's columns (index r * dim + c), dense forms of phi's
kernel and image and of the unit search built on them, the
whole-element multiply form of the two-sided identity test, the
evaluation of a map given by basis images (on elements and on phi), the
all-pairs and all-triples form of the groupoid validator, the general
coalgebra tables (CoStructure, with KG's as groupoid_coalgebra), the
all-tuples forms of the weak-Hopf dual and axiom checkers, the target
counit formed per element, the all-tuples forms of the
module-algebra check, component decomposition and derived action, the
all-pairs forms of KG, B#KG, B#KG#KG*, the skew groupoid ring, phi and the
kernel-ideal test, each computing the smash formula itself, the
per-label classification of the double-smash basis, the
all-pairs forms of phi's multiplicativity and right-linearity checks and
of the closure test, the span-comparison forms of the thm2.2, rem2.7
and thm2.9 verifiers on sparse_subspace_equal, and the kernel-echelon
forms of the thm2.2 and thm2.6 verifiers and of the kernel-ideal test,
and the instance parser that checks one field or row at a time.
Tests compare the engine against these; nothing in src/ imports this
module.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from conftest import compose
from weakhopf import exactmath
from weakhopf.action import ComponentDecomposition, DfapAction, ModuleAction
from weakhopf.duality import (COMPLEMENT_STRATA, IMAGE_STRATA, KERNEL_STRATA, STRATA,
                              UNCLASSIFIED, UNITAL_STRATA, KernelImage, LinearMapRep,
                              classify, element_str, label_str)
from weakhopf.groupoid import Groupoid, GroupoidError, Morphism
from weakhopf.instances import Instance, InstanceFormatError
from weakhopf.report import Report
from weakhopf.walg import FinAlgebra, acc, el_addto, el_norm


class CoStructure:
    """Comultiplication, counit and (optional) antipode tables: the general
    coalgebra that the engine knows only for KG, and for KG* only through
    KG's record.

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
        total = F.zero
        for lab, c in x.items():
            total = F.add(total, F.mul(c, self.counit.get(lab, F.zero)))
        return total


def table_algebra(field, basis, mul, unit=None, name="", meta=None) -> FinAlgebra:
    """FinAlgebra from a flat table {(a, b): ab}, normalised as
    parse_instance normalises B: zero coefficients and empty products are
    dropped and the table is nested into rows, in its own order.  A unit is
    normalised too.  Labels are not checked."""
    right = {}
    for (a, b), prod in mul.items():
        if prod := el_norm(field, prod):
            right.setdefault(a, {})[b] = prod
    return FinAlgebra(field, basis, right, el_norm(field, unit) if unit else None, name, meta)


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass
class Matrix:
    """Dense row-major matrix over an explicit field."""

    field: object
    rows: int
    cols: int
    entries: list = dc_field(default_factory=list)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(field, r, c, flat)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def mat_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        F = self.field
        out = []
        for i in range(self.rows):
            acc = F.zero
            base = i * self.cols
            for j in range(self.cols):
                e = self.entries[base + j]
                if e != F.zero and v[j] != F.zero:
                    acc = F.add(acc, F.mul(e, v[j]))
            out.append(acc)
        return out


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rows, pivot_cols)."""
    F = m.field
    rows = [list(r) for r in m.to_rows()]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != F.zero:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel, one vector per free column."""
    F = m.field
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in [j for j in range(m.cols) if j not in pivot_set]:
        v = [F.zero] * m.cols
        v[f] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][f])
        basis.append(v)
    return basis


def solve(m: Matrix, rhs):
    """One solution of m x = rhs (free variables zero), or None."""
    if len(rhs) != m.rows:
        raise ValueError("dimension mismatch")
    F = m.field
    aug = Matrix.from_rows(F, [m.row(i) + [rhs[i]] for i in range(m.rows)]) \
        if m.cols else Matrix.from_rows(F, [[rhs[i]] for i in range(m.rows)])
    rows, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [F.zero] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][m.cols]
    return x


class Echelon:
    """Incrementally reduced spanning set of dense vectors."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        F = self.field
        v = list(v)
        for piv, row in zip(self.pivots, self.rows):
            if v[piv] != F.zero:
                f = v[piv]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
        return v

    def contains(self, v):
        return all(x == self.field.zero for x in self.reduce(v))

    def add(self, v):
        """Insert v; returns True if it enlarged the span."""
        F = self.field
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        v = self.reduce(v)
        for j, x in enumerate(v):
            if x != F.zero:
                inv = F.inv(x)
                v = [F.mul(inv, y) for y in v]
                for k, row in enumerate(self.rows):
                    if row[j] != F.zero:
                        f = row[j]
                        self.rows[k] = [F.sub(a, F.mul(f, b)) for a, b in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(j)
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def span_echelon(field, vectors, dim):
    ech = Echelon(field, dim)
    for v in vectors:
        ech.add(v)
    return ech


def _common_dim(a, b):
    dims = {len(v) for v in a} | {len(v) for v in b}
    if len(dims) > 1:
        raise ValueError("vectors of mixed dimension")
    return dims.pop() if dims else 0


def subspace_equal(field, a, b) -> bool:
    """span(a) == span(b) for dense vectors of one length."""
    dim = _common_dim(a, b)
    if dim == 0:
        return True
    ea = span_echelon(field, a, dim)
    eb = span_echelon(field, b, dim)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(v) for v in b)


def sparse_subspace_equal(field, a, b) -> bool:
    """span(a) == span(b) for the engine's sparse vectors, decided by rank
    comparisons on its Echelon."""
    ea, eb = exactmath.Echelon(field), exactmath.Echelon(field)
    for v in a:
        ea.add(v)
    for v in b:
        eb.add(v)
    return ea.rank == eb.rank and all(ea.contains(v) for v in b)


def null_space(field, columns):
    """exactmath.null_space as one global elimination: every column's rows
    go through a single rref, with no split into blocks."""
    rows = {}
    for j, col in enumerate(columns):
        for i, w in col.items():
            rows.setdefault(i, {})[j] = w
    red, pivots = exactmath.rref(field, rows.values())
    pivot_set = set(pivots)
    basis = {f: {f: field.one} for f in range(len(columns)) if f not in pivot_set}
    for row, pc in zip(red, pivots):
        for f, w in row.items():
            if f != pc:
                basis[f][pc] = field.neg(w)
    return list(basis.values()), pivots


def subspace_contains(field, space, v) -> bool:
    """v in span(space)."""
    dim = len(v)
    for w in space:
        if len(w) != dim:
            raise ValueError("vectors of mixed dimension")
    return span_echelon(field, space, dim).contains(v)


# -- conversions between the engine's sparse vectors and dense lists ----------


def dense(v: dict, dim: int, field) -> list:
    out = [field.zero] * dim
    for i, c in v.items():
        out[i] = c
    return out


def sparse(v, field) -> dict:
    return {i: c for i, c in enumerate(v) if c != field.zero}


# -- dense forms of the engine's phi and unit search -------------------------


def row_major(phi, labels):
    """The phi columns of labels as sparse vectors: the entry in row r and
    column c of an endomorphism sits at index r * dim(codomain) + c, with r
    and c positions in the codomain basis."""
    index = {lab: i for i, lab in enumerate(phi.codomain_basis)}
    n = len(index)
    return [{index[row] * n + index[col]: w
             for col, img in phi.columns.get(lab, {}).items() for row, w in img.items()}
            for lab in labels]


def flatten(phi) -> Matrix:
    """phi as a dense dim(codomain)^2 x dim(domain) matrix, row-major in the
    endomorphism coordinates."""
    n = len(phi.codomain_basis)
    cols = [dense(v, n * n, phi.field) for v in row_major(phi, phi.domain_basis)]
    entries = []
    for i in range(n * n):
        for cv in cols:
            entries.append(cv[i])
    return Matrix(phi.field, n * n, len(phi.domain_basis), entries)


def kernel_and_image(phi):
    """(kernel basis, image vectors, image labels), all dense, from the
    flattened matrix of phi."""
    flat = flatten(phi)
    kernel = kernel_basis(flat)
    n = len(phi.codomain_basis)
    ech = Echelon(phi.field, n * n)
    image, labels = [], []
    for j, lab in enumerate(phi.domain_basis):
        v = [flat.entries[i * flat.cols + j] for i in range(flat.rows)]
        if ech.add(v):
            image.append(v)
            labels.append(lab)
    return kernel, image, labels


def find_unit(alg):
    """Two-sided unit by dense solve over n columns per basis label and
    side, all-zero equations dropped and duplicates folded; or None."""
    F = alg.field
    n = alg.dim
    seen = {}
    rows = []
    rhs = []
    for x in alg.basis:
        for side in (0, 1):
            cols = []
            for b in alg.basis:
                prod = alg.basis_product(b, x) if side == 0 else alg.basis_product(x, b)
                cols.append(dense(alg.to_vector(prod), n, F))
            target = dense(alg.to_vector(alg.basis_element(x)), n, F)
            for i in range(n):
                row = tuple(cols[j][i] for j in range(n))
                want = target[i]
                if all(c == F.zero for c in row):
                    if want != F.zero:
                        return None
                    continue
                if seen.get(row, want) != want:
                    return None
                if row not in seen:
                    seen[row] = want
                    rows.append(list(row))
                    rhs.append(want)
    sol = solve(Matrix.from_rows(F, rows), rhs)
    if sol is None:
        return None
    unit = alg.from_vector(sparse(sol, F))
    for x in alg.basis:
        e = alg.basis_element(x)
        if alg.multiply(unit, e) != e or alg.multiply(e, unit) != e:
            return None
    return unit


def not_fixed(alg, y, labels):
    """The labels z, in the order given, with yz != z or zy != z, by
    multiplying whole elements."""
    return [z for z in labels
            if alg.multiply(y, alg.basis_element(z)) != alg.basis_element(z)
            or alg.multiply(alg.basis_element(z), y) != alg.basis_element(z)]


def unit_violations(alg):
    """FinAlgebra.unit_violations with one dense product per label and side."""
    if alg.unit is None:
        return []
    out = []
    for b in alg.basis:
        e = alg.basis_element(b)
        if alg.multiply(alg.unit, e) != e:
            out.append(("left", b))
        if alg.multiply(e, alg.unit) != e:
            out.append(("right", b))
    return out


# -- dense forms of the weak-Hopf constructions and axiom checkers -----------
#
# The engine's checkers visit only the tuples its nonzero structure
# constants can reach; these visit every basis tuple.


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


def apply_images(field, images: dict, x: dict) -> dict:
    """The map with basis images images[label] (absent: zero) at x: one
    scaled image added per term of x, with no shortcut for any x."""
    out = {}
    for lab, c in x.items():
        out = el_add(field, out, el_scale(field, c, images.get(lab, {})))
    return out


def apply_columns(phi, x: dict) -> dict:
    """phi at the domain element x, one apply_images per codomain column."""
    out = {}
    for col in {col for lab in x for col in phi.columns.get(lab, {})}:
        images = {lab: phi.columns.get(lab, {}).get(col, {}) for lab in x}
        if v := apply_images(phi.field, images, x):
            out[col] = v
    return out


def associativity_violations(alg):
    """Exhaustive check of (ab)c == a(bc) over basis triples."""
    out = []
    table, mul = {}, alg.mul
    for a in alg.basis:
        for b in alg.basis:
            p = mul.get((a, b))
            if p:
                table[(a, b)] = p
    for a in alg.basis:
        for b in alg.basis:
            ab = table.get((a, b), {})
            for c in alg.basis:
                bc = table.get((b, c), {})
                left = alg.multiply(ab, {c: alg.field.one}) if ab else {}
                right = alg.multiply({a: alg.field.one}, bc) if bc else {}
                if left != right:
                    out.append((a, b, c))
    return out


def tensor_mul(alg, t, u, legs):
    """Componentwise product of two tensors with the given number of legs."""
    F, mul = alg.field, alg.mul
    out = {}
    for ka, ca in t.items():
        for kb, cb in u.items():
            parts = [mul.get((ka[i], kb[i]), None) for i in range(legs)]
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


def validate_groupoid(g) -> Report:
    """The groupoid axioms over all pairs and all triples of morphism ids,
    in declaration order."""
    rep = Report("groupoid axioms")
    ids = g.morphism_ids()

    # table defined exactly on the composable pairs
    for a in ids:
        for b in ids:
            defined = (a, b) in g.comp
            if g.composable(a, b) and not defined:
                rep.add("composition-missing", [a, b],
                        "tgt(a) == src(b) but the table has no entry")
            if defined and not g.composable(a, b):
                rep.add("composition-spurious", [a, b],
                        "table entry for a non-composable pair")

    # src/tgt bookkeeping of products
    for (a, b), c in sorted(g.comp.items()):
        if g.composable(a, b):
            if g.src(c) != g.src(a) or g.tgt(c) != g.tgt(b):
                rep.add("product-endpoints", [a, b, c],
                        "src/tgt of the product do not match the factors")

    # associativity on all composable triples
    for a in ids:
        for b in ids:
            if not g.composable(a, b):
                continue
            ab = g.comp.get((a, b))
            for c in ids:
                if not g.composable(b, c):
                    continue
                bc = g.comp.get((b, c))
                if ab is None or bc is None:
                    continue
                left = g.comp.get((ab, c))
                right = g.comp.get((a, bc))
                if left != right or left is None:
                    rep.add("associativity", [a, b, c],
                            f"(a*b)*c = {left!r}, a*(b*c) = {right!r}")

    # identity laws
    for a in ids:
        if g.comp.get((a, g.tgt(a))) != a:
            rep.add("right-identity", a, "a * id_tgt(a) != a")
        if g.comp.get((g.src(a), a)) != a:
            rep.add("left-identity", a, "id_src(a) * a != a")
    for e in g.objects:
        m = g._lookup(e)
        if m.src != e or m.tgt != e or m.inv != e:
            rep.add("identity-record", e, "identity morphism must be a self-loop")

    # inverses
    for a in ids:
        ai = g.inv(a)
        if g.inv(ai) != a:
            rep.add("inverse-involution", a, "inv(inv(a)) != a")
        if g.src(ai) != g.tgt(a) or g.tgt(ai) != g.src(a):
            rep.add("inverse-endpoints", a, "inv(a) must run backwards")
        if g.comp.get((a, ai)) != g.src(a):
            rep.add("inverse-right", a, "a * inv(a) must be the identity at src(a)")
        if g.comp.get((ai, a)) != g.tgt(a):
            rep.add("inverse-left", a, "inv(a) * a must be the identity at tgt(a)")

    # (a*b)^-1 == inv(b) * inv(a)
    for (a, b), c in sorted(g.comp.items()):
        if g.composable(a, b):
            expected = g.comp.get((g.inv(b), g.inv(a)))
            if expected != g.inv(c):
                rep.add("inverse-antihomomorphism", [a, b],
                        "inv(a*b) != inv(b)*inv(a)")

    rep.info["objects"] = len(g.objects)
    rep.info["morphisms"] = len(g.morphisms)
    return rep


def groupoid_algebra(field, g) -> FinAlgebra:
    """KG over every pair of labels: u_a u_b = u_{ab} when the table
    defines ab and tgt(a) == src(b), else 0."""
    basis = g.morphism_ids()
    mul = {(a, b): {compose(g, a, b): field.one} for a in basis for b in basis
           if compose(g, a, b) is not None}
    return table_algebra(field, basis, mul, {e: field.one for e in g.objects}, name="KG")


def groupoid_coalgebra(field, g) -> CoStructure:
    """KG's coalgebra as tables: delta(u_m) = u_m x u_m, counit 1 and the
    antipode u_m -> u_inv(m)."""
    basis = g.morphism_ids()
    return CoStructure(field, {m: [(m, m, field.one)] for m in basis},
                       {m: field.one for m in basis},
                       {m: {g.inv(m): field.one} for m in basis})


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

    delta, products = {}, alg.mul
    for x in basis:
        pairs = []
        for a in basis:
            for b in basis:
                c = products.get((a, b), {}).get(x, F.zero)
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

    dual = table_algebra(F, basis, mul, unit, name=f"{alg.name}*")
    return dual, CoStructure(F, delta, counit, antipode)


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
                {a: F.one}, apply_images(F, co.antipode, {b: F.one}))))
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
                apply_images(F, co.antipode, {a: F.one}), {b: F.one})))
        rhs = {}
        for (a, b), c in d1.items():
            w = F.mul(c, co.counit_element(alg.multiply(e, {b: F.one})))
            rhs = el_add(F, rhs, el_scale(F, w, {a: F.one}))
        if lhs != rhs:
            rep.add("antipode-right", x)

        # S(x1) x2 S(x3) == S(x)
        lhs = {}
        for (a, b, cc), c in delta_square(alg, co, e).items():
            term = alg.multiply(apply_images(F, co.antipode, {a: F.one}), {b: F.one})
            term = alg.multiply(term, apply_images(F, co.antipode, {cc: F.one}))
            lhs = el_add(F, lhs, el_scale(F, c, term))
        if lhs != apply_images(F, co.antipode, e):
            rep.add("antipode-sandwich", x)

    return rep


# -- dense module-algebra, decomposition and derived-action checks -------------


def target_counit(alg: FinAlgebra, co: CoStructure, x: dict) -> dict:
    """sum eps(1_1 x) 1_2 over the coproduct of the unit, with delta(1)
    formed and each leg multiplied by x on every call."""
    if alg.unit is None:
        raise ValueError("target counit needs a unit")
    F = alg.field
    out = {}
    for (a, b), c in co.delta_element(alg.unit).items():
        el_addto(F, out, F.mul(c, co.counit_element(alg.multiply({a: F.one}, x))), {b: F.one})
    return out


def check_module_algebra(B: FinAlgebra, kg: FinAlgebra, kg_co, action: ModuleAction) -> Report:
    """Exhaustive check of the weak module-algebra conditions:
    (i) composing the action matches multiplying in the groupoid algebra
        (so non-composable products must act as zero),
    (ii) every morphism acts multiplicatively through its coproduct legs,
    (iii) the action on 1_B factors through the target counit.
    """
    if B.unit is None:
        raise ValueError("module-algebra check needs a unital B")
    F = B.field
    rep = Report("weak module-algebra conditions")
    g = action.groupoid
    ids = g.morphism_ids()

    for a in ids:
        for b in ids:
            prod = kg.basis_product(a, b)
            for x in B.basis:
                left = action.act({a: F.one}, action.rho[b].get(x, {}))
                right = action.act(prod, B.basis_element(x)) if prod else {}
                if left != right:
                    rep.add("module-axiom-i", [a, b, x],
                            "acting by a then b differs from acting by the product")

    for m in ids:
        legs = kg_co.delta.get(m, [])
        for x in B.basis:
            for y in B.basis:
                lhs = action.act({m: F.one}, B.basis_product(x, y))
                rhs = {}
                for m1, m2, c in legs:
                    term = B.multiply(action.rho[m1].get(x, {}), action.rho[m2].get(y, {}))
                    el_addto(F, rhs, c, term)
                if lhs != rhs:
                    rep.add("module-axiom-ii", [m, x, y],
                            "action is not multiplicative at this pair")

    for m in ids:
        lhs = action.act({m: F.one}, B.unit)
        rhs = action.act(target_counit(kg, kg_co, {m: F.one}), B.unit)
        if lhs != rhs:
            rep.add("module-axiom-iii", m,
                    "action on 1_B does not factor through the target counit")

    rep.info["morphisms"] = len(ids)
    rep.info["b_dim"] = B.dim
    return rep


def component_decomposition(B: FinAlgebra, kg: FinAlgebra, action: ModuleAction):
    """Idempotents e.1_B per object and the subspaces B(e.1_B).

    Nothing is assumed: idempotency, orthogonality, centrality and the
    direct-sum property are all report items, since user actions may
    violate them.
    """
    if B.unit is None:
        raise ValueError("decomposition needs a unital B")
    F = B.field
    g = action.groupoid
    rep = Report("component decomposition")

    idem = {e: action.act({e: F.one}, B.unit) for e in g.objects}

    for e in g.objects:
        q = idem[e]
        if B.multiply(q, q) != q:
            rep.add("idempotent", e, "e.1_B is not idempotent")
        for x in B.basis:
            ex = B.basis_element(x)
            if B.multiply(q, ex) != B.multiply(ex, q):
                rep.add("central", [e, x], "e.1_B does not commute with this basis vector")
    for i, e in enumerate(g.objects):
        for f in g.objects[i + 1:]:
            if B.multiply(idem[e], idem[f]) or B.multiply(idem[f], idem[e]):
                rep.add("orthogonal", [e, f], "idempotents for distinct objects overlap")

    spans = {}
    total = exactmath.Echelon(F)
    dim_sum = 0
    for e in g.objects:
        ech = spans[e] = exactmath.Echelon(F)
        for x in B.basis:
            ech.add(B.to_vector(B.multiply(B.basis_element(x), idem[e])))
        dim_sum += ech.rank
        for v in ech.rows:
            total.add(v)
    if not (dim_sum == B.dim and total.rank == B.dim):
        rep.add("direct-sum", {"component_dim_sum": dim_sum, "joint_rank": total.rank,
                               "b_dim": B.dim},
                "components do not decompose B as a direct sum")

    component_of = {}
    homogeneous = True
    for x in B.basis:
        vx = B.to_vector(B.basis_element(x))
        homes = [e for e in g.objects if spans[e].contains(vx)]
        if len(homes) == 1:
            component_of[x] = homes[0]
        else:
            component_of[x] = None
            homogeneous = False
            rep.add("homogeneous-basis", x,
                    f"basis vector lies in {len(homes)} components")

    rep.info["component_dims"] = {e: spans[e].rank for e in g.objects}
    return ComponentDecomposition(idem, spans, component_of, homogeneous), rep


def derive_dfap_action(B: FinAlgebra, kg: FinAlgebra, action: ModuleAction,
                       decomp: ComponentDecomposition):
    """E_g := component of src(g); beta_g := (b -> g.b) restricted to the
    component of tgt(g).  Reports whether each beta_g is a ring isomorphism
    onto E_g and whether the two groupoid-action axioms hold."""
    F = B.field
    g = action.groupoid
    rep = Report("derived groupoid action")

    iso_images, ideal_labels = {}, {}
    for m in g.morphism_ids():
        target = decomp.spans[g.src(m)]
        labels = [x for x in B.basis if decomp.component_of.get(x) == g.src(m)]
        ideal_labels[m] = labels if len(labels) == target.rank else None

        domain = decomp.spans[g.tgt(m)].rows
        images = []
        img_span = exactmath.Echelon(F)
        for v in domain:
            img = action.act({m: F.one}, B.from_vector(v))
            images.append(B.to_vector(img))
            img_span.add(B.to_vector(img))
        iso_images[m] = images

        if img_span.rank != len(domain):
            rep.add("iso-injective", m, "restriction of the action is not injective")
        if not all(target.contains(v) for v in images):
            rep.add("iso-into", m, "image leaves the component of src(g)")
        if img_span.rank != target.rank:
            rep.add("iso-onto", m, "restriction is not onto the component of src(g)")

        # multiplicative on the ideal
        for i, v in enumerate(domain):
            for j, w in enumerate(domain):
                prod = B.multiply(B.from_vector(v), B.from_vector(w))
                lhs = action.act({m: F.one}, prod)
                rhs = B.multiply(B.from_vector(images[i]), B.from_vector(images[j]))
                if lhs != rhs:
                    rep.add("iso-multiplicative", [m, i, j])

    # ideals: B e_g B stays inside e_g's span
    for e in g.objects:
        span = decomp.spans[e]
        for v in decomp.spans[e].rows:
            x = B.from_vector(v)
            for b in B.basis:
                eb = B.basis_element(b)
                if not span.contains(B.to_vector(B.multiply(eb, x))):
                    rep.add("ideal", [e, b], "component is not a left ideal")
                if not span.contains(B.to_vector(B.multiply(x, eb))):
                    rep.add("ideal", [e, b], "component is not a right ideal")

    # axiom (i): identities act as the identity on their component
    for e in g.objects:
        for v in decomp.spans[e].rows:
            if action.act({e: F.one}, B.from_vector(v)) != B.from_vector(v):
                rep.add("axiom-identity", e, "identity morphism does not fix its component")

    # axiom (ii): beta_g beta_h == beta_{gh} on the component of tgt(h); a
    # missing product is the groupoid validator's to report
    for a in g.morphism_ids():
        for b, ab in g.after[a]:
            for v in decomp.spans[g.tgt(b)].rows:
                x = B.from_vector(v)
                lhs = action.act({a: F.one}, action.act({b: F.one}, x))
                if lhs != action.act({ab: F.one}, x):
                    rep.add("axiom-composition", [a, b], "composing the maps misses beta_{ab}")

    return DfapAction(iso_images, ideal_labels), rep


# -- all-pairs smash products, skew ring and phi ------------------------------


def smash_product(B: FinAlgebra, kg: FinAlgebra, action) -> FinAlgebra:
    """(a # u_s)(b # u_t) = a(s.b) # u_{st} over every pair of labels,
    zero when st is undefined."""
    F = B.field
    g = action.groupoid
    basis = [(b, m) for b in B.basis for m in g.morphism_ids()]
    mul = {}
    for (a, s) in basis:
        for (b, t) in basis:
            st = compose(g, s, t)
            if st is None:
                continue
            coeff = B.multiply(B.basis_element(a), action.rho[s].get(b, {}))
            out = {(lab, st): c for lab, c in coeff.items()}
            if out:
                mul[((a, s), (b, t))] = out
    return table_algebra(F, basis, mul, None, name="B#KG",
                         meta={"B": B, "kg": kg, "action": action, "groupoid": g})


def double_smash(B: FinAlgebra, kg: FinAlgebra, kgstar: FinAlgebra,
                 kgstar_co, action) -> FinAlgebra:
    """B#KG#KG* with the dual acting through its coproduct legs:

        (a # u_m # r_n)(b # u_s # r_t)
            = sum over coproduct legs n -> n1 x n2 of
              (a # u_m)(n1 evaluated against u_s) # n2 * t

    For a groupoid dual this collapses to a(m.b) # u_{ms} # r_t when the
    product s*t exists and equals n, and zero otherwise.
    """
    F = B.field
    g = action.groupoid
    ids = g.morphism_ids()
    basis = [(b, m, n) for b in B.basis for m in ids for n in ids]
    mul = {}
    for (a, m, n) in basis:
        legs = kgstar_co.delta.get(n, [])
        for (b, s, t) in basis:
            out = {}
            for n1, n2, c in legs:
                if n1 != s:
                    continue
                conv = kgstar.basis_product(n2, t)
                if not conv:
                    continue
                ms = compose(g, m, s)
                if ms is None:
                    continue
                coeff = B.multiply(B.basis_element(a), action.rho[m].get(b, {}))
                for lab, cb in coeff.items():
                    for rho, cr in conv.items():
                        acc(F, out, (lab, ms, rho), F.mul(c, F.mul(cb, cr)))
            if out:
                mul[((a, m, n), (b, s, t))] = out
    return table_algebra(F, basis, mul, None, name="B#KG#KG*",
                         meta={"B": B, "kg": kg, "kgstar": kgstar,
                               "action": action, "groupoid": g})


def skew_groupoid_ring(B: FinAlgebra, action: ModuleAction, dfap: DfapAction) -> FinAlgebra:
    """The twisted ring on symbols b.delta_g with b in the ideal at g:
    (x delta_g)(y delta_h) = x beta_g(y) delta_{gh} when gh exists, else 0.

    Needs a homogeneous B basis so the symbols can be labeled by basis
    vectors; raises otherwise.
    """
    F = B.field
    g = action.groupoid
    for m in g.morphism_ids():
        if dfap.ideal_labels.get(m) is None:
            raise ValueError(
                f"skew ring needs a homogeneous basis for the ideal at {m!r}")

    basis = []
    for m in g.morphism_ids():
        for b in dfap.ideal_labels[m]:
            basis.append((b, m))

    allowed = {m: set(dfap.ideal_labels[m]) for m in g.morphism_ids()}
    mul = {}
    for (x, a) in basis:
        for (y, b) in basis:
            ab = g.comp.get((a, b)) if g.composable(a, b) else None
            if ab is None:
                continue
            beta = action.act({a: F.one}, B.basis_element(y))
            prod = B.multiply(B.basis_element(x), beta)
            out = {}
            for lab, c in prod.items():
                if lab not in allowed[ab]:
                    raise ValueError(
                        f"skew product left the ideal at {ab!r} (label {lab!r})")
                out[(lab, ab)] = c
            if out:
                mul[((x, a), (y, b))] = out

    # no unit asserted; callers can search for one if they care
    return table_algebra(F, basis, mul, None, name="B*G",
                         meta={"B": B, "action": action})


# -- the engine's positional tables, read back as labels ----------------------
#
# B#KG, B#KG#KG* and phi are keyed by basis position inside the engine; the
# all-pairs forms above and below work on labels.  Each comparison turns
# the engine's positions into labels first, key order included.


def labelled(alg):
    """A positional algebra with each position replaced by its label, key
    order kept; any other algebra as it is."""
    if type(alg.basis) is not range:
        return alg
    lab = alg.label
    right = {lab(x): {lab(y): {lab(k): c for k, c in prod.items()} for y, prod in row.items()}
             for x, row in alg.right.items()}
    return FinAlgebra(alg.field, [lab(i) for i in alg.basis], right, None, alg.name, alg.meta,
                      [lab(i) for i in alg.first])


def labelled_map(phi, dsm, bsm):
    """phi with its domain positions named by dsm and its codomain ones by bsm."""
    d, b = dsm.label, bsm.label
    columns = {d(x): {b(col): {b(k): c for k, c in img.items()} for col, img in endo.items()}
               for x, endo in phi.columns.items()}
    return LinearMapRep(phi.field, [d(x) for x in phi.domain_basis],
                        [b(y) for y in phi.codomain_basis], columns)


class LabelView:
    """A VerificationContext whose smash products, phi, strata, kernel,
    identity candidates and skew ring are read back as labels, each built
    when first read from what the context then holds; any other attribute
    is the context's own."""

    def __init__(self, ctx):
        self.ctx = ctx

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    @cached_property
    def bsm(self):
        return labelled(self.ctx.bsm)

    @cached_property
    def dsm(self):
        return labelled(self.ctx.dsm)

    @cached_property
    def phi(self):
        return labelled_map(self.ctx.phi, self.ctx.dsm, self.ctx.bsm)

    def labels(self, positions):
        return [self.ctx.dsm.label(q) for q in positions]

    @cached_property
    def strata(self):
        return {name: self.labels(qs) for name, qs in self.ctx.strata.items()}

    def stratum_labels(self, names):
        return self.labels(self.ctx.stratum_labels(names))

    @cached_property
    def ki(self):
        ki = self.ctx.ki
        return KernelImage(self.labels(ki.zero), ki.eliminated, ki.dims)

    @property
    def y_morph(self):
        return {self.ctx.dsm.label(q): c for q, c in self.ctx.y_morph.items()}

    @property
    def y_obj(self):
        return {self.ctx.dsm.label(q): c for q, c in self.ctx.y_obj.items()}

    @property
    def skew(self):
        skew, err = self.ctx.skew
        return (None if skew is None else [self.ctx.bsm.label(x) for x in skew]), err


def build_phi(dsm, bsm) -> LinearMapRep:
    """phi(a#u_g#r_h) sends b#u_l to (a#u_g)(b#u_l) when l == h, else 0."""
    for key in ("B", "kg", "action"):
        if dsm.meta.get(key) is not bsm.meta.get(key):
            raise ValueError("smash products come from different parents")
    F = dsm.field
    columns = {}
    for (a, g, h) in dsm.basis:
        left = {(a, g): F.one}
        col = {}
        for (b, l) in bsm.basis:
            if l != h:
                continue
            img = bsm.multiply(left, {(b, l): F.one})
            if img:
                col[(b, l)] = img
        columns[(a, g, h)] = col
    return LinearMapRep(F, list(dsm.basis), list(bsm.basis), columns)


def strata(ctx):
    """{stratum: labels}, classifying each double-smash label on its own."""
    B = ctx.B
    spans = ctx.action.image_spans()
    out = {s: [] for s in (*STRATA, UNCLASSIFIED)}
    for (b, g, h) in ctx.dsm.basis:
        e = ctx.decomp.component_of.get(b)
        in_img = spans[g].contains(B.to_vector(B.basis_element(b)))
        out[classify(ctx.groupoid, e, g, h, in_img)].append((b, g, h))
    return out


def merged_kernel(field, zero, eliminated):
    """A kernel basis in the order of its free columns: a unit vector per
    zero position, merged with the (free position, vector) pairs the
    elimination found."""
    units = [(j, {j: field.one}) for j in zero]
    return [v for _, v in sorted(units + eliminated, key=lambda fv: fv[0])]


def kernel_vectors(ctx):
    """The engine's kernel basis as sparse vectors over the domain."""
    index = ctx.dsm.index
    return merged_kernel(ctx.field, [index[lab] for lab in ctx.ki.zero], ctx.ki.eliminated)


def kernel_echelon(ctx):
    """A fresh echelon of ker phi."""
    ech = exactmath.Echelon(ctx.field)
    for v in kernel_vectors(ctx):
        ech.add(v)
    return ech


def stratum_vectors(ctx, names):
    return [ctx.dsm.to_vector({lab: ctx.field.one})
            for lab in ctx.stratum_labels(names)]


def kernel_ideal_witnesses(ctx):
    """The thm2.6 kernel-ideal test over every basis label z, by
    membership in the kernel echelon."""
    F, dsm = ctx.field, ctx.dsm
    ker_ech = kernel_echelon(ctx)
    out = []
    for v in kernel_vectors(ctx):
        dv = dsm.from_vector(v)
        for z in dsm.basis:
            ez = {z: F.one}
            for prod in (dsm.multiply(dv, ez), dsm.multiply(ez, dv)):
                if prod and not ker_ech.contains(dsm.to_vector(prod)):
                    out.append(z)
    return out


# -- all-pairs forms of phi's checks and of the closure test -----------------
#
# The engine visits only the tuples phi's nonzero columns, or the nonzero
# products of the double smash, can reach; these visit every pair.


def phi_is_homomorphism(phi, dsm) -> Report:
    rep = Report("phi is multiplicative")
    for x in phi.domain_basis:
        ex = phi.columns.get(x, {})
        for y in phi.domain_basis:
            lhs = apply_columns(phi, dsm.basis_product(x, y))
            rhs = compose_endos(phi, ex, phi.columns.get(y, {}))
            if lhs != rhs:
                rep.add("phi-multiplicative", [list(x), list(y)])
    return rep


def compose_endos(phi, first, second):
    F = phi.field
    out = {}
    for col, img in second.items():
        total = {}
        for mid, c in img.items():
            for lab, w in first.get(mid, {}).items():
                acc(F, total, lab, F.mul(c, w))
        if total:
            out[col] = total
    return out


def right_linearity(phi, bsm, B) -> Report:
    F = phi.field
    g = bsm.meta["groupoid"]
    rep = Report("image endomorphisms are right B-linear")
    right_factors = {b: {(b, e): F.one for e in g.objects} for b in B.basis}
    for x in phi.domain_basis:
        endo = phi.columns.get(x, {})
        for z in bsm.basis:
            for b in B.basis:
                zb = bsm.multiply({z: F.one}, right_factors[b])
                lhs = {}
                for lab, c in zb.items():
                    for k, w in endo.get(lab, {}).items():
                        acc(F, lhs, k, F.mul(c, w))
                rhs = bsm.multiply(endo.get(z, {}), right_factors[b])
                if lhs != rhs:
                    rep.add("right-linearity", [list(x), list(z), b])
    return rep


def closure_witnesses(ctx, names):
    """The prop2.3 / thm2.6 closure test over every pair of stratum labels."""
    labels = ctx.stratum_labels(names)
    allowed = set(labels)
    witnesses = []
    for x in labels:
        for y in labels:
            prod = ctx.dsm.basis_product(x, y)
            bad = [lab for lab in prod if lab not in allowed]
            if bad:
                witnesses.append({"product_escapes": [label_str(x), label_str(y)],
                                  "offending": [label_str(b) for b in bad]})
    return witnesses


# -- the subspace forms of thm2.2, thm2.6, rem2.7 and thm2.9 -------------------
#
# The engine decides these on labels, supports and the ranks of phi's
# columns; these compare spans with subspace_equal or add the strata to
# an echelon of the kernel.


def verify_thm2_2(ctx):
    F = ctx.field
    kernel = kernel_vectors(ctx)
    span_ker_strata = stratum_vectors(ctx, KERNEL_STRATA)
    eq = sparse_subspace_equal(F, kernel, span_ker_strata)
    ker_ech = kernel_echelon(ctx)
    witnesses = []
    if not eq:
        strata_ech = exactmath.Echelon(F)
        for v in span_ker_strata:
            strata_ech.add(v)
        for v in kernel:
            if not strata_ech.contains(v):
                witnesses.append({"kernel_vector_outside_strata":
                                  element_str(F, ctx.dsm.from_vector(v))})
        for v, lab in zip(span_ker_strata, ctx.stratum_labels(KERNEL_STRATA)):
            if not ker_ech.contains(v):
                witnesses.append({"stratum_vector_outside_kernel": label_str(lab)})
    disjoint = {}
    for name in IMAGE_STRATA:
        ok = True
        probe = kernel_echelon(ctx)
        for lab in ctx.stratum_labels([name]):
            if not probe.add(ctx.dsm.to_vector({lab: F.one})):
                ok = False
                witnesses.append({"stratum_meets_kernel": [name, label_str(lab)]})
        disjoint[name] = ok
    dims = dict(ctx.ki.dims)
    dims["strata"] = dict(ctx.strata_dims)
    dims["kernel_strata_span"] = len(span_ker_strata)
    holds = eq and all(disjoint.values())
    notes = [f"kernel equals the span of A3+A4+A5+A6: {eq}"]
    return ctx._result("thm2.2", holds, dims, witnesses, notes)


def verify_thm2_6(ctx):
    kernel = kernel_vectors(ctx)
    s_vectors = stratum_vectors(ctx, IMAGE_STRATA)
    dim = ctx.dsm.dim
    ech = kernel_echelon(ctx)
    enlarged = [ech.add(v) for v in s_vectors]
    decomposes = (all(enlarged) and ech.rank == dim
                  and len(kernel) + len(s_vectors) == dim)
    sp_dim = len(ctx.stratum_labels(UNITAL_STRATA))
    t_dim = len(ctx.stratum_labels(COMPLEMENT_STRATA))
    split = sp_dim + t_dim == len(s_vectors)
    witnesses = []
    closed = True
    for part, names in (("S", IMAGE_STRATA), ("S'", UNITAL_STRATA),
                        ("T", COMPLEMENT_STRATA)):
        for w in closure_witnesses(ctx, names):
            closed = False
            witnesses.append({"summand": part, **w})
    not_ideal = kernel_ideal_witnesses(ctx)
    ideal_ok = not not_ideal
    witnesses += [{"kernel_not_ideal_at": label_str(z)} for z in not_ideal]
    dims = {"dim": dim, "kernel": len(kernel), "S": len(s_vectors),
            "S'": sp_dim, "T": t_dim}
    holds = decomposes and split and ideal_ok and closed
    notes = [f"whole space = kernel (+) image strata: {decomposes}",
             f"image strata split as unital corner (+) complement: {split}",
             f"each summand multiplicatively closed: {closed}",
             f"kernel is a two-sided ideal: {ideal_ok}"]
    return ctx._result("thm2.6", holds, dims, witnesses, notes)


def verify_rem2_7(ctx):
    F = ctx.field
    s_labels = ctx.stratum_labels(IMAGE_STRATA)
    phi_s = row_major(ctx.phi, s_labels)
    ech = exactmath.Echelon(F)
    rank_phi_s = sum(ech.add(v) for v in phi_s)
    exact = ctx.ki.dims["kernel"] + rank_phi_s == ctx.ki.dims["domain"]
    _, image, _ = kernel_and_image(ctx.phi)
    image = [sparse(v, F) for v in image]
    same_image = sparse_subspace_equal(F, phi_s, image) if phi_s or image else True
    dims = {"kernel": ctx.ki.dims["kernel"], "phi_of_S": rank_phi_s,
            "domain": ctx.ki.dims["domain"], "image": ctx.ki.dims["image"]}
    notes = [f"dim kernel + dim phi(S) == dim domain: {exact}",
             f"phi(S) equals the full image: {same_image}"]
    return ctx._result("rem2.7", exact and same_image, dims, [], notes)


def verify_thm2_9(ctx):
    F = ctx.field
    skew, err = ctx.skew
    if skew is None:
        return ctx._result("thm2.9", False, {}, [], [f"skew ring unavailable: {err}"])
    _, dfap_report = ctx.dfap
    g = ctx.groupoid
    dom = [(b, m, h) for (b, m) in skew for h in g.morphism_ids()]
    n_dom = len(dom)
    d1 = [i for i, (_, m, h) in enumerate(dom) if not g.composable(m, h)]
    c_labels = [lab for lab in dom if g.composable(lab[1], lab[2])]
    cols = dict(zip(dom, row_major(ctx.phi, dom)))
    ker, _ = null_space(F, list(cols.values()))
    d1_eq_kernel = sparse_subspace_equal(F, [{i: F.one} for i in d1], ker)
    whole_ok = len(d1) + len(c_labels) == n_dom
    ech = exactmath.Echelon(F)
    rank_c = sum(ech.add(cols[lab]) for lab in c_labels)
    exact = len(d1) + rank_c == n_dom
    inj = len({ctx.dsm.index[lab] for lab in c_labels}) == len(c_labels)
    b0 = [lab for lab in c_labels if g.src(lab[1]) == g.tgt(lab[1])]
    psi_b0 = [{ctx.dsm.index[lab]: F.one} for lab in b0]
    a1 = stratum_vectors(ctx, ["A1"])
    b0_eq_a1 = sparse_subspace_equal(F, psi_b0, a1)
    dims = {"skew_smash_dim": n_dom, "D1": len(d1), "C": len(c_labels),
            "phi_psi_C": rank_c, "kernel_phi_psi": len(ker),
            "B0": len(b0), "A1": len(a1)}
    witnesses = [{"derived_action": check} for check in dfap_report.checks_failed()]
    holds = d1_eq_kernel and whole_ok and exact and inj and b0_eq_a1 and dfap_report.ok
    notes = [f"D1 equals ker(phi o psi): {d1_eq_kernel}",
             f"whole = C (+) D1: {whole_ok}",
             f"dim D1 + dim phi(psi(C)) == dim: {exact}",
             f"psi injective on C: {inj}",
             f"psi(B0) equals span(A1): {b0_eq_a1}"]
    return ctx._result("thm2.9", holds, dims, witnesses, notes)


# -- the instance parser, one check at a time ----------------------------------


def parse_scalar(field, text):
    """text as a scalar of field, rationals always through Fraction."""
    if field.kind == "rational":
        return exactmath._integral(Fraction(str(text)))
    return field.parse(text)


def _parse_element(field, doc, basis, where):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: element must be an object")
    out = {}
    for lab, text in doc.items():
        if lab not in basis:
            raise InstanceFormatError(f"{where}: unknown basis label {lab!r}")
        try:
            val = parse_scalar(field, text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"{where}: bad coefficient {text!r}: {exc}")
        if val != field.zero:
            out[lab] = val
    return out


def _list(value, where):
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where} must be a list")
    return value


def _label(lab, where):
    """lab as a label: a JSON string, so that any two labels compare."""
    if not isinstance(lab, str):
        raise InstanceFormatError(f"{where} is not a label (a JSON string): {lab!r}")
    return lab


def _labels(values, where):
    return [_label(lab, f"{where}[{i}]") for i, lab in enumerate(_list(values, where))]


def _triples(rows, where):
    """The [label, label, element] rows of a table section."""
    for i, entry in enumerate(_list(rows, where)):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InstanceFormatError(f"{where}[{i}] is not a [label, label, element] triple")
        _labels(entry[:2], f"{where}[{i}]")
    return rows


def parse_instance(doc: dict) -> Instance:
    """The instance parser that walks each table once to check its shapes
    and once to read it and builds every error location up front."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        field = exactmath.field_from_spec(doc["field"])
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise InstanceFormatError(f"bad field spec: {exc}")

    gdoc = doc.get("groupoid")
    if not isinstance(gdoc, dict):
        raise InstanceFormatError("missing groupoid section")
    if not gdoc.get("objects"):
        raise InstanceFormatError("groupoid has no objects")
    try:
        morphs = [Morphism(*(_label(m[k], f"morphisms[{i}].{k}")
                             for k in ("id", "src", "tgt", "inv")))
                  for i, m in enumerate(gdoc.get("morphisms", []))]
        comp = {}
        for i, entry in enumerate(_list(gdoc.get("composition", []), "composition")):
            a, b, c = _labels(entry, f"composition[{i}]")
            if (a, b) in comp:
                raise InstanceFormatError(
                    f"composition table maps ({a!r}, {b!r}) twice")
            comp[(a, b)] = c
        groupoid = Groupoid(_labels(gdoc["objects"], "groupoid objects"), morphs, comp)
    except GroupoidError as exc:
        raise InstanceFormatError(f"groupoid: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"groupoid section malformed: {exc}")

    adoc = doc.get("algebra")
    if not isinstance(adoc, dict) or "basis" not in adoc or "unit" not in adoc:
        raise InstanceFormatError("algebra section needs basis and unit")
    basis = _labels(adoc["basis"], "algebra basis")
    if len(set(basis)) != len(basis):
        raise InstanceFormatError("duplicate algebra basis labels")
    bset = set(basis)
    right, pairs = {}, set()
    for a, b, el in _triples(adoc.get("multiplication", []), "multiplication"):
        if a not in bset or b not in bset:
            unknown = " and ".join(repr(lab) for lab in dict.fromkeys((a, b)) if lab not in bset)
            raise InstanceFormatError(f"multiplication references unknown label {unknown}")
        if (a, b) in pairs:
            raise InstanceFormatError(f"multiplication table maps ({a!r}, {b!r}) twice")
        pairs.add((a, b))
        if prod := _parse_element(field, el, bset, f"multiplication ({a}, {b})"):
            right.setdefault(a, {})[b] = prod
    unit = _parse_element(field, adoc["unit"], bset, "unit")
    if not unit:
        raise InstanceFormatError("algebra unit is zero; B needs a nonzero unit")
    algebra = FinAlgebra(field, basis, right, unit, name="B")

    table = {}
    mids = set(groupoid.morphism_ids())
    for m, b, el in _triples(doc.get("action", []), "action"):
        if m not in mids:
            raise InstanceFormatError(f"action references unknown morphism {m!r}")
        if b not in bset:
            raise InstanceFormatError(f"action references unknown basis label {b!r}")
        if (m, b) in table:
            raise InstanceFormatError(f"action table maps ({m!r}, {b!r}) twice")
        table[(m, b)] = _parse_element(field, el, bset, f"action ({m}, {b})")
    action = ModuleAction(groupoid, algebra, table)

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InstanceFormatError("name must be a string")
    return Instance(name, field, groupoid, algebra, action)
