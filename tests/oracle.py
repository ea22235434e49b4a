"""Dense reference implementations, the oracles for the sparse engine.

Dense Matrix / rref / Echelon routines over lists, and dense forms of
phi's kernel and image and of the unit search built on them.  Tests
compare the engine against these; nothing in src/ imports this module.
"""

from dataclasses import dataclass, field as dc_field


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


def flatten(phi) -> Matrix:
    """phi as a dense dim(codomain)^2 x dim(domain) matrix, row-major in the
    endomorphism coordinates."""
    n = len(phi.codomain_basis)
    cols = [dense(phi.endo_to_vector(phi.columns[lab]), n * n, phi.field)
            for lab in phi.domain_basis]
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
