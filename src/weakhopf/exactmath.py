"""Exact scalar arithmetic (rationals and prime fields) and sparse exact
elimination over vectors stored as dicts {index: nonzero scalar}.

No floats, no tolerances: equality of scalars, vectors and subspaces is
literal equality in the field.  Gaussian elimination pivots on the first
nonzero entry, so identical inputs give identical outputs bit for bit.
"""

from fractions import Fraction

MAX_PRIME = 2**31


class Rationals:
    """The field of rationals.  An integral value is an int and any other
    value a Fraction, so the structure constants of groupoid instances
    never leave int arithmetic; str prints both the same way."""

    kind = "rational"
    zero = 0
    one = 1

    def add(self, a, b):
        return _integral(a + b)

    def sub(self, a, b):
        return _integral(a - b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(Fraction(1) / a)

    def parse(self, text):
        return _integral(Fraction(str(text)))

    def show(self, a) -> str:
        return str(a)

    def describe(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Rationals()"


def _integral(x):
    """x as an int when its denominator is 1."""
    return x.numerator if x.denominator == 1 else x


def is_prime(n: int) -> bool:
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


class PrimeField:
    """GF(p) for a prime p < 2**31; elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise ValueError(f"prime field modulus out of range: {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        # accepts "n" or "n/d" with d invertible
        s = str(text)
        if "/" in s:
            num, den = s.split("/", 1)
            return self.mul(int(num) % self.p, self.inv(int(den)))
        return int(s) % self.p

    def show(self, a) -> str:
        return str(a % self.p)

    def describe(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()


def field_from_spec(spec: dict):
    kind = spec.get("kind")
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(spec["p"])
    raise ValueError(f"unknown field kind: {spec!r}")


class Echelon:
    """Incrementally reduced spanning set of sparse vectors.

    A vector is a dict {index: nonzero scalar}.  Each row has a leading one
    at its pivot, its smallest index, and a zero at every other row's pivot.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []       # in insertion order
        self.pivots = {}     # pivot -> position of its row, in insertion order

    def reduce(self, v):
        # subtracting a row touches no other pivot, so one pass suffices
        zero = self.field.zero
        out = {c: x for c, x in v.items() if x != zero}
        for p in [c for c in out if c in self.pivots]:
            _subtract(self.field, out, out[p], self.rows[self.pivots[p]])
        return out

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        """Insert v; returns True if it enlarged the span."""
        F = self.field
        v = self.reduce(v)
        if not v:
            return False
        j = min(v)
        inv = F.inv(v[j])
        v = {c: F.mul(inv, x) for c, x in v.items()}
        for row in self.rows:
            if j in row:
                _subtract(F, row, row[j], v)
        self.pivots[j] = len(self.rows)
        self.rows.append(v)
        return True

    @property
    def rank(self):
        return len(self.rows)


def _subtract(F, v, f, row):
    """v -= f * row in place, dropping the entries that cancel."""
    for c, y in row.items():
        s = F.sub(v.get(c, F.zero), F.mul(f, y))
        if s == F.zero:
            v.pop(c, None)
        else:
            v[c] = s


def rref(field, rows):
    """Reduced row echelon form of sparse rows: (rows, pivots), sorted by
    pivot, zero rows dropped.  Unique for a given row space."""
    ech = Echelon(field)
    for r in rows:
        ech.add(r)
    order = sorted(ech.pivots.items())
    return [ech.rows[i] for _, i in order], [p for p, _ in order]


def null_space(field, columns):
    """(kernel basis, pivot columns) of the map whose j-th column is the
    sparse vector columns[j]: one kernel vector per free column of the
    reduced row echelon form, with a one there.  The pivot columns, in
    increasing order, are the first columns that span the image."""
    rows = {}
    for j, col in enumerate(columns):
        for i, w in col.items():
            rows.setdefault(i, {})[j] = w
    red, pivots = rref(field, rows.values())
    pivot_set = set(pivots)
    basis = {f: {f: field.one} for f in range(len(columns)) if f not in pivot_set}
    for row, pc in zip(red, pivots):
        for f, w in row.items():
            if f != pc:
                basis[f][pc] = field.neg(w)
    return list(basis.values()), pivots

