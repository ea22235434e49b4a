"""Finite groupoids with explicit composition tables.

Orientation convention used by the whole package: a product a*b exists iff
tgt(a) == src(b); then src(a*b) == src(a) and tgt(a*b) == tgt(b); the
identity at src(a) is a left unit, the identity at tgt(a) a right unit,
and a * inv(a) is the identity at src(a).  Identity morphisms share their
id with the object they sit at.
"""

from dataclasses import dataclass

from .report import Report


class GroupoidError(ValueError):
    """Structurally broken input: dangling ids, duplicates, missing identities."""


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    tgt: str
    inv: str


class Groupoid:
    """Objects, morphism records and the composition table, with the
    composition index every construction reads: leaving[e], the ids with
    src e, and after[a], the defined products [(b, a*b)] (tgt(a) == src(b)
    and the table has the entry), both in declaration order.  Records,
    table and index are never mutated after construction, and the index
    relies on it; only valid is set later, by validate_groupoid."""

    def __init__(self, objects, morphisms, comp):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.comp = dict(comp)
        ids = [m.id for m in self.morphisms]
        if len(set(ids)) != len(ids):
            raise GroupoidError("duplicate morphism ids")
        objs = set(self.objects)
        if len(objs) != len(self.objects):
            raise GroupoidError("duplicate object ids")
        self._by_id = {m.id: m for m in self.morphisms}
        for e in self.objects:
            if e not in self._by_id:
                raise GroupoidError(f"object {e!r} has no identity morphism record")
        for m in self.morphisms:
            for ref, what in ((m.src, "src"), (m.tgt, "tgt")):
                if ref not in objs:
                    raise GroupoidError(f"morphism {m.id!r} has dangling {what} {ref!r}")
            if m.inv not in self._by_id:
                raise GroupoidError(f"morphism {m.id!r} has dangling inverse {m.inv!r}")
        for (a, b), c in self.comp.items():
            for ref in (a, b, c):
                if ref not in self._by_id:
                    raise GroupoidError(f"composition entry references unknown id {ref!r}")
        self.leaving = {e: [] for e in self.objects}
        for m in self.morphisms:
            self.leaving[m.src].append(m.id)
        self.after = {m.id: [(b, ab) for b in self.leaving[m.tgt]
                             if (ab := self.comp.get((m.id, b))) is not None]
                      for m in self.morphisms}
        self.valid = None  # validate_groupoid's verdict, once it has run

    # -- basic accessors ----------------------------------------------------

    def morphism_ids(self):
        return [m.id for m in self.morphisms]

    def src(self, mid):
        return self._lookup(mid).src

    def tgt(self, mid):
        return self._lookup(mid).tgt

    def inv(self, mid):
        return self._lookup(mid).inv

    def _lookup(self, mid):
        try:
            return self._by_id[mid]
        except KeyError:
            raise GroupoidError(f"unknown morphism id {mid!r}") from None

    # -- composition --------------------------------------------------------

    def composable(self, a, b) -> bool:
        return self.tgt(a) == self.src(b)

    def hom(self, e, f):
        """Morphisms with src e and tgt f, in declaration order."""
        return [m for m in self.leaving.get(e, ()) if self.tgt(m) == f]


def validate_groupoid(g: Groupoid) -> Report:
    """Check the partial-composition axioms; every violation is reported
    with a concrete witness tuple.  Composable pairs and triples are walked
    through the groupoid's composition index."""
    rep = Report("groupoid axioms")
    ids = g.morphism_ids()
    pos = {a: i for i, a in enumerate(ids)}
    src, tgt, inv = ({m.id: getattr(m, k) for m in g.morphisms} for k in ("src", "tgt", "inv"))
    entries = {}  # a -> the b with a table entry (a, b)
    for a, b in g.comp:
        entries.setdefault(a, []).append(b)

    # table defined exactly on the composable pairs, as it is for a when
    # after[a] holds an entry for each b leaving tgt(a) and no other entry
    for a in ids:
        if len(g.after[a]) == len(g.leaving[tgt[a]]) == len(entries.get(a, ())):
            continue
        for b in sorted({*g.leaving[tgt[a]], *entries.get(a, ())}, key=pos.get):
            defined, composable = (a, b) in g.comp, tgt[a] == src[b]
            if composable and not defined:
                rep.add("composition-missing", [a, b],
                        "tgt(a) == src(b) but the table has no entry")
            if defined and not composable:
                rep.add("composition-spurious", [a, b],
                        "table entry for a non-composable pair")

    # src/tgt bookkeeping of products
    for (a, b), c in (table := sorted(g.comp.items())):
        if tgt[a] == src[b] and (src[c] != src[a] or tgt[c] != tgt[b]):
            rep.add("product-endpoints", [a, b, c],
                    "src/tgt of the product do not match the factors")

    # associativity on all composable triples with both products in the table
    for a in ids:
        for b, ab in g.after[a]:
            for c, bc in g.after[b]:
                left = g.comp.get((ab, c))
                right = g.comp.get((a, bc))
                if left != right or left is None:
                    rep.add("associativity", [a, b, c],
                            f"(a*b)*c = {left!r}, a*(b*c) = {right!r}")

    # identity laws
    for a in ids:
        if g.comp.get((a, tgt[a])) != a:
            rep.add("right-identity", a, "a * id_tgt(a) != a")
        if g.comp.get((src[a], a)) != a:
            rep.add("left-identity", a, "id_src(a) * a != a")
    for e in g.objects:
        if not src[e] == tgt[e] == inv[e] == e:
            rep.add("identity-record", e, "identity morphism must be a self-loop")

    # inverses
    for a in ids:
        ai = inv[a]
        if inv[ai] != a:
            rep.add("inverse-involution", a, "inv(inv(a)) != a")
        if src[ai] != tgt[a] or tgt[ai] != src[a]:
            rep.add("inverse-endpoints", a, "inv(a) must run backwards")
        if g.comp.get((a, ai)) != src[a]:
            rep.add("inverse-right", a, "a * inv(a) must be the identity at src(a)")
        if g.comp.get((ai, a)) != tgt[a]:
            rep.add("inverse-left", a, "inv(a) * a must be the identity at tgt(a)")

    # (a*b)^-1 == inv(b) * inv(a)
    for (a, b), c in table:
        if tgt[a] == src[b]:
            expected = g.comp.get((inv[b], inv[a]))
            if expected != inv[c]:
                rep.add("inverse-antihomomorphism", [a, b],
                        "inv(a*b) != inv(b)*inv(a)")

    rep.info["objects"] = len(g.objects)
    rep.info["morphisms"] = len(g.morphisms)
    g.valid = rep.ok
    return rep


# -- builders ----------------------------------------------------------------


def from_group(elements, products) -> Groupoid:
    """One-object groupoid from a group multiplication table.

    products maps (a, b) -> c and must describe a group; anything else
    raises GroupoidError: a product outside the elements from the
    constructor, any other fault with the first finding of
    validate_groupoid.
    """
    elements = list(elements)
    if not elements:
        raise GroupoidError("empty element list")
    identity = next((e for e in elements if all(
        products.get((e, a)) == a and products.get((a, e)) == a for a in elements)), None)
    if identity is None:
        raise GroupoidError("table has no identity")
    # an element with no inverse keeps itself as the inverse on its record,
    # for validate_groupoid to report
    inverses = {a: next((b for b in elements
                         if products.get((a, b)) == identity == products.get((b, a))), a)
                for a in elements}

    ordered = [identity] + [x for x in elements if x != identity]
    morphs = [Morphism(x, identity, identity, inverses[x]) for x in ordered]
    g = Groupoid([identity], morphs, products)
    findings = validate_groupoid(g).findings
    if findings:
        first = findings[0]
        raise GroupoidError(f"table is not a group: {first.check} at {first.witness!r}")
    return g


def builtin_i2() -> Groupoid:
    """Two objects x, y joined by a single invertible morphism g."""
    morphs = [
        Morphism("x", "x", "x", "x"),
        Morphism("y", "y", "y", "y"),
        Morphism("g", "x", "y", "gi"),
        Morphism("gi", "y", "x", "g"),
    ]
    comp = {
        ("x", "x"): "x", ("x", "g"): "g",
        ("y", "y"): "y", ("y", "gi"): "gi",
        ("g", "y"): "g", ("g", "gi"): "x",
        ("gi", "x"): "gi", ("gi", "g"): "y",
    }
    return Groupoid(["x", "y"], morphs, comp)


def cyclic_group(n: int) -> Groupoid:
    """Z/n as a one-object groupoid with elements e, a1, ..., a(n-1)."""
    if n < 1:
        raise GroupoidError("cyclic group order must be positive")
    names = ["e"] + [f"a{i}" if n > 2 else "a" for i in range(1, n)]
    products = {}
    for i in range(n):
        for j in range(n):
            products[(names[i], names[j])] = names[(i + j) % n]
    return from_group(names, products)
