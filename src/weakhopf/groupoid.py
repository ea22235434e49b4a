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
    def __init__(self, objects, morphisms, comp):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.comp = dict(comp)
        ids = [m.id for m in self.morphisms]
        if len(set(ids)) != len(ids):
            raise GroupoidError("duplicate morphism ids")
        if len(set(self.objects)) != len(self.objects):
            raise GroupoidError("duplicate object ids")
        self._by_id = {m.id: m for m in self.morphisms}
        for e in self.objects:
            if e not in self._by_id:
                raise GroupoidError(f"object {e!r} has no identity morphism record")
        for m in self.morphisms:
            for ref, what in ((m.src, "src"), (m.tgt, "tgt")):
                if ref not in set(self.objects):
                    raise GroupoidError(f"morphism {m.id!r} has dangling {what} {ref!r}")
            if m.inv not in self._by_id:
                raise GroupoidError(f"morphism {m.id!r} has dangling inverse {m.inv!r}")
        for (a, b), c in self.comp.items():
            for ref in (a, b, c):
                if ref not in self._by_id:
                    raise GroupoidError(f"composition entry references unknown id {ref!r}")

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

    def compose(self, a, b):
        """Product per the table; None when tgt(a) != src(b), whatever a
        spurious table entry says (the validator reports those)."""
        if not self.composable(a, b):
            return None
        return self.comp.get((a, b))

    def composable_pairs(self):
        return [(a.id, b.id) for a in self.morphisms for b in self.morphisms
                if a.tgt == b.src]

    def hom(self, e, f):
        """Morphisms with src e and tgt f, in declaration order."""
        return [m.id for m in self.morphisms if m.src == e and m.tgt == f]


def validate_groupoid(g: Groupoid) -> Report:
    """Check the partial-composition axioms; every violation is reported
    with a concrete witness tuple."""
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


# -- builders ----------------------------------------------------------------


def from_group(elements, products) -> Groupoid:
    """One-object groupoid from a group multiplication table.

    products maps (a, b) -> c and must describe a group; anything else
    raises GroupoidError.
    """
    elements = list(elements)
    if not elements:
        raise GroupoidError("empty element list")
    eset = set(elements)
    for a in elements:
        for b in elements:
            c = products.get((a, b))
            if c not in eset:
                raise GroupoidError(f"table not closed at ({a!r}, {b!r})")
    identity = next((e for e in elements if all(
        products[(e, a)] == a and products[(a, e)] == a for a in elements)), None)
    if identity is None:
        raise GroupoidError("table has no identity")
    inverses = {}
    for a in elements:
        for b in elements:
            if products[(a, b)] == identity and products[(b, a)] == identity:
                inverses[a] = b
                break
        else:
            raise GroupoidError(f"element {a!r} has no inverse")
    for a in elements:
        for b in elements:
            for c in elements:
                if products[(products[(a, b)], c)] != products[(a, products[(b, c)])]:
                    raise GroupoidError(f"table not associative at ({a!r}, {b!r}, {c!r})")

    ordered = [identity] + [x for x in elements if x != identity]
    morphs = [Morphism(x, identity, identity, inverses[x]) for x in ordered]
    return Groupoid([identity], morphs, dict(products))


def pair_groupoid(n: int) -> Groupoid:
    """Objects 1..n with exactly one morphism between any two of them."""
    if n < 1:
        raise GroupoidError("pair groupoid needs at least one object")
    objects = [f"o{i}" for i in range(1, n + 1)]

    def mid(i, j):
        return f"o{i}" if i == j else f"m{i}_{j}"

    morphs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            morphs.append(Morphism(mid(i, j), f"o{i}", f"o{j}", mid(j, i)))
    comp = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                comp[(mid(i, j), mid(j, k))] = mid(i, k)
    return Groupoid(objects, morphs, comp)


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Side-by-side union; nothing composes across the two pieces."""
    def tag(prefix, x):
        return f"{prefix}.{x}"

    objects = [tag("l", e) for e in g1.objects] + [tag("r", e) for e in g2.objects]
    morphs = [Morphism(tag("l", m.id), tag("l", m.src), tag("l", m.tgt), tag("l", m.inv))
              for m in g1.morphisms]
    morphs += [Morphism(tag("r", m.id), tag("r", m.src), tag("r", m.tgt), tag("r", m.inv))
               for m in g2.morphisms]
    comp = {(tag("l", a), tag("l", b)): tag("l", c) for (a, b), c in g1.comp.items()}
    comp.update({(tag("r", a), tag("r", b)): tag("r", c) for (a, b), c in g2.comp.items()})
    return Groupoid(objects, morphs, comp)


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
