"""Actions of a groupoid algebra on an algebra B, the component
decomposition by the idempotents e.1_B, the derived groupoid action on
those components, and the skew groupoid ring.

Invalid actions are never rejected: every construction stays well defined
bilinearly, and validity findings travel in the returned reports.
"""

from dataclasses import dataclass, field

from .exactmath import Echelon
from .report import Report
from .walg import FinAlgebra, el_apply


class ModuleAction:
    """Left action of a groupoid algebra on B, kept as its nonzero entries:
    rho[m] = {x: m.x} and by_label[x] = {m: m.x}, in basis and declaration
    order; a pair in neither acts as zero.  The table {(m, x): m.x} has no
    zero coefficient, and a pair missing from it acts as zero."""

    def __init__(self, groupoid, algebra, table):
        self.groupoid, self.algebra = groupoid, algebra
        self.rho = {m: {} for m in groupoid.morphism_ids()}
        self.by_label = {x: {} for x in algebra.basis}
        for m, row in self.rho.items():
            for x in algebra.basis:
                if mx := table.get((m, x)):
                    row[x] = self.by_label[x][m] = mx

    def act(self, kg_element: dict, b_element: dict) -> dict:
        """kg_element . b_element; at {m: one} and {x: one}, the stored m.x,
        read-only."""
        F, rho = self.algebra.field, self.rho
        return el_apply(F, {m: el_apply(F, rho[m], b_element) for m in kg_element}, kg_element)

    def image_spans(self):
        """Per morphism, an echelon of span{m.b : b basis}."""
        B = self.algebra
        return {m: Echelon(B.field, map(B.to_vector, row.values())) for m, row in self.rho.items()}


def _neighbours(B: FinAlgebra, u: dict) -> list:
    """The b, in basis order, with bp or pb nonzero for a label p of u;
    bu and ub are zero for every other b."""
    return sorted({b for p in u for side in (B.left, B.right) for b in side.get(p, ())},
                  key=B.index.get)


def _product_pairs(B: FinAlgebra, us: dict, vs: dict) -> set:
    """The (i, j) where a label of us[i] times one of vs[j] is nonzero;
    us[i] vs[j] is zero for every other pair."""
    holders = {}
    for j, v in vs.items():
        for q in v:
            holders.setdefault(q, []).append(j)
    return {(i, j) for i, u in us.items() for p in u
            for q in B.right.get(p, ()) for j in holders.get(q, ())}


def check_module_algebra(B: FinAlgebra, kg: FinAlgebra, action: ModuleAction) -> Report:
    """Exhaustive check of the weak module-algebra conditions on KG as
    groupoid_algebra builds it:
    (i) composing the action matches multiplying in the groupoid algebra
        (so non-composable products must act as zero),
    (ii) every morphism acts multiplicatively through its coproduct legs,
        which for KG is the one leg (m, m),
    (iii) the action on 1_B factors through the target counit, which sends
        y to the sum of the objects e with ey != 0, read off kg.left.
    A tuple is visited only when the nonzero entries let a side be nonzero.
    """
    if B.unit is None:
        raise ValueError("module-algebra check needs a unital B")
    F = B.field
    rho, by_label = action.rho, action.by_label
    rep = Report("weak module-algebra conditions")
    ids = action.groupoid.morphism_ids()
    pos, bpos = {m: i for i, m in enumerate(ids)}, B.index

    # (i): a.(b.x) needs a to act on a label of b.x (composable or not),
    # and (ab).x a label of ab to act on x
    triples = {(a, b, x) for b, row in rho.items() for x, bx in row.items()
               for y in bx for a in by_label[y]}
    triples.update((a, b, x) for a, row in kg.right.items()
                   for b, ab in row.items() for w in ab for x in rho[w])
    for a, b, x in sorted(triples, key=lambda t: (pos[t[0]], pos[t[1]], bpos[t[2]])):
        if (el_apply(F, rho[a], rho[b].get(x, {}))
                != el_apply(F, by_label[x], kg.basis_product(a, b))):
            rep.add("module-axiom-i", [a, b, x],
                    "acting by a then b differs from acting by the product")

    # (ii): m.(xy) needs m to act on a label of xy, and (m.x)(m.y) a label
    # of m.x times one of m.y
    products = [(x, y, xy) for x, row in B.right.items() for y, xy in row.items()]
    for m in ids:
        row = rho[m]
        pairs = {(x, y) for x, y, xy in products if not row.keys().isdisjoint(xy)}
        pairs.update(_product_pairs(B, row, row))
        for x, y in sorted(pairs, key=lambda p: (bpos[p[0]], bpos[p[1]])):
            if (el_apply(F, row, B.basis_product(x, y))
                    != B.multiply(row.get(x, {}), row.get(y, {}))):
                rep.add("module-axiom-ii", [m, x, y],
                        "action is not multiplicative at this pair")

    at_unit = {w: el_apply(F, rho[w], B.unit) for w in ids}
    objects = action.groupoid.objects
    for m in ids:
        eps_t = {e: F.one for e in objects if e in kg.left.get(m, ())}
        if at_unit[m] != el_apply(F, at_unit, eps_t):
            rep.add("module-axiom-iii", m,
                    "action on 1_B does not factor through the target counit")

    rep.info["morphisms"] = len(ids)
    rep.info["b_dim"] = B.dim
    return rep


@dataclass
class ComponentDecomposition:
    idempotents: dict            # object -> element of B
    spans: dict                  # object -> Echelon whose rows span B(e.1_B); never added to
    component_of: dict = field(default_factory=dict)  # B label -> object or None
    homogeneous: bool = True


def component_decomposition(B: FinAlgebra, action: ModuleAction):
    """Idempotents e.1_B per object and the subspaces B(e.1_B).

    Nothing is assumed: idempotency, orthogonality, centrality and the
    direct-sum property are all report items, since user actions may
    violate them.  Only the labels that multiply a label of e.1_B are
    multiplied with it.
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
        for x in _neighbours(B, q):
            if el_apply(F, B.left.get(x, {}), q) != el_apply(F, B.right.get(x, {}), q):
                rep.add("central", [e, x], "e.1_B does not commute with this basis vector")
    for i, e in enumerate(g.objects):
        for f in g.objects[i + 1:]:
            if B.multiply(idem[e], idem[f]) or B.multiply(idem[f], idem[e]):
                rep.add("orthogonal", [e, f], "idempotents for distinct objects overlap")

    spans, total, dim_sum = {}, Echelon(F), 0
    for e in g.objects:
        near = sorted({x for p in idem[e] for x in B.left.get(p, ())}, key=B.index.get)
        ech = spans[e] = Echelon(F, (B.to_vector(el_apply(F, B.right[x], idem[e])) for x in near))
        dim_sum += ech.rank
        for v in ech.rows:
            total.add(v)
    if not (dim_sum == B.dim and total.rank == B.dim):
        rep.add("direct-sum", {"component_dim_sum": dim_sum, "joint_rank": total.rank,
                               "b_dim": B.dim},
                "components do not decompose B as a direct sum")

    component_of, homogeneous = {}, True
    for i, x in enumerate(B.basis):
        homes = [e for e in g.objects if spans[e].contains({i: F.one})]
        if len(homes) == 1:
            component_of[x] = homes[0]
        else:
            component_of[x] = None
            homogeneous = False
            rep.add("homogeneous-basis", x,
                    f"basis vector lies in {len(homes)} components")

    rep.info["component_dims"] = {e: spans[e].rank for e in g.objects}
    return ComponentDecomposition(idem, spans, component_of, homogeneous), rep


@dataclass
class DfapAction:
    """Groupoid action by ideal isomorphisms derived from a module action:
    the ideal at g is the component of src(g), and g itself maps the
    component of tgt(g) onto it."""

    iso_images: dict             # morphism -> images of the E_{inv(g)} basis
    ideal_labels: dict           # morphism -> list of B labels, or None


def derive_dfap_action(B: FinAlgebra, action: ModuleAction, decomp: ComponentDecomposition):
    """E_g := component of src(g); beta_g := (b -> g.b) restricted to the
    component of tgt(g).  Reports whether each beta_g is a ring isomorphism
    onto E_g and whether the two groupoid-action axioms hold.  Products are
    formed only where a label of one factor multiplies one of the other."""
    F, g, rho = B.field, action.groupoid, action.rho
    rep = Report("derived groupoid action")
    rows = {e: dict(enumerate(map(B.from_vector, decomp.spans[e].rows))) for e in g.objects}

    iso_images, ideal_labels = {}, {}
    for m in g.morphism_ids():
        target = decomp.spans[g.src(m)]
        labels = [x for x in B.basis if decomp.component_of.get(x) == g.src(m)]
        ideal_labels[m] = labels if len(labels) == target.rank else None

        domain = rows[g.tgt(m)]
        imgs = {i: el_apply(F, rho[m], v) for i, v in domain.items()}
        images = iso_images[m] = [B.to_vector(img) for img in imgs.values()]
        img_span = Echelon(F, images)

        if img_span.rank != len(domain):
            rep.add("iso-injective", m, "restriction of the action is not injective")
        if not all(target.contains(v) for v in images):
            rep.add("iso-into", m, "image leaves the component of src(g)")
        if img_span.rank != target.rank:
            rep.add("iso-onto", m, "restriction is not onto the component of src(g)")

        # multiplicative on the ideal
        for i, j in sorted(_product_pairs(B, domain, domain) | _product_pairs(B, imgs, imgs)):
            prod = B.multiply(domain[i], domain[j])
            if el_apply(F, rho[m], prod) != B.multiply(imgs[i], imgs[j]):
                rep.add("iso-multiplicative", [m, i, j])

    # ideals: B e_g B stays inside e_g's span
    for e in g.objects:
        span = decomp.spans[e]
        for x in rows[e].values():
            for b in _neighbours(B, x):
                if not span.contains(B.to_vector(el_apply(F, B.right.get(b, {}), x))):
                    rep.add("ideal", [e, b], "component is not a left ideal")
                if not span.contains(B.to_vector(el_apply(F, B.left.get(b, {}), x))):
                    rep.add("ideal", [e, b], "component is not a right ideal")

    # axiom (i): identities act as the identity on their component
    for e in g.objects:
        for x in rows[e].values():
            if el_apply(F, rho[e], x) != x:
                rep.add("axiom-identity", e, "identity morphism does not fix its component")

    # axiom (ii): beta_g beta_h == beta_{gh} on the component of tgt(h); a
    # missing product is the groupoid validator's to report
    for a in g.morphism_ids():
        for b, ab in g.after[a]:
            for x in rows[g.tgt(b)].values():
                if el_apply(F, rho[a], el_apply(F, rho[b], x)) != el_apply(F, rho[ab], x):
                    rep.add("axiom-composition", [a, b], "composing the maps misses beta_{ab}")

    return DfapAction(iso_images, ideal_labels), rep


def skew_groupoid_ring(bsm: FinAlgebra, dfap: DfapAction) -> list:
    """The B#KG positions of the labels (b, g), b in the ideal at g, of the
    twisted ring on symbols b.delta_g: (x delta_g)(y delta_h) = x beta_g(y)
    delta_{gh} when gh exists, else 0.

    Since beta_g(y) = g.y, the ring is B#KG restricted to these labels;
    the restriction must be closed.  Needs a homogeneous B basis so the
    symbols can be labeled by basis vectors; raises otherwise.
    """
    P, B = bsm.meta["positions"], bsm.meta["B"]
    for m in P.ids:
        if dfap.ideal_labels.get(m) is None:
            raise ValueError(
                f"skew ring needs a homogeneous basis for the ideal at {m!r}")

    basis = [P.pos(B.index[b], j) for j, m in enumerate(P.ids) for b in dfap.ideal_labels[m]]
    index = {x: i for i, x in enumerate(basis)}
    for x in basis:
        row = bsm.right.get(x, {})
        for y in sorted((y for y in row if y in index), key=index.get):
            for k in row[y]:
                if k not in index:
                    lab, ab = bsm.label(k)
                    raise ValueError(
                        f"skew product left the ideal at {ab!r} (label {lab!r})")
    return basis
