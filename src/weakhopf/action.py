"""Actions of a groupoid algebra on an algebra B, the component
decomposition by the idempotents e.1_B, the derived groupoid action on
those components, and the skew groupoid ring.

Invalid actions are never rejected: every construction stays well defined
bilinearly, and validity findings travel in the returned reports.
"""

from dataclasses import dataclass, field

from .exactmath import Echelon
from .report import Report
from .walg import FinAlgebra, el_addto, el_norm, target_counit


class ModuleAction:
    """Table of a left action: (morphism id, B basis label) -> element of B.

    The table is total over the declared pairs; constructors fill missing
    pairs with zero before building one of these.
    """

    def __init__(self, groupoid, algebra, table):
        self.groupoid = groupoid
        self.algebra = algebra
        self.table = {}
        for m in groupoid.morphism_ids():
            for b in algebra.basis:
                if (m, b) not in table:
                    raise ValueError(f"action table missing entry for ({m!r}, {b!r})")
                self.table[(m, b)] = el_norm(algebra.field, table[(m, b)])

    def act_basis(self, m, b) -> dict:
        return self.table[(m, b)]

    def act(self, kg_element: dict, b_element: dict) -> dict:
        F = self.algebra.field
        out = {}
        for m, cm in kg_element.items():
            for b, cb in b_element.items():
                el_addto(F, out, F.mul(cm, cb), self.table[(m, b)])
        return out

    def image_spans(self):
        """Per morphism, an echelon of span{m.b : b basis}."""
        B = self.algebra
        spans = {}
        for m in self.groupoid.morphism_ids():
            ech = Echelon(B.field)
            for b in B.basis:
                ech.add(B.to_vector(self.table[(m, b)]))
            spans[m] = ech
        return spans


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
                left = action.act({a: F.one}, action.act_basis(b, x))
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
                    term = B.multiply(action.act_basis(m1, x), action.act_basis(m2, y))
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


@dataclass
class ComponentDecomposition:
    idempotents: dict            # object -> element of B
    components: dict             # object -> list of vectors spanning B(e.1_B)
    component_of: dict = field(default_factory=dict)  # B label -> object or None
    homogeneous: bool = True


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

    components, spans = {}, {}
    total = Echelon(F)
    dim_sum = 0
    for e in g.objects:
        ech = spans[e] = Echelon(F)
        for x in B.basis:
            ech.add(B.to_vector(B.multiply(B.basis_element(x), idem[e])))
        components[e] = list(ech.rows)
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

    rep.info["component_dims"] = {e: len(components[e]) for e in g.objects}
    return ComponentDecomposition(idem, components, component_of, homogeneous), rep


@dataclass
class DfapAction:
    """Groupoid action by ideal isomorphisms derived from a module action:
    the ideal at g is the component of src(g), and g itself maps the
    component of tgt(g) onto it."""

    ideal_bases: dict            # morphism -> list of vectors spanning E_g
    iso_images: dict             # morphism -> images of the E_{inv(g)} basis
    ideal_labels: dict           # morphism -> list of B labels, or None


def derive_dfap_action(B: FinAlgebra, kg: FinAlgebra, action: ModuleAction,
                       decomp: ComponentDecomposition):
    """E_g := component of src(g); beta_g := (b -> g.b) restricted to the
    component of tgt(g).  Reports whether each beta_g is a ring isomorphism
    onto E_g and whether the two groupoid-action axioms hold."""
    F = B.field
    g = action.groupoid
    rep = Report("derived groupoid action")

    comp_span = {e: Echelon(F) for e in decomp.components}
    for e, vs in decomp.components.items():
        for v in vs:
            comp_span[e].add(v)

    ideal_bases, iso_images, ideal_labels = {}, {}, {}
    for m in g.morphism_ids():
        e_g = decomp.components[g.src(m)]
        ideal_bases[m] = [dict(v) for v in e_g]
        labels = [x for x in B.basis if decomp.component_of.get(x) == g.src(m)]
        ideal_labels[m] = labels if len(labels) == len(e_g) else None

        domain = decomp.components[g.tgt(m)]
        images = []
        img_span = Echelon(F)
        for v in domain:
            img = action.act({m: F.one}, B.from_vector(v))
            images.append(B.to_vector(img))
            img_span.add(B.to_vector(img))
        iso_images[m] = images

        target = comp_span[g.src(m)]
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
        span = comp_span[e]
        for v in decomp.components[e]:
            x = B.from_vector(v)
            for b in B.basis:
                eb = B.basis_element(b)
                if not span.contains(B.to_vector(B.multiply(eb, x))):
                    rep.add("ideal", [e, b], "component is not a left ideal")
                if not span.contains(B.to_vector(B.multiply(x, eb))):
                    rep.add("ideal", [e, b], "component is not a right ideal")

    # axiom (i): identities act as the identity on their component
    for e in g.objects:
        for v in decomp.components[e]:
            if action.act({e: F.one}, B.from_vector(v)) != B.from_vector(v):
                rep.add("axiom-identity", e, "identity morphism does not fix its component")

    # axiom (ii): beta_g beta_h == beta_{gh} on the component of tgt(h)
    for a, b in g.composable_pairs():
        ab = g.comp.get((a, b))
        if ab is None:  # reported by the groupoid validator
            continue
        for v in decomp.components[g.tgt(b)]:
            x = B.from_vector(v)
            lhs = action.act({a: F.one}, action.act({b: F.one}, x))
            rhs = action.act({ab: F.one}, x)
            if lhs != rhs:
                rep.add("axiom-composition", [a, b], "composing the maps misses beta_{ab}")

    return DfapAction(ideal_bases, iso_images, ideal_labels), rep


def skew_groupoid_ring(bsm: FinAlgebra, dfap: DfapAction) -> FinAlgebra:
    """The twisted ring on symbols b.delta_g with b in the ideal at g:
    (x delta_g)(y delta_h) = x beta_g(y) delta_{gh} when gh exists, else 0.

    Since beta_g(y) = g.y, this is B#KG restricted to the labels (b, g)
    with b in the ideal at g; the restriction must be closed.  Needs a
    homogeneous B basis so the symbols can be labeled by basis vectors;
    raises otherwise.
    """
    g = bsm.meta["groupoid"]
    for m in g.morphism_ids():
        if dfap.ideal_labels.get(m) is None:
            raise ValueError(
                f"skew ring needs a homogeneous basis for the ideal at {m!r}")

    basis = [(b, m) for m in g.morphism_ids() for b in dfap.ideal_labels[m]]
    index = {lab: i for i, lab in enumerate(basis)}
    right, _ = bsm.nonzero_products
    mul = {}
    for x in basis:
        row = right.get(x, {})
        for y in sorted((y for y in row if y in index), key=index.get):
            for lab, ab in row[y]:
                if (lab, ab) not in index:
                    raise ValueError(
                        f"skew product left the ideal at {ab!r} (label {lab!r})")
            mul[(x, y)] = row[y]

    # no unit asserted; callers can search for one if they care
    return FinAlgebra(bsm.field, basis, mul, None, name="B*G",
                      meta={"B": bsm.meta["B"], "action": bsm.meta["action"]})
