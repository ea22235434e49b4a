"""The duality map phi from the double smash product into endomorphisms of
B#KG, the A1..A10 stratification of the double-smash basis, the candidate
identity elements, and one verifier per structural claim.  The skew-ring
comparison map psi sends b delta_g # r_h to the basis label b#u_g#r_h.

Claim ids: thm2.2 (kernel stratification), prop2.3 (the unital corner is
closed), prop2.4 (its identity element), prop2.5 (annihilation), thm2.6
(direct-sum decomposition), rem2.7 (exactness bookkeeping), thm2.9 (skew
ring comparison).

The claims are decided on labels, supports and ranks, never by comparing
spans, on basis positions as smash.Positions lays them out (split(q) of
a double-smash position q is the B#KG position of (b, g) and the index of
h); a witness or printed element names its label.
phi is its table of nonzero columns, evaluated by LinearMapRep.apply and
walg.el_apply; at {k: one} both return the stored image, read-only.  A
label without a column is sent to zero and is its own kernel vector; only
the other columns are eliminated.  The double smash is a view that
stores no product: the closure tests, and on a valid groupoid prop2.4's
identity test, work per product of B#KG.  Unless B#KG's associativity
settles them, phi's two checks and the kernel-ideal test visit only the
pairs that phi's nonzero columns or double-smash products reach.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .exactmath import null_space
from .report import WITNESS_CAP, Report
from .walg import acc, el_addto, el_apply, el_sum

STRATA = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10")
UNCLASSIFIED = "unclassified"

KERNEL_STRATA = ("A3", "A4", "A5", "A6")
IMAGE_STRATA = ("A1", "A2", "A7", "A8", "A9", "A10")
UNITAL_STRATA = ("A1", "A7", "A10")
COMPLEMENT_STRATA = ("A2", "A8", "A9")

CLASSIFIER_RULES = [
    "A3: the pair (g, h) is not composable",
    "A1: composable; src(g) == tgt(g); component == tgt(g); vector lies in the image of g",
    "A7: composable; src(g) != tgt(g); component == src(g); vector lies in the image of g; hom(tgt(g), component) nonempty",
    "A10: as A7 but hom(tgt(g), component) empty (vacuous on valid groupoids: inv(g) always qualifies)",
    "A4: composable; vector outside the image of g; component != src(g); hom(tgt(g), component) empty",
    "A5: composable; vector outside the image of g; component == src(g); hom(tgt(g), component) empty; src(g) != tgt(g) (vacuous, see A10)",
    "A6: composable; vector outside the image of g; component != src(g); hom(tgt(g), component) nonempty",
    "A8: composable; vector outside the image of g; component == src(g) != tgt(g); hom(tgt(g), component) nonempty",
    "A2, A9: never assigned (their defining conjunctions are absorbed by A7 and A5)",
    "unclassified: inhomogeneous vector, or no rule matches",
]


def classify(groupoid, component, g, h, in_image):
    """Stratum of a homogeneous basis triple.

    component is the object whose piece of B carries the vector (None when
    the vector is not homogeneous); in_image says whether the vector lies
    in span{g.b : b basis}.
    """
    if component is None:
        return UNCLASSIFIED
    if not groupoid.composable(g, h):
        return "A3"
    loop = groupoid.src(g) == groupoid.tgt(g)
    in_bg = component == groupoid.tgt(g)
    ex_l = component == groupoid.src(g)
    reach = bool(groupoid.hom(groupoid.tgt(g), component))
    if in_image:
        if loop and in_bg:
            return "A1"
        if not loop and ex_l:
            return "A7" if reach else "A10"
        return UNCLASSIFIED
    if not ex_l and not reach:
        return "A4"
    if ex_l and not reach and not loop:
        return "A5"
    if not ex_l and reach:
        return "A6"
    if ex_l and reach and not loop and not in_bg:
        return "A8"
    return UNCLASSIFIED


def classify_basis(dsm, groupoid, decomp, action):
    """({stratum: its double-smash positions in order} over STRATA and
    UNCLASSIFIED, [(tgt g, {tgt g == src h: stratum of (b, g, h)}) per B#KG
    position of (b, g)]).  A stratum depends on (b, g, h) only through the
    class (component of b, src g, tgt g, tgt g == src h, b in the image of
    g): the image is tested once per (b, g), and classify runs once per
    class, on its first (g, h).  Positions run over b, then g, then h."""
    B, spans, ids = action.algebra, action.image_spans(), groupoid.morphism_ids()
    ends = [(m.src, m.tgt) for m in groupoid.morphisms]
    after = {t: [s == t for s, _ in ends] for t in groupoid.objects}
    reps = {t: {c: ids[kinds.index(c)] for c in set(kinds)} for t, kinds in after.items()}
    strata = {s: [] for s in (*STRATA, UNCLASSIFIED)}
    seen, by_pair, P = {}, [], dsm.meta["positions"]  # class but h -> {kind of h: stratum}
    for b in B.basis:
        comp, vec = decomp.component_of.get(b), B.to_vector(B.basis_element(b))
        for g, (s, t) in zip(ids, ends):
            inside = spans[g].contains(vec)
            if (key := (comp, s, t, inside)) not in seen:
                seen[key] = {c: classify(groupoid, comp, g, h, inside) for c, h in reps[t].items()}
            names = seen[key]
            for q, composable in enumerate(after[t], P.pos(len(by_pair), 0)):
                strata[names[composable]].append(q)
            by_pair.append((t, names))
    return strata, by_pair


# -- the map phi ---------------------------------------------------------------


@dataclass
class LinearMapRep:
    """A linear map into endomorphisms of B#KG, stored per domain basis
    element as a column map: codomain basis label -> image element, with
    no empty image.  A label with no column, or an empty one, is sent to
    zero.  The column table is the map and never changes, so flat and the
    eliminations of null_space are kept.  build_phi's labels are basis
    positions, and flat and null_space need codomain labels that are:
    the codomain basis must be 0, 1, ..., n - 1."""

    field: object
    domain_basis: list
    codomain_basis: list
    columns: dict           # domain label -> {codomain label: element dict}
    bsm: object = None      # the B#KG build_phi read the columns off; None on any other map

    @cached_property
    def flat(self):
        """Each nonempty column as one vector, its entry at (row, column)
        keyed by the int row * n + column, n the codomain dimension."""
        n = len(self.codomain_basis)
        if any(i != c for i, c in enumerate(self.codomain_basis)):
            raise ValueError("flat needs codomain labels that are positions 0..n-1")
        return {lab: {row * n + col: w for col, img in endo.items() for row, w in img.items()}
                for lab, endo in self.columns.items() if endo}

    @cached_property
    def eliminations(self):
        """{the labels of a sequence of nonzero columns: its null_space}."""
        return {}

    def apply(self, element: dict) -> dict:
        """Endomorphism attached to a domain element (weighted sum); at
        {k: one}, the stored column of k itself, read-only."""
        F = self.field
        if len(element) == 1:
            (k, c), = element.items()
            if c == F.one:
                return self.columns.get(k, {})
        out = {}
        for lab, c in element.items():
            for col, img in self.columns.get(lab, {}).items():
                el_addto(F, out.setdefault(col, {}), c, img)
        return {col: img for col, img in out.items() if img}

    def null_space(self, labels):
        """exactmath.null_space of the flat columns of labels, with the zero
        columns left out of the elimination and each distinct sequence of
        nonzero columns eliminated once: (the positions in labels of the
        zero columns, each free with a unit kernel vector; (free position,
        kernel vector) for the other kernel vectors, over positions in
        labels; pivot positions)."""
        flat, zero, nonzero = self.flat, [], []
        for j, lab in enumerate(labels):
            (nonzero if lab in flat else zero).append(j)
        memo = self.eliminations
        if (key := tuple(labels[j] for j in nonzero)) not in memo:
            memo[key] = null_space(self.field, [flat[lab] for lab in key])
        kernel, pivots = memo[key]
        pivot_set = set(pivots)
        free = [j for i, j in enumerate(nonzero) if i not in pivot_set]
        eliminated = [(f, {nonzero[i]: w for i, w in v.items()}) for f, v in zip(free, kernel)]
        return zero, eliminated, [nonzero[i] for i in pivots]


def build_phi(dsm, bsm) -> LinearMapRep:
    """phi(a#u_g#r_h) sends b#u_l to (a#u_g)(b#u_l) when l == h, else 0:
    its column pos(x, h) is row x of B#KG, x the position of (a, g), at the
    (b, h).  One pass over the nonzero products of B#KG files each under
    its l, so a label that no product reaches gets no column."""
    for key in ("B", "kg", "action"):
        if dsm.meta.get(key) is not bsm.meta.get(key):
            raise ValueError("smash products come from different parents")
    columns, P = {}, bsm.meta["positions"]
    for x, row in bsm.right.items():
        for y, img in row.items():
            columns.setdefault(P.pos(x, P.split(y)[1]), {})[y] = img
    return LinearMapRep(dsm.field, dsm.basis, bsm.basis, columns, bsm)


def phi_is_homomorphism(phi: LinearMapRep, dsm, validated=False) -> Report:
    """phi(xy) == phi(x) phi(y) over all domain basis pairs.  At x =
    a#u_m#r_n, y = b#u_s#r_t and c#u_l the sides are [l = t][st = n] times
    ((a#u_m)(b#u_s))(c#u_t) and (a#u_m)((b#u_s)(c#u_t)), as xy = [st = n]
    (a#u_m)(b#u_s) # r_t and (b#u_s)(c#u_t) carries u_st; hence the report
    is empty if validated, phi.bsm is dsm's B#KG and it is associative.  Else
    only the x with a nonzero column or product, and for each the y with
    xy != 0 or whose phi(y) reaches a column of phi(x), are visited (other
    pairs give 0 = 0); if phi(x) = 0 only phi(xy) = 0 is tested."""
    F, right = phi.field, dsm.right
    rep = Report("phi is multiplicative")
    if multiplicative_by_associativity(phi, dsm, validated):
        return rep
    reaching = {}  # codomain label -> the y whose phi(y) has it in an image
    for y, endo in phi.columns.items():
        for img in endo.values():
            for mid in img:
                reaching.setdefault(mid, set()).add(y)
    for x in sorted(right.keys() | {x for x, endo in phi.columns.items() if endo}):
        ex, row = phi.columns.get(x, {}), right.get(x, {})
        ys = set(row).union(*(reaching.get(mid, ()) for mid in ex))
        bad = []
        for y in ys:
            rhs = {}
            if ex:
                for col, img in phi.columns.get(y, {}).items():
                    if v := el_apply(F, ex, img):
                        rhs[col] = v
            if phi.apply(row.get(y, {})) != rhs:
                bad.append(y)
        for y in sorted(bad):
            rep.add("phi-multiplicative", [list(dsm.label(x)), list(dsm.label(y))])
    return rep


def multiplicative_by_associativity(phi: LinearMapRep, dsm, validated) -> bool:
    """Whether phi_is_homomorphism's reading makes phi multiplicative
    without a walk: validated, phi read off dsm's B#KG, and it associative."""
    return bool(validated and (bsm := phi.bsm) and bsm is dsm.meta.get("bsm")
                and bsm.associative)


def right_linearity(phi: LinearMapRep, bsm, B, validated=False) -> Report:
    """Whether each phi(x) commutes with right multiplication by b # (sum
    of identity legs).  On a valid groupoid z = c#u_s times b#u_e is zero
    unless e = tgt(s), and then carries u_s, so at x = a#u_m#r_n the sides
    are [s = n] times ((a#u_m) z)(b # sum) and (a#u_m)(z (b # sum)); hence
    the report is empty if validated, phi.bsm is bsm, B its B and bsm associative.
    Else zbs[i] = {z: z (b # sum)}, b = B.basis[i], is summed off bsm.right's
    entries (b, e), e an object, and for each nonzero phi(x) the z that are
    a column of phi(x), or have a term that is, are visited in basis order
    against every b."""
    F, P = phi.field, bsm.meta["positions"]
    objects = set(bsm.meta["groupoid"].objects)
    rep = Report("image endomorphisms are right B-linear")
    if validated and phi.bsm is bsm and B is bsm.meta["B"] and bsm.associative:
        return rep
    zbs, through = [{} for _ in B.basis], {}  # label -> the z whose z (b # sum) has it
    for z, row in bsm.right.items():
        for y, prod in row.items():
            ib, e = P.split(y)
            if P.ids[e] in objects:
                zb = (table := zbs[ib]).get(z)
                table[z] = prod if zb is None else el_sum(F, [(F.one, zb), (F.one, prod)])
                for lab in prod:
                    through.setdefault(lab, set()).add(z)
    for x in filter(phi.columns.get, phi.domain_basis):  # phi(x) = 0 has both sides zero
        endo = phi.columns[x]
        for z in sorted(set(endo).union(*(through.get(lab, ()) for lab in endo))):
            for b, table in zip(B.basis, zbs):
                if el_apply(F, endo, table.get(z, {})) != el_apply(F, table, endo.get(z, {})):
                    xb, h = P.split(x)
                    rep.add("right-linearity", [[*bsm.label(xb), P.ids[h]], list(bsm.label(z)), b])
    return rep


@dataclass
class KernelImage:
    """ker phi: a unit vector per label of zero and the vectors of
    eliminated.  Its readers visit both in the domain order of their free
    column, a zero label being its own."""

    zero: list        # the domain labels phi sends to zero, in basis order
    eliminated: list  # (free position, kernel vector over domain positions)
    dims: dict


def kernel_and_image(phi: LinearMapRep) -> KernelImage:
    """One elimination over the nonzero columns: the kernel basis, and
    the dimensions of the domain, the kernel and the image."""
    zero, eliminated, pivots = phi.null_space(phi.domain_basis)
    basis = phi.domain_basis
    dims = {"domain": len(basis), "kernel": len(zero) + len(eliminated), "image": len(pivots)}
    return KernelImage([basis[j] for j in zero], eliminated, dims)


# -- identity candidates --------------------------------------------------------


def identity_candidates(B, action, groupoid, P):
    """Two candidates for an identity of the unital corner.

    The all-morphism sum follows the literal formula (one term per
    morphism l, carried by u at tgt(l)); the object sum dedups it to one
    term per object.  In the one-object case the first is |G| times the
    second, which is why both are kept and tested.  Both are elements of
    the double smash, keyed by its positions P.
    """
    F, pos, mid = B.field, P.pos, P.index

    def add(out, img, e):  # out += img # u_e # (the sum of the r_n leaving e)
        for n in groupoid.leaving[e]:
            for lab, c in img.items():
                acc(F, out, pos(pos(B.index[lab], mid[e]), mid[n]), c)
    y_morph, y_obj = {}, {}
    for l in P.ids:
        add(y_morph, action.act({l: F.one}, B.unit), groupoid.tgt(l))
    for e in groupoid.objects:
        add(y_obj, action.act({e: F.one}, B.unit), e)
    return y_morph, y_obj


# -- claim verification -----------------------------------------------------------


@dataclass
class ClaimResult:
    claim: str
    holds: bool
    conditional: bool
    dimensions: dict
    witnesses: list
    notes: list

    def to_json(self):
        return {
            "claim": self.claim,
            "holds": self.holds,
            "conditional": self.conditional,
            "dimensions": self.dimensions,
            "witnesses": self.witnesses[:WITNESS_CAP],
            "witness_count": len(self.witnesses),
            "notes": self.notes,
        }


def label_str(lab):
    """lab as printed; a bare int is a position not turned into its label."""
    if isinstance(lab, int):
        raise TypeError(f"position {lab} printed without its label")
    if isinstance(lab, tuple):
        if len(lab) == 3:
            return f"{lab[0]}#u_{lab[1]}#r_{lab[2]}"
        if len(lab) == 2:
            return f"{lab[0]}#u_{lab[1]}"
    return str(lab)


def element_str(field, element: dict, label=lambda k: k) -> str:
    """element by terms sorted as printed, label(k) being the label of key k."""
    if not element:
        return "0"
    parts = []
    for lab, c in sorted(((label_str(label(k)), c) for k, c in element.items()),
                         key=lambda t: t[0]):
        parts.append(f"{field.show(c)}*{lab}" if c != field.one else lab)
    return " + ".join(parts)


def closure_witnesses(dsm, by_pair, names):
    """Products of two basis labels of the named strata that leave their
    span, in basis order.  pos(p, h) is in it iff classify_basis's
    by_pair[p] names one at src(h) == tgt(g), g the morphism of p.  Each
    product xy of B#KG is read once: pos(x, st) pos(y, t) = xy # r_t for
    the (t, st) in after[s], s the morphism of y, all with src(t) == tgt(s),
    so x is tested once per src(st).  Only an escaping xy is expanded."""
    bsm, names, M = dsm.meta["bsm"], set(names), dsm.meta["positions"].M
    ends = [(m.src, m.tgt) for m in dsm.meta["groupoid"].morphisms]

    def inside(p, o):  # whether pos(p, h) is in the span when src(h) == o;
        t, strata = by_pair[p]  # no stratum when no h has src(h) == o
        return strata.get(o == t) in names
    by_src = [{} for _ in ends]  # [s]: {src(st): [(t, st)]}
    for pairs, out in zip(dsm.meta["after"], by_src):
        for t, n in pairs:
            out.setdefault(ends[n][0], []).append((t, n))
    found = []
    for x, row in bsm.right.items() if names else ():
        for y, prod in row.items():
            o = ends[y % M][1]
            if inside(y, o) and (bad := [k for k in prod if not inside(k, o)]):
                found += [(x * M + n, y * M + t, bad, t) for src, pairs in by_src[y % M].items()
                          if inside(x, src) for t, n in pairs]
    name = dsm.label
    return [{"product_escapes": [label_str(name(p)), label_str(name(q))],
             "offending": [label_str(name(k * M + t)) for k in bad]}
            for p, q, bad, t in sorted(found)]


CLAIM_IDS = ("thm2.2", "prop2.3", "prop2.4", "prop2.5", "thm2.6", "rem2.7", "thm2.9")


class VerificationContext:
    """Everything the claim verifiers need, built once per instance."""

    def __init__(self, instance):
        from . import action as action_mod
        from . import walg as walg_mod
        from .groupoid import validate_groupoid

        self.instance = instance
        self.field = instance.field
        self.groupoid = instance.groupoid
        self.B = instance.algebra
        self.action = instance.action

        self.groupoid_report = validate_groupoid(self.groupoid)
        self.b_report = Report("algebra B axioms")
        for w in self.B.associativity_violations():
            self.b_report.add("b-associativity", list(w))
        for w in self.B.unit_violations():
            self.b_report.add("b-unit", list(w))

        self.kg, self.kg_rec = walg_mod.groupoid_algebra(self.field, self.groupoid)
        self.kgstar, self.kgstar_rec = walg_mod.dual_weak_hopf(self.kg, self.kg_rec)

        self.module_report = action_mod.check_module_algebra(self.B, self.kg, self.action)
        self.decomp, self.decomp_report = action_mod.component_decomposition(
            self.B, self.action)
        self._closures = {}  # nonempty strata -> closure witnesses

    # -- lazily derived pieces ------------------------------------------------

    @cached_property
    def bsm(self):
        from .smash import smash_product
        return smash_product(self.B, self.kg, self.action)

    @cached_property
    def dsm(self):
        from .smash import double_smash
        return double_smash(self.bsm)

    @cached_property
    def phi(self):
        return build_phi(self.dsm, self.bsm)

    @cached_property
    def classes(self):
        return classify_basis(self.dsm, self.groupoid, self.decomp, self.action)

    @property
    def strata(self):
        """{stratum: its double-smash labels in basis order}."""
        return self.classes[0]

    @property
    def strata_dims(self):
        return {s: len(labels) for s, labels in self.strata.items()}

    @cached_property
    def ki(self):
        return kernel_and_image(self.phi)

    @cached_property
    def _identity_candidates(self):
        return identity_candidates(self.B, self.action, self.groupoid,
                                   self.bsm.meta["positions"])

    @property
    def y_morph(self):
        return self._identity_candidates[0]

    @property
    def y_obj(self):
        return self._identity_candidates[1]

    @cached_property
    def dfap(self):
        """(derived groupoid action, its report)."""
        from .action import derive_dfap_action
        return derive_dfap_action(self.B, self.action, self.decomp)

    @cached_property
    def skew(self):
        """(skew groupoid ring labels, None), or (None, why it is unavailable)."""
        from .action import skew_groupoid_ring
        bsm, (dfap, _) = self.bsm, self.dfap
        try:
            return skew_groupoid_ring(bsm, dfap), None
        except ValueError as exc:
            return None, str(exc)

    # -- helpers ----------------------------------------------------------------

    def stratum_labels(self, names):
        """The basis positions in the named strata, in order."""
        lists = [self.strata[name] for name in names if self.strata[name]]
        if len(lists) == 1:
            return lists[0]
        return sorted(q for labels in lists for q in labels)

    def name(self, q):
        """The printed label of the double-smash position q."""
        return label_str(self.dsm.label(q))

    def in_strata(self, names):
        """The test whether a double-smash position lies in the named strata,
        read off classify_basis's table."""
        M, by_pair, names = self.bsm.meta["positions"].M, self.classes[1], set(names)
        src = [m.src for m in self.groupoid.morphisms]

        def inside(q):
            t, strata = by_pair[q // M]
            return strata[src[q % M] == t] in names
        return inside

    def phi_rank(self, labels):
        """(rank of the phi columns of labels, the labels whose column
        lies in the span of the columns of the labels before them: the
        positions that are not pivots)."""
        _, _, pivots = self.phi.null_space(labels)
        pivots = set(pivots)
        return len(pivots), [lab for j, lab in enumerate(labels) if j not in pivots]

    @cached_property
    def image_strata_rank(self):
        """Rank of the phi columns of the image-strata labels."""
        return self.phi_rank(self.stratum_labels(IMAGE_STRATA))[0]

    @property
    def classification_total(self):
        return self.strata_dims[UNCLASSIFIED] == 0

    @property
    def validated(self):
        return (self.groupoid_report.ok and self.b_report.ok
                and self.module_report.ok and self.decomp_report.ok)

    @cached_property
    def diagnostics(self):
        """Human-readable list naming every violated axiom or convention;
        built once, as the reports it reads are final after __init__."""
        out = []
        for name, rep in (("groupoid", self.groupoid_report),
                          ("algebra B", self.b_report),
                          ("module algebra", self.module_report),
                          ("decomposition", self.decomp_report)):
            for check in rep.checks_failed():
                n = sum(1 for f in rep.findings if f.check == check)
                first = next(f for f in rep.findings if f.check == check)
                out.append(f"{name}: {check} violated {n} time(s), "
                           f"first witness {first.witness!r}")
        if not self.classification_total:
            out.append(f"classification partial: {self.strata_dims[UNCLASSIFIED]} "
                       f"of {self.dsm.dim} basis vectors unclassified")
        return out

    def _result(self, claim, holds, dims, witnesses, notes):
        conditional = not (self.validated and self.classification_total)
        if conditional:
            notes = list(notes) + self.diagnostics
        return ClaimResult(claim, holds, conditional, dims, witnesses, notes)

    # -- verifiers ----------------------------------------------------------------

    def verify(self, claim_id: str) -> ClaimResult:
        try:
            fn = getattr(self, "_verify_" + claim_id.replace(".", "_"))
        except AttributeError:
            raise ValueError(f"unknown claim id {claim_id!r}") from None
        return fn()

    def verify_all(self):
        return [self.verify(cid) for cid in CLAIM_IDS]

    def _verify_thm2_2(self) -> ClaimResult:
        # the kernel equals the span of the kernel-strata labels iff each
        # kernel vector is supported on them and each of their phi columns
        # is zero; a zero label is supported on itself.  A label of an image
        # stratum lies in the kernel plus the span of the stratum's earlier
        # labels iff its phi column lies in the span of theirs.
        F, ki, supported = self.field, self.ki, self.in_strata(KERNEL_STRATA)
        outside = [(q, self.name(q)) for q in ki.zero if not supported(q)]
        outside += [(f, element_str(F, v, self.dsm.label)) for f, v in ki.eliminated
                    if not all(map(supported, v))]
        witnesses = [{"kernel_vector_outside_strata": w} for _, w in sorted(outside)]
        witnesses += [{"stratum_vector_outside_kernel": self.name(q)}
                      for q in sorted(q for q, endo in self.phi.columns.items()
                                      if endo and supported(q))]
        eq = not witnesses
        for name in IMAGE_STRATA:
            _, dependent = self.phi_rank(self.stratum_labels([name]))
            witnesses += [{"stratum_meets_kernel": [name, self.name(q)]} for q in dependent]
        dims = dict(self.ki.dims)
        dims["strata"] = dict(self.strata_dims)
        dims["kernel_strata_span"] = sum(len(self.strata[name]) for name in KERNEL_STRATA)
        notes = [f"kernel equals the span of A3+A4+A5+A6: {eq}"]
        return self._result("thm2.2", not witnesses, dims, witnesses, notes)

    def _closure_check(self, names):
        """closure_witnesses of the named strata, once per set of nonempty strata."""
        key = tuple(name for name in names if self.strata[name])
        if key not in self._closures:
            self._closures[key] = closure_witnesses(self.dsm, self.classes[1], key)
        return self._closures[key]

    def _verify_prop2_3(self) -> ClaimResult:
        witnesses = self._closure_check(UNITAL_STRATA)
        dims = {"span_dim": len(self.stratum_labels(UNITAL_STRATA))}
        return self._result("prop2.3", not witnesses, dims, witnesses,
                            ["products of A1+A7+A10 basis vectors stay in that span"])

    def _candidates(self):
        return (("all-morphism-sum", self.y_morph), ("object-sum", self.y_obj))

    def _verify_prop2_4(self) -> ClaimResult:
        corner = self.stratum_labels(UNITAL_STRATA)
        witnesses = []
        passing = []
        notes = []
        for name, y in self._candidates():
            if self.groupoid_report.ok:
                not_fixed, idem = self._corner_identity(y, corner)
            else:  # yy is the sum of the c yb over the terms c b of y
                F, products = self.field, self.dsm.products(y)
                not_fixed = self.dsm.not_fixed(y, corner, products)
                idem = el_sum(F, [(c, el_sum(F, products[0].get(b, ()))) for b, c in y.items()]) == y
            witnesses += [{"candidate": name, "not_fixed": self.name(z)} for z in not_fixed]
            ok = not not_fixed
            in_span = all(map(self.in_strata(UNITAL_STRATA), y))
            notes.append(f"candidate {name}: identity on the corner: {ok}; "
                         f"supported inside the corner: {in_span}; idempotent: {idem}")
            if ok:
                passing.append(name)
        dims = {"corner_dim": len(corner),
                "candidate_terms": {n: len(y) for n, y in self._candidates()}}
        return self._result("prop2.4", bool(passing), dims, witnesses, notes)

    def _corner_identity(self, y, corner):
        """On a valid groupoid, the corner labels that the candidate y does
        not fix, and whether yy == y, off B#KG.  y is the sum over the
        objects e of Y_e # (the sum of the r_n leaving e), Y_e in B#u_e, so
        for X = b#u_s and t after s, y (X#r_t) = (Y_src(s) X) # r_t and
        (X#r_t) y = (X Y_tgt(s)) # r_t; and yy == y iff each Y_e Y_e == Y_e."""
        M, ends = self.bsm.meta["positions"].M, [(m.src, m.tgt) for m in self.groupoid.morphisms]
        parts, by_end = {}, {}  # e -> Y_e; e -> the X of the corner with an end e
        for q, c in y.items():
            parts.setdefault(ends[q // M % M][0], {})[q // M] = c
        for x in dict.fromkeys(q // M for q in corner):
            for e in set(ends[x % M]):
                by_end.setdefault(e, []).append(x)
        moved = {x for e, xs in by_end.items() for side, x in self.bsm.moved(parts.get(e, {}), xs)
                 if ends[x % M][side == "right"] == e}
        idem = all(self.bsm.multiply(part, part) == part for part in parts.values())
        return [q for q in corner if q // M in moved], idem

    def _verify_prop2_5(self) -> ClaimResult:
        F = self.field
        a2 = self.stratum_labels(["A2"])
        right = self.stratum_labels(COMPLEMENT_STRATA[1:])  # A8, A9
        witnesses = []
        passing = []
        notes = []
        for name, y in self._candidates():
            ok = True
            yz, zy = self.dsm.products(y) if a2 or right else ({}, {})
            for z in a2:
                if el_sum(F, yz.get(z, ())):
                    ok = False
                    witnesses.append({"candidate": name, "left_survivor": self.name(z)})
            for z in right:
                if el_sum(F, zy.get(z, ())):
                    ok = False
                    witnesses.append({"candidate": name, "right_survivor": self.name(z)})
            if ok:
                passing.append(name)
        if not a2 and not right:
            notes.append("A2, A8 and A9 are empty here, so annihilation is vacuous")
        dims = {"A2": len(a2), "A8+A9": len(right)}
        return self._result("prop2.5", bool(passing), dims, witnesses, notes)

    def _verify_thm2_6(self) -> ClaimResult:
        # kernel (+) span(S) is direct iff phi is injective on span(S)
        kernel = self.ki.dims["kernel"]
        s_labels = self.stratum_labels(IMAGE_STRATA)
        dim = self.dsm.dim
        rank_s = self.image_strata_rank
        decomposes = rank_s == len(s_labels) and kernel + len(s_labels) == dim

        sp_dim = len(self.stratum_labels(UNITAL_STRATA))
        t_dim = len(self.stratum_labels(COMPLEMENT_STRATA))
        split = sp_dim + t_dim == len(s_labels)

        witnesses = []
        closed = True
        for part, names in (("S", IMAGE_STRATA), ("S'", UNITAL_STRATA),
                            ("T", COMPLEMENT_STRATA)):
            for w in self._closure_check(names):
                closed = False
                witnesses.append({"summand": part, **w})

        not_ideal = self.kernel_ideal_witnesses()
        ideal_ok = not not_ideal
        witnesses += [{"kernel_not_ideal_at": self.name(z)} for z in not_ideal]
        dims = {"dim": dim, "kernel": kernel, "S": len(s_labels),
                "S'": sp_dim, "T": t_dim}
        holds = decomposes and split and ideal_ok and closed
        notes = [f"whole space = kernel (+) image strata: {decomposes}",
                 f"image strata split as unital corner (+) complement: {split}",
                 f"each summand multiplicatively closed: {closed}",
                 f"kernel is a two-sided ideal: {ideal_ok}"]
        return self._result("thm2.6", holds, dims, witnesses, notes)

    def kernel_ideal_witnesses(self):
        """Per kernel vector v and basis label z, z once for each of vz and
        zv (in that order) that phi does not send to zero, over the z with a
        nonzero product (dsm.products(v)); a zero label is visited only if
        it has one.  None when B#KG's associativity makes phi multiplicative
        (phi_is_homomorphism), as then phi(vz) = phi(v) phi(z) = 0."""
        F, dsm, phi = self.field, self.dsm, self.phi
        if multiplicative_by_associativity(phi, dsm, self.validated):
            return []
        vectors = [(z0, {z0: F.one}) for z0 in dsm.right.keys() | dsm.left.keys()
                   if not phi.columns.get(z0)]
        vectors += [(f, dsm.from_vector(v)) for f, v in self.ki.eliminated]
        found = []  # (free position, witnesses)
        for f, v in vectors:
            vz, zv = dsm.products(v)
            found.append((f, [z for z in sorted(vz.keys() | zv.keys()) for terms in
                              (vz.get(z), zv.get(z)) if terms and phi.apply(el_sum(F, terms))]))
        return [z for _, zs in sorted(found) for z in zs]

    def _verify_rem2_7(self) -> ClaimResult:
        rank_phi_s = self.image_strata_rank
        exact = self.ki.dims["kernel"] + rank_phi_s == self.ki.dims["domain"]
        # phi(S) lies in the image, so it is all of it iff the ranks agree
        same_image = rank_phi_s == self.ki.dims["image"]
        dims = {"kernel": self.ki.dims["kernel"], "phi_of_S": rank_phi_s,
                "domain": self.ki.dims["domain"], "image": self.ki.dims["image"]}
        holds = exact and same_image
        notes = [f"dim kernel + dim phi(S) == dim domain: {exact}",
                 f"phi(S) equals the full image: {same_image}"]
        return self._result("rem2.7", holds, dims, [], notes)

    def _verify_thm2_9(self) -> ClaimResult:
        skew, err = self.skew
        if skew is None:
            return self._result("thm2.9", False, {}, [],
                                [f"skew ring unavailable: {err}"])
        _, dfap_report = self.dfap
        P = self.dsm.meta["positions"]
        ends = [(m.src, m.tgt) for m in self.groupoid.morphisms]  # by morphism index
        # psi(b delta_m # r_h) is the double-smash basis label b#u_m#r_h, at
        # pos(x, h) for x the B#KG position of (b, m); dom holds (q, m, h)
        dom = [(P.pos(x, h), m, h) for x, m in [(x, P.split(x)[1]) for x in skew]
               for h in range(P.M)]
        n_dom = len(dom)
        d1 = [q for q, m, h in dom if ends[m][1] != ends[h][0]]
        c_labels = [q for q, m, h in dom if ends[m][1] == ends[h][0]]

        # whole = C (+) D1
        whole_ok = len(d1) + len(c_labels) == n_dom

        # rank of phi(psi(C)), then of phi o psi, and exactness bookkeeping;
        # C comes first, so the rank of C is its number of pivots
        zero, _, pivots = self.phi.null_space(c_labels + d1)
        rank, rank_c = len(pivots), bisect_left(pivots, len(c_labels))
        exact = len(d1) + rank_c == n_dom
        # D1 is spanned by basis labels: it is the kernel of phi o psi iff
        # phi o psi is zero on each of them, the last len(d1) positions, and
        # the dimensions agree
        d1_zero = len(zero) - bisect_left(zero, len(c_labels)) == len(d1)
        d1_eq_kernel = d1_zero and len(d1) == n_dom - rank

        # psi(B0) == span(A1): both are spanned by basis labels
        b0 = [q for q, m, h in dom if ends[m][1] == ends[h][0] and ends[m][0] == ends[m][1]]
        a1 = self.stratum_labels(["A1"])
        b0_eq_a1 = set(b0) == set(a1)

        dims = {"skew_smash_dim": n_dom, "D1": len(d1), "C": len(c_labels),
                "phi_psi_C": rank_c, "kernel_phi_psi": n_dom - rank,
                "B0": len(b0), "A1": len(a1)}
        witnesses = [{"derived_action": check} for check in dfap_report.checks_failed()]
        holds = d1_eq_kernel and whole_ok and exact and b0_eq_a1 \
            and dfap_report.ok
        notes = [f"D1 equals ker(phi o psi): {d1_eq_kernel}",
                 f"whole = C (+) D1: {whole_ok}",
                 f"dim D1 + dim phi(psi(C)) == dim: {exact}",
                 # dom lists distinct (b, m, h), each sent to its own basis label
                 "psi injective on C: True",
                 f"psi(B0) equals span(A1): {b0_eq_a1}"]
        return self._result("thm2.9", holds, dims, witnesses, notes)
