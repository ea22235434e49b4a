import copy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from weakhopf.duality import VerificationContext
from weakhopf.groupoid import Groupoid, GroupoidError, Morphism, builtin_i2, cyclic_group
from weakhopf.instances import builtin_doc, builtin_instance, groupoid_to_doc

_CACHE = {}


def compose(g: Groupoid, a, b):
    """Product per g's table; None when tgt(a) != src(b), whatever a
    spurious table entry says (the validator reports those)."""
    if not g.composable(a, b):
        return None
    return g.comp.get((a, b))


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


BASES = ([pair_groupoid(n) for n in (1, 2, 3)] + [cyclic_group(n) for n in (2, 3, 4, 5)]
         + [builtin_i2()])
SABOTAGE_KINDS = ["drop", "spurious", "product", "inv", "src", "tgt"]


def sabotaged_groupoid(g, kinds, data):
    """g broken once per kind, with the entry and value drawn from data:
    drop a composition entry, add one for a non-composable pair, change a
    product, or change a morphism's inv, src or tgt."""
    morphs, comp = list(g.morphisms), dict(g.comp)
    ids = st.sampled_from(g.morphism_ids())
    for kind in kinds:
        if kind in ("drop", "product"):
            if not comp:
                continue
            key = data.draw(st.sampled_from(sorted(comp)))
            if kind == "drop":
                del comp[key]
            else:
                comp[key] = data.draw(ids)
        elif kind == "spurious":
            ends = {m.id: m for m in morphs}
            free = [(a, b) for a in ends for b in ends
                    if ends[a].tgt != ends[b].src and (a, b) not in comp]
            if free:
                comp[data.draw(st.sampled_from(free))] = data.draw(ids)
        else:
            i = data.draw(st.integers(0, len(morphs) - 1))
            new = data.draw(ids if kind == "inv" else st.sampled_from(g.objects))
            morphs[i] = replace(morphs[i], **{kind: new})
    return Groupoid(g.objects, morphs, comp)


ACTION_SABOTAGE_KINDS = ["scale", "redirect", "cross", "spurious"]


def sabotaged_action(doc, kinds, data):
    """A copy of doc with its action table broken once per kind, the entry
    and value drawn from data.  "scale" multiplies a nonzero entry by an
    integer c from 2 to 4 (read modulo p over GF(p)) and "redirect" sends
    one to another basis label, as bench/workloads.scaled_action and
    redirected_action do.  "cross" sends a nonzero entry m.x into the
    fibre of an object other than src(m), so that pairs that do not
    compose act nonzero; the fibre of y is the object whose identity
    sends y to y.  "spurious" makes a zero entry nonzero."""
    doc = copy.deepcopy(doc)
    basis, objects = doc["algebra"]["basis"], set(doc["groupoid"]["objects"])
    src = {m["id"]: m["src"] for m in doc["groupoid"]["morphisms"]}
    table = {(m, x): el for m, x, el in doc["action"] if el}
    fibre = {x: m for (m, x), el in table.items() if m in objects and el == {x: "1"}}
    for kind in kinds:
        if kind == "spurious":
            free = [(m, x) for m in src for x in basis if (m, x) not in table]
            if free:
                table[data.draw(st.sampled_from(free))] = {data.draw(st.sampled_from(basis)): "1"}
            continue
        if not table:
            continue
        key = data.draw(st.sampled_from(sorted(table)))
        if kind == "scale":
            c = data.draw(st.integers(2, 4))
            table[key] = {y: str(Fraction(v) * c) for y, v in table[key].items()}
            continue
        if kind == "redirect":
            targets = [y for y in basis if table[key] != {y: "1"}]
        else:
            targets = [y for y in basis if fibre.get(y, src[key[0]]) != src[key[0]]]
        if targets:
            table[key] = {data.draw(st.sampled_from(targets)): "1"}
    doc["action"] = [[m, x, el] for (m, x), el in table.items()]
    return doc


def groupoid_doc(g, name, field=None, k=1):
    """Instance document for groupoid g with B = K^(objects x k), each
    morphism s -> t carrying the i-th idempotent at t onto the i-th one at
    s.  With k == 1 the idempotents are named by their objects."""
    points = {e: [e] if k == 1 else [f"{e}.{i}" for i in range(k)] for e in g.objects}
    basis = [x for e in g.objects for x in points[e]]
    return {
        "name": name,
        "field": field or {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {"basis": basis, "unit": {x: "1" for x in basis},
                    "multiplication": [[x, x, {x: "1"}] for x in basis]},
        "action": [[m.id, x, {y: "1"}] for m in g.morphisms
                   for x, y in zip(points[m.tgt], points[m.src])],
    }


def spurious_i2_doc():
    """i2-swap with g*g declared although tgt(g) != src(g)."""
    doc = builtin_doc("i2-swap")
    doc["groupoid"]["composition"].append(["g", "g", "x"])
    return doc


def half_unit_z2_doc():
    """Z/2 swapping p and q in B = Q^2 on the basis {p, q} = {2e1, 2e2}:
    pp = 2p, qq = 2q and the unit is p/2 + q/2, so the report carries
    non-integral scalars."""
    from weakhopf.groupoid import cyclic_group
    return {
        "name": "half-unit-z2",
        "field": {"kind": "rational"},
        "groupoid": groupoid_to_doc(cyclic_group(2)),
        "algebra": {"basis": ["p", "q"], "unit": {"p": "1/2", "q": "1/2"},
                    "multiplication": [["p", "p", {"p": "2"}], ["q", "q", {"q": "2"}]]},
        "action": [["e", "p", {"p": "1"}], ["e", "q", {"q": "1"}],
                   ["a", "p", {"q": "1"}], ["a", "q", {"p": "1"}]],
    }


def z4_regular_doc():
    """Z/4 acting regularly on B = Q^{Z/4}: a_j sends the idempotent x_i
    to x_{i+j}.  B#KG and B#KG#KG* are unital, and B is not the field."""
    from weakhopf.groupoid import cyclic_group
    names = ["e", "a1", "a2", "a3"]
    return {
        "name": "z4-regular",
        "field": {"kind": "rational"},
        "groupoid": groupoid_to_doc(cyclic_group(4)),
        "algebra": {"basis": [f"x{i}" for i in range(4)],
                    "unit": {f"x{i}": "1" for i in range(4)},
                    "multiplication": [[f"x{i}", f"x{i}", {f"x{i}": "1"}] for i in range(4)]},
        "action": [[m, f"x{i}", {f"x{(i + j) % 4}": "1"}]
                   for j, m in enumerate(names) for i in range(4)],
    }


def m2_doc(g, name, field=None):
    """Instance document for groupoid g with B the sum of M_2 over the
    objects, basis o.ij and E_ij E_jl = E_il inside one block.  A morphism
    m: s -> t sends block t to block s by Ad(P_s P_t^-1), where P is
    [[1, k], [0, 1]] at the k-th object; a loop that is not an identity acts
    by Ad(Q), Q = [[1, 0], [1, -1]] = Q^-1.  This is an action when every
    vertex group has order at most 2 (pair groupoids, Z/2)."""
    pos = {e: k for k, e in enumerate(g.objects)}
    ij = [(i, j) for i in (1, 2) for j in (1, 2)]

    def conj(m):
        # (M, M^-1) with m acting by Ad(M)
        if m.id == m.src:
            return ((1, 0), (0, 1)), ((1, 0), (0, 1))
        if m.src == m.tgt:
            return ((1, 0), (1, -1)), ((1, 0), (1, -1))
        k = pos[m.src] - pos[m.tgt]
        return ((1, k), (0, 1)), ((1, -k), (0, 1))

    def ad(m, i, j):
        # M E_ij M^-1 = sum over (k, l) of M[k][i] M^-1[j][l] E_kl
        M, Mi = conj(m)
        return {f"{m.src}.{k}{l}": str(c)
                for k, l in ij if (c := M[k - 1][i - 1] * Mi[j - 1][l - 1])}

    basis = [f"{e}.{i}{j}" for e in g.objects for i, j in ij]
    return {
        "name": name,
        "field": field or {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {"basis": basis,
                    "unit": {f"{e}.{i}{i}": "1" for e in g.objects for i in (1, 2)},
                    "multiplication": [[f"{e}.{i}{j}", f"{e}.{j}{l}", {f"{e}.{i}{l}": "1"}]
                                       for e in g.objects for i, j in ij for l in (1, 2)]},
        "action": [[m.id, f"{m.tgt}.{i}{j}", ad(m, i, j)] for m in g.morphisms
                   for i, j in ij],
    }


def m2_pair2_doc():
    """m2_doc on the pair groupoid with two objects, over Q."""
    return m2_doc(pair_groupoid(2), "m2-pair2")


def mk_doc(n, k, field=None):
    """pair(n) acting on B, the sum of M_k over the objects (basis o.ij and
    E_ij E_jl = E_il inside one block).  A morphism m: s -> t sends block t
    to block s by Ad(P_s P_t^-1), where P = I + pN at the p-th object, N
    the nilpotent shift with ones at (i, i + 1); the inverse of I + pN is
    the sum of (-p)^r N^r.  The vertex groups are trivial, so this is an
    action for every n and k; with k == 2 it is m2_doc on pair(n).  The
    products of B#KG have up to k terms, a regime B = K^X never reaches."""
    g = pair_groupoid(n)
    pos = {e: p for p, e in enumerate(g.objects)}
    ks = range(1, k + 1)

    def unitriangular(p):  # (I + pN, its inverse)
        return ([[int(i == j) + p * (j == i + 1) for j in ks] for i in ks],
                [[(-p) ** (j - i) if j >= i else 0 for j in ks] for i in ks])

    def times(X, Y):
        return [[sum(X[i][r] * Y[r][j] for r in range(k)) for j in range(k)] for i in range(k)]

    def ad(m, i, j):  # A E_ij A^-1 = sum over (a, b) of A[a][i] A^-1[j][b] E_ab
        (Ps, Psi), (Pt, Pti) = unitriangular(pos[m.src]), unitriangular(pos[m.tgt])
        A, Ai = times(Ps, Pti), times(Pt, Psi)
        return {f"{m.src}.{a}{b}": str(c) for a in ks for b in ks
                if (c := A[a - 1][i - 1] * Ai[j - 1][b - 1])}

    basis = [f"{e}.{i}{j}" for e in g.objects for i in ks for j in ks]
    return {
        "name": f"m{k}-pair{n}",
        "field": field or {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {"basis": basis,
                    "unit": {f"{e}.{i}{i}": "1" for e in g.objects for i in ks},
                    "multiplication": [[f"{e}.{i}{j}", f"{e}.{j}{l}", {f"{e}.{i}{l}": "1"}]
                                       for e in g.objects for i in ks for j in ks for l in ks]},
        "action": [[m.id, f"{m.tgt}.{i}{j}", ad(m, i, j)] for m in g.morphisms
                   for i in ks for j in ks],
    }


def wrong_composition_doc(n, field=None):
    """pair(n) with m1_2 * m2_1 (n == 2) or m1_2 * m2_3 (n >= 3) sent to m1_2."""
    doc = groupoid_doc(pair_groupoid(n), f"pair{n}-wrong", field)
    last = "m2_1" if n == 2 else "m2_3"
    for entry in doc["groupoid"]["composition"]:
        if entry[:2] == ["m1_2", last]:
            entry[2] = "m1_2"
    return doc


def wrong_composition_pair3_doc():
    """The wrong-composition instance of the broken-gfp benchmark workload,
    up to names: pair(3) over GF(2^31 - 1) with m1_2 * m2_3 declared as m1_2,
    which breaks KG's weak counit and KG*'s coassociativity and weak unit."""
    doc = wrong_composition_doc(3, {"kind": "prime", "p": 2**31 - 1})
    doc["name"] = "wrong-composition-pair3"
    return doc


def missing_composition_z2_doc():
    """Z/2 over GF(2^31 - 1) with the entry a * a left out of the table:
    all three antipode identities fail on KG and on KG*."""
    from weakhopf.groupoid import cyclic_group
    doc = groupoid_doc(cyclic_group(2), "missing-composition-z2", {"kind": "prime", "p": 2**31 - 1})
    doc["groupoid"]["composition"].remove(["a", "a", "e"])
    return doc


def twin_identity_doc(field=None):
    """A broken one-object groupoid, over GF(2) by default: the identity
    records of the objects e and f both leave e, h*e = h for every h, and
    a*f = a, so that B#KG multiplies z = x#u_a on the right by b#u_e and by
    b#u_f to the same nonzero product, and the two cancel in z (b # sum).
    As e*f = f, they do not cancel for x#u_e, which phi(b#u_a#r_a) sends
    x#u_a to, so right-linearity fails there."""
    ids = ["e", "f", "a"]
    comp = {(h, "e"): h for h in ids}
    comp.update({("e", "f"): "f", ("f", "f"): "f", ("a", "f"): "a",
                 ("e", "a"): "a", ("f", "a"): "a", ("a", "a"): "e"})
    g = Groupoid(["e", "f"], [Morphism(h, "e", "e", h) for h in ids], comp)
    return groupoid_doc(g, "twin-identity", field or {"kind": "prime", "p": 2})


def skew_ring(ctx):
    """B*G of ctx built by the all-pairs oracle, after checking that its
    basis is the engine's skew labels and its table B#KG restricted to
    them, as the engine, which keeps only the labels, takes it to be; the
    engine's positions are read as labels."""
    import oracle
    view = oracle.LabelView(ctx)
    labels, err = view.skew
    assert err is None, err
    ring = oracle.skew_groupoid_ring(ctx.B, ctx.action, ctx.dfap[0])
    assert ring.basis == labels
    assert ring.mul == {(x, y): prod for (x, y), prod in view.bsm.mul.items()
                        if x in ring.index and y in ring.index}
    return ring


def context(name) -> VerificationContext:
    if name not in _CACHE:
        _CACHE[name] = VerificationContext(builtin_instance(name))
    return _CACHE[name]


@pytest.fixture(scope="session")
def ctx_i2():
    return context("i2-swap")


@pytest.fixture(scope="session")
def ctx_z2():
    return context("z2-trivial")


@pytest.fixture(scope="session")
def ctx_z3():
    return context("z3-trivial")


@pytest.fixture(scope="session")
def ctx_ex28():
    return context("ex2.8")


@pytest.fixture(scope="session")
def ctx_ex28_gf2():
    return context("ex2.8-gf2")
