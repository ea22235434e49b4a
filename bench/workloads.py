"""Instance generators for the benchmark.

Every instance is built here from its combinatorics, not with the
functions of weakhopf.groupoid: a groupoid made of pair groupoids and cyclic
groups, and B = K^X for a set X fibred over the objects.  A morphism
g: s -> t carries the fibre over t bijectively onto the fibre over s, so
B is a valid module algebra and the strata of the double smash product
have closed forms (see `expected_dims`).  Broken instances perturb one
entry of a valid one, apart from the bundled ex2.8-gf2.

The workload seed picks the perturbed entry and the instance order; the
program only ever sees the JSON files written from these documents.
"""

import random
from dataclasses import dataclass, field

P31 = 2**31 - 1
RATIONAL = {"kind": "rational"}
PRIME = {"kind": "prime", "p": P31}


@dataclass
class Spec:
    """A generated instance before it is written out.

    perm[m][i] is the index, in the fibre over src(m), of the image of
    point i of the fibre over tgt(m).
    """

    name: str
    field: dict
    objects: list
    morphisms: list                      # (id, src, tgt, inv)
    comp: dict                           # (a, b) -> a*b
    fibre: dict                          # object -> fibre size
    perm: dict                           # morphism -> list of indices
    action_override: dict = field(default_factory=dict)  # (m, b) -> element
    # what the output checks expect of a broken instance
    fault: str = ""                      # finding the fault must produce
    groupoid_ok: bool = True
    builtin: str = ""                    # run as a builtin name, no file

    @property
    def valid(self):
        return not self.fault


def point(obj, i):
    return f"x.{obj}.{i}"


def pair_piece(prefix, n):
    objects = [f"{prefix}o{i}" for i in range(n)]

    def mid(i, j):
        return objects[i] if i == j else f"{prefix}m{i}_{j}"

    morphisms = [(mid(i, j), objects[i], objects[j], mid(j, i))
                 for i in range(n) for j in range(n)]
    comp = {(mid(i, j), mid(j, k)): mid(i, k)
            for i in range(n) for j in range(n) for k in range(n)}
    return objects, morphisms, comp, {}


def cyclic_piece(prefix, n, regular):
    """Z/n on one object; with regular=True a_j shifts the fibre (size n)
    by j, otherwise the action is trivial."""
    obj = f"{prefix}e"
    names = [obj] + [f"{prefix}a{j}" for j in range(1, n)]
    morphisms = [(names[j], obj, obj, names[-j % n]) for j in range(n)]
    comp = {(names[i], names[j]): names[(i + j) % n]
            for i in range(n) for j in range(n)}
    shift = {names[j]: j for j in range(n)} if regular else {}
    return [obj], morphisms, comp, shift


def assemble(name, field_spec, pieces, fibre_size):
    """Disjoint union of (objects, morphisms, comp, shift) pieces with a
    fibre of `fibre_size` points over every object.  A piece's shift
    sends point i to i + shift[m]; morphisms without a shift fix indices."""
    objects, morphisms, comp, perm = [], [], {}, {}
    for objs, morphs, c, shift in pieces:
        objects += objs
        morphisms += morphs
        comp.update(c)
        for m in morphs:
            s = shift.get(m[0], 0)
            perm[m[0]] = [(i + s) % fibre_size for i in range(fibre_size)]
    fibre = {o: fibre_size for o in objects}
    return Spec(name, field_spec, objects, morphisms, comp, fibre, perm)


def pair_instance(n, k, field_spec=RATIONAL, name=None):
    return assemble(name or f"pair{n}-k{k}", field_spec,
                    [pair_piece("", n)], k)


def cyclic_instance(n, regular, field_spec=RATIONAL, name=None):
    k = n if regular else 1
    kind = "regular" if regular else "trivial"
    return assemble(name or f"z{n}-{kind}", field_spec,
                    [cyclic_piece("", n, regular)], k)


def union_instance(n, m, k):
    return assemble(f"pair{n}+z{m}-k{k}", RATIONAL,
                    [pair_piece("p.", n), cyclic_piece("z.", m, False)], k)


def action_table(spec):
    """(morphism, point) -> {point: coefficient}, zero entries omitted."""
    table = {}
    for m, s, t, _ in spec.morphisms:
        for i in range(spec.fibre[t]):
            table[(m, point(t, i))] = {point(s, spec.perm[m][i]): "1"}
    table.update(spec.action_override)
    return table


def to_doc(spec):
    basis = [point(o, i) for o in spec.objects for i in range(spec.fibre[o])]
    return {
        "name": spec.name,
        "field": spec.field,
        "groupoid": {
            "objects": list(spec.objects),
            "morphisms": [{"id": m, "src": s, "tgt": t, "inv": v}
                          for m, s, t, v in spec.morphisms],
            "composition": [[a, b, c] for (a, b), c in sorted(spec.comp.items())],
        },
        "algebra": {
            "basis": basis,
            "unit": {x: "1" for x in basis},
            "multiplication": [[x, x, {x: "1"}] for x in basis],
        },
        "action": [[m, b, el] for (m, b), el in sorted(action_table(spec).items())],
    }


def expected_dims(spec):
    """Closed forms for a valid fibred instance.

    Only a composable (g, h) gives phi(a#u_g#r_h) != 0, and then exactly
    for the points a over src(g); so, with k the fibre size over src(g),
    image = sum k over composable pairs, A1 / A7 split that sum by
    whether g is a loop, and A3 = dim B * #non-composable pairs.
    """
    dim_b = sum(spec.fibre.values())
    image = a1 = a7 = a3 = 0
    for _, src, tgt, _ in spec.morphisms:
        for _, h_src, _, _ in spec.morphisms:
            if tgt != h_src:
                a3 += dim_b
                continue
            k = spec.fibre[src]
            image += k
            if src == tgt:
                a1 += k
            else:
                a7 += k
    domain = dim_b * len(spec.morphisms) ** 2
    return {"domain": domain, "image": image, "kernel": domain - image,
            "A1": a1, "A7": a7, "A3": a3}


# -- broken instances -----------------------------------------------------------


def scaled_action(rng, base, name):
    """One nonzero action entry multiplied by c, c not in {0, 1}: acting by
    inv(m) after m then differs from the identity (module axiom (i))."""
    table = action_table(base)
    key = rng.choice(sorted(table))
    (target, _), = table[key].items()
    c = rng.randrange(2, P31)
    base.action_override = {key: {target: str(c)}}
    base.name, base.fault = name, "module-axiom-i"
    return base


def redirected_action(rng, base, name):
    """One action entry m.x sent to another point than the fibre map
    prescribes, so inv(m) no longer brings it back to x (axiom (i))."""
    table = action_table(base)
    key = rng.choice(sorted(table))
    (target, _), = table[key].items()
    points = [point(o, i) for o in base.objects for i in range(base.fibre[o])]
    other = rng.choice([p for p in points if p != target])
    base.action_override = {key: {other: "1"}}
    base.name, base.fault = name, "module-axiom-i"
    return base


def wrong_composition(name, n):
    """pair(n), n = 2 or 3, with m0_1 * m1_j declared as m0_1 (j = 2 mod n),
    a product whose endpoints are wrong.  Fixed, not drawn from the seed:
    its prop2.3 / thm2.6 witness lists come out in hash order, which is
    the determinism fault this instance keeps in view."""
    spec = pair_instance(n, 1, PRIME, name)
    spec.comp[("m0_1", f"m1_{2 % n}")] = "m0_1"
    spec.fault, spec.groupoid_ok = "product-endpoints", False
    return spec


def missing_composition(name):
    """Z/2 with B = K and the entry a1*a1 left out of the table."""
    spec = cyclic_instance(2, False, PRIME, name)
    del spec.comp[("a1", "a1")]
    spec.fault, spec.groupoid_ok = "composition-missing", False
    return spec


def ex28_gf2():
    """The bundled ex2.8 over GF(2), whose action table breaks the module
    axioms, (i) among them."""
    return Spec("ex2.8-gf2", {"kind": "prime", "p": 2}, [], [], {}, {}, {},
                fault="module-axiom-i", builtin="ex2.8-gf2")


# -- workloads ---------------------------------------------------------------


def _pair_q(smoke):
    if smoke:
        return [pair_instance(2, 1), union_instance(1, 2, 1)]
    return [pair_instance(3, 1), union_instance(2, 3, 1), pair_instance(2, 2)]


def _cyclic_q(smoke):
    if smoke:
        return [cyclic_instance(3, False), cyclic_instance(2, True)]
    return [cyclic_instance(8, False), cyclic_instance(4, True)]


def _broken_gfp(smoke, rng):
    size = 2 if smoke else 3
    return [
        scaled_action(rng, pair_instance(size, 1, PRIME), "scaled-action"),
        redirected_action(rng, pair_instance(size, 1, PRIME), "redirected-action"),
        wrong_composition("wrong-composition", size),
        missing_composition("missing-composition"),
        ex28_gf2(),
    ]


WORKLOADS = ("pair-q", "cyclic-q", "broken-gfp")


def workload(name, seed, smoke=False):
    """The instances of a workload, in the order the seed gives them."""
    rng = random.Random(f"{name}:{seed}")
    if name == "pair-q":
        specs = _pair_q(smoke)
    elif name == "cyclic-q":
        specs = _cyclic_q(smoke)
    elif name == "broken-gfp":
        specs = _broken_gfp(smoke, rng)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(specs)
    return specs
