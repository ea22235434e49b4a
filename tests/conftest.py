import pytest

from weakhopf.duality import VerificationContext
from weakhopf.instances import builtin_doc, builtin_instance, groupoid_to_doc

_CACHE = {}


def groupoid_doc(g, name, field=None):
    """Instance document for groupoid g with B = K^objects, each morphism
    s -> t carrying the idempotent at t onto the one at s."""
    return {
        "name": name,
        "field": field or {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {"basis": list(g.objects), "unit": {e: "1" for e in g.objects},
                    "multiplication": [[e, e, {e: "1"}] for e in g.objects]},
        "action": [[m.id, m.tgt, {m.src: "1"}] for m in g.morphisms],
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


def wrong_composition_doc(n):
    """pair(n) with m1_2 * m2_1 (n == 2) or m1_2 * m2_3 (n >= 3) sent to m1_2."""
    from weakhopf.groupoid import pair_groupoid
    doc = groupoid_doc(pair_groupoid(n), f"pair{n}-wrong")
    last = "m2_1" if n == 2 else "m2_3"
    for entry in doc["groupoid"]["composition"]:
        if entry[:2] == ["m1_2", last]:
            entry[2] = "m1_2"
    return doc


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
