"""Instance files: a single JSON document declaring the field, the
groupoid (with an explicit composition table), the algebra B and the
action table.  Coefficients are strings ("2", "-3/4") so nothing ever
passes through floating point.  Pairs absent from the multiplication or
action tables are zero.
"""

import hashlib
import json

from .action import ModuleAction
from .exactmath import field_from_spec
from .groupoid import Groupoid, GroupoidError, Morphism, builtin_i2, cyclic_group
from .walg import FinAlgebra


class InstanceFormatError(ValueError):
    """Malformed instance document: bad JSON shape or dangling references."""


def groupoid_to_doc(g) -> dict:
    return {
        "objects": list(g.objects),
        "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt, "inv": m.inv}
                      for m in g.morphisms],
        "composition": [[a, b, c] for (a, b), c in sorted(g.comp.items())],
    }


class Instance:
    def __init__(self, name, field, groupoid, algebra, action):
        self.name = name
        self.field = field
        self.groupoid = groupoid
        self.algebra = algebra
        self.action = action

    def to_doc(self) -> dict:
        """Canonical JSON document (scalars as strings, stable list order)."""
        F = self.field
        g = self.groupoid
        doc = {
            "name": self.name,
            "field": F.describe(),
            "groupoid": groupoid_to_doc(g),
            "algebra": {
                "basis": list(self.algebra.basis),
                "unit": {k: F.show(v) for k, v in sorted(self.algebra.unit.items())},
                "multiplication": [
                    [a, b, {k: F.show(v) for k, v in sorted(prod.items())}]
                    for (a, b), prod in sorted(self.algebra.mul.items())
                ],
            },
            "action": [
                [m, b, {k: F.show(v) for k, v in sorted(el.items())}]
                for m, row in sorted(self.action.rho.items())
                for b, el in sorted(row.items())
            ],
        }
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_element(field, doc, basis, where, *at):
    """doc as an element, zero coefficients dropped; where.format(*at) names it in an error."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where.format(*at)}: element must be an object")
    out = {}
    for lab, text in doc.items():
        if lab not in basis:
            raise InstanceFormatError(f"{where.format(*at)}: unknown basis label {lab!r}")
        try:
            val = field.parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"{where.format(*at)}: bad coefficient {text!r}: {exc}")
        if val != field.zero:
            out[lab] = val
    return out


def _list(value, where, *at):
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where.format(*at)} must be a list")
    return value


def _label(lab, where, *at):
    """lab as a label: a JSON string, so that any two labels compare."""
    if not isinstance(lab, str):
        raise InstanceFormatError(f"{where.format(*at)} is not a label (a JSON string): {lab!r}")
    return lab


def _labels(values, where, *at):
    for i, lab in enumerate(_list(values, where, *at)):
        if not isinstance(lab, str):
            _label(lab, where + "[{}]", *at, i)
    return values


def _read_table(rows, where, read):
    """read(a, b, el) for each row [a, b, el], a and b labels, in order; a row
    of another shape is reported first, even if read raises at an earlier one."""
    rows = _list(rows, where)
    try:
        for entry in rows:
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[1], str)):
                raise InstanceFormatError(where)
            read(*entry)
    except InstanceFormatError:
        for i, entry in enumerate(rows):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise InstanceFormatError(f"{where}[{i}] is not a [label, label, element] triple")
            _labels(entry[:2], where + "[{}]", i)
        raise


def parse_instance(doc: dict) -> Instance:
    """The one place where outside tables are checked: unknown labels and
    repeats are rejected, zero coefficients and empty products dropped."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        field = field_from_spec(doc["field"])
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise InstanceFormatError(f"bad field spec: {exc}")

    gdoc = doc.get("groupoid")
    if not isinstance(gdoc, dict):
        raise InstanceFormatError("missing groupoid section")
    if not gdoc.get("objects"):
        raise InstanceFormatError("groupoid has no objects")
    try:
        morphs = [Morphism(*(_label(m[k], "morphisms[{}].{}", i, k)
                             for k in ("id", "src", "tgt", "inv")))
                  for i, m in enumerate(gdoc.get("morphisms", []))]
        comp = {}
        for i, entry in enumerate(_list(gdoc.get("composition", []), "composition")):
            a, b, c = _labels(entry, "composition[{}]", i)
            if (a, b) in comp:
                raise InstanceFormatError(f"composition table maps ({a!r}, {b!r}) twice")
            comp[(a, b)] = c
        groupoid = Groupoid(_labels(gdoc["objects"], "groupoid objects"), morphs, comp)
    except GroupoidError as exc:
        raise InstanceFormatError(f"groupoid: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"groupoid section malformed: {exc}")

    adoc = doc.get("algebra")
    if not isinstance(adoc, dict) or "basis" not in adoc or "unit" not in adoc:
        raise InstanceFormatError("algebra section needs basis and unit")
    basis = _labels(adoc["basis"], "algebra basis")
    bset = set(basis)
    if len(bset) != len(basis):
        raise InstanceFormatError("duplicate algebra basis labels")
    right, pairs = {}, set()

    def read_product(a, b, el):
        if a not in bset or b not in bset:
            unknown = " and ".join(repr(lab) for lab in dict.fromkeys((a, b)) if lab not in bset)
            raise InstanceFormatError(f"multiplication references unknown label {unknown}")
        if (a, b) in pairs:
            raise InstanceFormatError(f"multiplication table maps ({a!r}, {b!r}) twice")
        pairs.add((a, b))
        if prod := _parse_element(field, el, bset, "multiplication ({}, {})", a, b):
            right.setdefault(a, {})[b] = prod
    _read_table(adoc.get("multiplication", []), "multiplication", read_product)
    unit = _parse_element(field, adoc["unit"], bset, "unit")
    if not unit:
        raise InstanceFormatError("algebra unit is zero; B needs a nonzero unit")
    algebra = FinAlgebra(field, basis, right, unit, name="B")

    table, mids = {}, set(groupoid.morphism_ids())

    def read_action(m, b, el):
        if m not in mids:
            raise InstanceFormatError(f"action references unknown morphism {m!r}")
        if b not in bset:
            raise InstanceFormatError(f"action references unknown basis label {b!r}")
        if (m, b) in table:
            raise InstanceFormatError(f"action table maps ({m!r}, {b!r}) twice")
        table[(m, b)] = _parse_element(field, el, bset, "action ({}, {})", m, b)
    _read_table(doc.get("action", []), "action", read_action)
    action = ModuleAction(groupoid, algebra, table)

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InstanceFormatError("name must be a string")
    return Instance(name, field, groupoid, algebra, action)


def load_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}")
    return parse_instance(doc)


# -- builtin library ------------------------------------------------------------


def _z_trivial(n, name):
    g = cyclic_group(n)
    return {
        "name": name,
        "field": {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {"basis": ["b"], "unit": {"b": "1"},
                    "multiplication": [["b", "b", {"b": "1"}]]},
        "action": [[m, "b", {"b": "1"}] for m in g.morphism_ids()],
    }


def _i2_swap():
    g = builtin_i2()
    return {
        "name": "i2-swap",
        "field": {"kind": "rational"},
        "groupoid": groupoid_to_doc(g),
        "algebra": {
            "basis": ["e1", "e2"],
            "unit": {"e1": "1", "e2": "1"},
            "multiplication": [["e1", "e1", {"e1": "1"}], ["e2", "e2", {"e2": "1"}]],
        },
        "action": [
            ["x", "e1", {"e1": "1"}],
            ["y", "e2", {"e2": "1"}],
            ["g", "e2", {"e1": "1"}],
            ["gi", "e1", {"e2": "1"}],
        ],
    }


def _ex28(field_spec, name):
    # two objects s, t; g runs s -> t; three orthogonal idempotents;
    # e3 is moved onto e1 or e2 depending on which morphism acts
    return {
        "name": name,
        "field": field_spec,
        "groupoid": {
            "objects": ["s", "t"],
            "morphisms": [
                {"id": "s", "src": "s", "tgt": "s", "inv": "s"},
                {"id": "t", "src": "t", "tgt": "t", "inv": "t"},
                {"id": "g", "src": "s", "tgt": "t", "inv": "gi"},
                {"id": "gi", "src": "t", "tgt": "s", "inv": "g"},
            ],
            "composition": [
                ["s", "s", "s"], ["s", "g", "g"],
                ["t", "t", "t"], ["t", "gi", "gi"],
                ["g", "t", "g"], ["g", "gi", "s"],
                ["gi", "s", "gi"], ["gi", "g", "t"],
            ],
        },
        "algebra": {
            "basis": ["e1", "e2", "e3"],
            "unit": {"e1": "1", "e2": "1", "e3": "1"},
            "multiplication": [
                ["e1", "e1", {"e1": "1"}],
                ["e2", "e2", {"e2": "1"}],
                ["e3", "e3", {"e3": "1"}],
            ],
        },
        "action": [
            ["s", "e1", {"e1": "1"}], ["s", "e2", {"e2": "1"}], ["s", "e3", {"e1": "1"}],
            ["t", "e1", {"e1": "1"}], ["t", "e2", {"e2": "1"}], ["t", "e3", {"e2": "1"}],
            ["g", "e1", {"e2": "1"}], ["g", "e2", {"e1": "1"}], ["g", "e3", {"e1": "1"}],
            ["gi", "e1", {"e2": "1"}], ["gi", "e2", {"e1": "1"}], ["gi", "e3", {"e2": "1"}],
        ],
    }


BUILTIN_NAMES = ("z2-trivial", "z3-trivial", "i2-swap", "ex2.8", "ex2.8-gf2")


def builtin_doc(name: str) -> dict:
    if name == "z2-trivial":
        return _z_trivial(2, name)
    if name == "z3-trivial":
        return _z_trivial(3, name)
    if name == "i2-swap":
        return _i2_swap()
    if name == "ex2.8":
        return _ex28({"kind": "rational"}, name)
    if name == "ex2.8-gf2":
        return _ex28({"kind": "prime", "p": 2}, name)
    raise KeyError(f"unknown builtin instance {name!r}")


def builtin_instance(name: str) -> Instance:
    return parse_instance(builtin_doc(name))
