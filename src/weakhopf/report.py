"""Structured check reports: every validator returns a Report whose
findings carry the violated check name and a concrete witness.  dumps
writes a report document as JSON."""

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

WITNESS_CAP = 12  # findings kept per check in serialized output


@dataclass
class Finding:
    check: str
    witness: object = None
    detail: str = ""

    def to_json(self):
        doc = {"check": self.check}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class Report:
    title: str
    findings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, check, witness=None, detail=""):
        self.findings.append(Finding(check, witness, detail))

    def merge(self, other: "Report"):
        self.findings.extend(other.findings)
        self.notes.extend(other.notes)
        for k, v in other.info.items():
            self.info.setdefault(k, v)

    def checks_failed(self):
        return list(dict.fromkeys(f.check for f in self.findings))

    def to_json(self):
        by_check = {}
        for f in self.findings:
            by_check.setdefault(f.check, []).append(f)
        findings = []
        for check in self.checks_failed():
            items = by_check[check]
            findings.append({
                "check": check,
                "count": len(items),
                "witnesses": [f.to_json() for f in items[:WITNESS_CAP]],
            })
        return {
            "title": self.title,
            "ok": self.ok,
            "findings": findings,
            "notes": list(self.notes),
            "info": dict(self.info),
        }


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.  With an
    indent the standard library encodes in pure Python; this walks dicts
    with str keys, lists, tuples, str, bool, None and int itself, and hands
    any other value to json.dumps, indented to its depth."""
    out = []
    _dump(doc, out, "\n")
    return "".join(out)


def _dump(x, out, newline):
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif x is None or t is bool:
        out.append("null" if x is None else "true" if x else "false")
    elif t is int:
        out.append(int.__repr__(x))
    elif t is dict and all(type(k) is str for k in x):
        if not x:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for k in sorted(x):
            out += (sep, inner, _quote(k), ": ")
            _dump(x[k], out, inner)
            sep = ","
        out += (newline, "}")
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for v in x:
            out += (sep, inner)
            _dump(v, out, inner)
            sep = ","
        out += (newline, "]")
    else:
        out.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", newline))
