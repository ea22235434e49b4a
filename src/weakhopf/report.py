"""Structured check reports: every validator returns a Report whose
findings carry the violated check name and a concrete witness."""

from dataclasses import dataclass, field

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
