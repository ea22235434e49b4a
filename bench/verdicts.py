"""Output checks that do not trust the program's own answers.

A valid generated instance must pass everything, with the dimensions
the generator predicts from its combinatorics.  A broken one must fail
with the injected fault named, and every claim marked conditional.
Each check returns a list of problems; an empty list means the output
is right.
"""

CLAIM_IDS = ("thm2.2", "prop2.3", "prop2.4", "prop2.5", "thm2.6", "rem2.7", "thm2.9")
SECTIONS = {
    "validate": ("groupoid", "algebra-b", "kg-weak-hopf", "kg-dual-weak-hopf",
                 "module-algebra", "decomposition"),
    "hopf-check": ("groupoid", "kg", "kg-dual"),
}


def status_lines(stdout):
    """{section: passed} from the unindented PASS/FAIL lines."""
    out = {}
    for line in stdout.splitlines():
        word, _, name = line.partition(" ")
        if word in ("PASS", "FAIL"):
            out[name.strip()] = word == "PASS"
    return out


def _claims(report):
    problems = []
    ids = tuple(c["claim"] for c in report["claims"])
    if ids != CLAIM_IDS:
        problems.append(f"claims {ids} instead of {CLAIM_IDS}")
    for c in report["claims"]:
        d = c["dimensions"]
        if c["claim"] in ("thm2.2", "rem2.7") and \
                d.get("kernel", -1) + d.get("image", -1) != d.get("domain"):
            problems.append(f"{c['claim']}: kernel + image != domain in {d}")
    return problems


def _findings(report):
    return {f["check"] for section in report["validation"].values()
            for f in section["findings"]}


def check_valid(cmd, rc, stdout, report, expected):
    """Output of `cmd` on a valid instance; expected from expected_dims."""
    problems = [] if rc == 0 else [f"exit {rc}, expected 0"]
    if cmd != "verify":
        status = status_lines(stdout)
        want = {name: True for name in SECTIONS[cmd]}
        if status != want:
            problems.append(f"sections {status}, expected all of {want} to pass")
        return problems
    problems += _claims(report)
    for c in report["claims"]:
        if not c["holds"] or c["conditional"]:
            problems.append(f"{c['claim']}: holds={c['holds']} "
                            f"conditional={c['conditional']}")
    dims = report["claims"][0]["dimensions"]
    got = {"domain": dims.get("domain"), "image": dims.get("image"),
           "kernel": dims.get("kernel")}
    got.update({s: report["strata"].get(s) for s in ("A1", "A7", "A3")})
    if got != expected:
        problems.append(f"dimensions {got}, closed forms give {expected}")
    return problems


def check_broken(cmd, rc, stdout, report, fault, groupoid_ok):
    """Output of `cmd` on an instance broken by `fault`."""
    want_rc = 0 if cmd == "hopf-check" and groupoid_ok else 1
    problems = [] if rc == want_rc else [f"exit {rc}, expected {want_rc}"]
    if cmd != "verify":
        status = status_lines(stdout)
        if set(status) != set(SECTIONS[cmd]):
            problems.append(f"sections {sorted(status)}, expected {SECTIONS[cmd]}")
        if want_rc == 1 and f"    {fault}:" not in stdout:
            problems.append(f"{fault} is not named")
        return problems
    problems += _claims(report)
    loose = [c["claim"] for c in report["claims"] if not c["conditional"]]
    if loose:
        problems.append(f"claims not marked conditional: {loose}")
    if fault not in _findings(report):
        problems.append(f"{fault} is not among the findings {sorted(_findings(report))}")
    return problems
