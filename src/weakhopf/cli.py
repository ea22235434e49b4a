"""Command line interface.

    wh validate   <file-or-builtin>
    wh verify     <file-or-builtin> [--claim <id|all>] [--json <out>]
    wh builtin    <name> [--out <file>]
    wh hopf-check <file-or-builtin>

Exit codes: 0 everything holds, 1 violations or failed claims, 2 parse,
reference or usage errors, 3 an internal error (any other exception).
Codes 2 and 3 print one line on stderr.  Set WH_COLOR=0|1 to force plain
or colored output.  Reports are deterministic: the same instance yields
byte-identical JSON on every run.
"""

import argparse
import contextlib
import functools
import os
import stat
import sys

from . import __version__
from .duality import (CLAIM_IDS, CLASSIFIER_RULES, VerificationContext,
                      element_str, phi_is_homomorphism, right_linearity)
from .instances import (BUILTIN_NAMES, InstanceFormatError, builtin_doc,
                        builtin_instance, load_instance)
from .report import dumps
from .smash import find_unit
from .walg import check_antipode, check_weak_bialgebra

CONVENTIONS = {
    "composition": "a product g*h exists iff tgt(g) == src(h); then "
                   "src(g*h) == src(g) and tgt(g*h) == tgt(h), and g*inv(g) "
                   "is the identity at src(g)",
    "target_counit": "counit_t(x) = sum eps(1_1 x) 1_2 over the coproduct of "
                     "the unit; on a groupoid algebra it sends u_g to the "
                     "identity at src(g)",
    "component_of_morphism": "the component attached to a morphism l is the "
                             "component of tgt(l); 'a lies in B_g' means "
                             "component(a) == tgt(g)",
    "image_form": "'a has the form g.b' is read as membership of a in "
                  "span{g.b : b in the basis of B}",
    "double_smash_product": "(a#u_m#r_n)(b#u_s#r_t) is computed by splitting "
                            "r_n through the dual coproduct: it equals "
                            "a(m.b)#u_{ms}#r_t when s*t exists and equals n, "
                            "else 0",
    "identity_candidates": "both the all-morphism sum and the per-object sum "
                           "are constructed and tested; in the group case the "
                           "first is |G| times the second",
    "classifier": CLASSIFIER_RULES,
}


def _color_enabled():
    env = os.environ.get("WH_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stdout.isatty()


def _mark(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _resolve(target: str):
    if os.path.exists(target):
        return load_instance(target)
    if target in BUILTIN_NAMES:
        return builtin_instance(target)
    raise InstanceFormatError(
        f"{target!r} is neither a readable file nor a builtin instance "
        f"(builtins: {', '.join(BUILTIN_NAMES)})")


def _weak_hopf_report(alg, rec):
    rep = check_weak_bialgebra(alg, rec)
    rep.merge(check_antipode(alg, rec))
    return rep


def _validation_reports(ctx: VerificationContext):
    return [
        ("groupoid", ctx.groupoid_report),
        ("algebra-b", ctx.b_report),
        ("kg-weak-hopf", _weak_hopf_report(ctx.kg, ctx.kg_rec)),
        ("kg-dual-weak-hopf", _weak_hopf_report(ctx.kgstar, ctx.kgstar_rec)),
        ("module-algebra", ctx.module_report),
        ("decomposition", ctx.decomp_report),
    ]


def _write(path, text, fh=None) -> bool:
    """Write text to path, or through fh, a handle open on path in append
    mode, emptying a nonempty regular file first (a FIFO or a device is
    written as it is); or print why it cannot be written and return False."""
    try:
        with fh or open(path, "w", encoding="utf-8") as out:
            if fh and stat.S_ISREG((st := os.fstat(fh.fileno())).st_mode) and st.st_size:
                fh.truncate(0)
            out.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _print_reports(reports, witness) -> int:
    """PASS/FAIL per report and a line per failed check, with the first
    witness when witness is set; the exit code."""
    ok = True
    for name, rep in reports:
        ok = ok and rep.ok
        print(f"{_mark(rep.ok)} {name}")
        if not rep.ok:
            for item in rep.to_json()["findings"]:
                example = f", e.g. {item['witnesses'][0].get('witness')!r}" if witness else ""
                print(f"    {item['check']}: {item['count']} violation(s){example}")
    return 0 if ok else 1


def cmd_validate(args) -> int:
    return _print_reports(_validation_reports(VerificationContext(_resolve(args.instance))), True)


def _claim_line(res) -> str:
    dims = " ".join(f"{k}={v}" for k, v in res.dimensions.items()
                    if not isinstance(v, dict))
    flag = " (conditional)" if res.conditional else ""
    return f"{_mark(res.holds)} {res.claim}{flag}  {dims}".rstrip()


def build_report_doc(ctx: VerificationContext, results) -> dict:
    validation = {}
    all_ok = True
    for name, rep in _validation_reports(ctx):
        validation[name] = rep.to_json()
        all_ok = all_ok and rep.ok
    phi_rep = phi_is_homomorphism(ctx.phi, ctx.dsm, ctx.validated)
    lin_rep = right_linearity(ctx.phi, ctx.bsm, ctx.B, ctx.validated)
    validation["phi-multiplicative"] = phi_rep.to_json()
    validation["phi-image-right-linear"] = lin_rep.to_json()
    # neither smash product is assumed unital; report what a search finds.
    # The closed forms (1_(1).1_B)#1_(2) are the candidates: sum_e (e.1_B)#u_e
    # for B#KG, at x for the positions pos(x, n) of y_obj, and y_obj for B#KG#KG*
    units = {}
    split = ctx.dsm.meta["positions"].split
    smash_candidate = {split(q)[0]: c for q, c in ctx.y_obj.items()}
    for key, alg, candidate in (("smash", ctx.bsm, smash_candidate),
                                ("double_smash", ctx.dsm, ctx.y_obj)):
        u = find_unit(alg, candidate)
        units[key] = None if u is None else element_str(ctx.field, u, alg.label)
    return {
        "engine": {"name": "weakhopf", "version": __version__},
        "instance": {
            "name": ctx.instance.name,
            "digest": ctx.instance.digest(),
            "field": ctx.field.describe(),
        },
        "conventions": CONVENTIONS,
        "strata": dict(ctx.strata_dims),
        "units": units,
        "validation": validation,
        "diagnostics": ctx.diagnostics,
        "claims": [r.to_json() for r in results],
    }


def cmd_verify(args) -> int:
    claims = CLAIM_IDS if args.claim == "all" else (args.claim,)
    for cid in claims:
        if cid not in CLAIM_IDS:
            print(f"error: unknown claim id {cid!r}; known: "
                  f"{', '.join(CLAIM_IDS)} or 'all'", file=sys.stderr)
            return 2
    inst = _resolve(args.instance)
    try:  # the report's handle, opened before any verification work
        fh = args.json and open(args.json, "a", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    with fh or contextlib.nullcontext():  # closed on every way out
        ctx = VerificationContext(inst)
        results = [ctx.verify(cid) for cid in claims]
        doc = build_report_doc(ctx, results)

        name = ctx.instance.name or args.instance
        print(f"instance {name}  field={ctx.field.describe()}  "
              f"digest={doc['instance']['digest'][:12]}")
        for res in results:
            print(_claim_line(res))
            for note in res.notes:
                print(f"    {note}")
        strata = " ".join(f"{k}={v}" for k, v in sorted(ctx.strata_dims.items()))
        print(f"strata: {strata}")
        if doc["diagnostics"]:
            print("diagnostics:")
            for d in doc["diagnostics"]:
                print(f"    {d}")

        if args.json:
            if not _write(args.json, dumps(doc) + "\n", fh):
                return 2
            print(f"report written to {args.json}")
        valid = all(section["ok"] for section in doc["validation"].values())
        return 0 if valid and all(r.holds for r in results) else 1


def cmd_builtin(args) -> int:
    try:
        doc = builtin_doc(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    text = dumps(doc) + "\n"
    if args.out:
        if not _write(args.out, text):
            return 2
        print(f"wrote {args.name} to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_hopf_check(args) -> int:
    inst = _resolve(args.instance)
    from .groupoid import validate_groupoid
    from .walg import dual_weak_hopf, groupoid_algebra

    grep = validate_groupoid(inst.groupoid)
    kg, kg_rec = groupoid_algebra(inst.field, inst.groupoid)
    kgstar, kgstar_rec = dual_weak_hopf(kg, kg_rec)
    reports = [("groupoid", grep), ("kg", _weak_hopf_report(kg, kg_rec)),
               ("kg-dual", _weak_hopf_report(kgstar, kgstar_rec))]
    return _print_reports(reports, False)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="wh",
        description="exact verification engine for groupoid-graded smash "
                    "product duality")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all structural validators")
    p.add_argument("instance", help="instance file or builtin name")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("verify", help="verify structural claims")
    p.add_argument("instance", help="instance file or builtin name")
    p.add_argument("--claim", default="all",
                   help="claim id or 'all' (default: all)")
    p.add_argument("--json", metavar="OUT", default=None,
                   help="write the machine-readable report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("builtin", help="emit a builtin instance file")
    p.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(fn=cmd_builtin)

    p = sub.add_parser("hopf-check", help="axiom checks for the groupoid "
                                          "algebra and its dual")
    p.add_argument("instance", help="instance file or builtin name")
    p.set_defaults(fn=cmd_hopf_check)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the engine, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
