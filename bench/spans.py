"""Spans recorded from outside the program.

`Tracer.install()` replaces each public function of weakhopf at the name
its caller looks it up by (for example `weakhopf.cli.find_unit`, which
`build_report_doc` reads from the cli module's globals) with a wrapper
that records one span per call: name, start, end, parent and the number
of field operations (add, sub, mul, neg, inv) made while it was open.
`uninstall()` puts the originals back.  Spans stay in memory until the
caller writes them out.
"""

import json
import time
from collections import defaultdict

from verdicts import CLAIM_IDS

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

# (module, attribute path, span name); the attribute is the name the
# caller resolves at call time, so patching it there reaches every call
PATCHES = [
    ("cli", "load_instance", "instances.load_instance"),
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid"),
    ("walg", "groupoid_algebra", "walg.groupoid_algebra"),
    ("walg", "dual_weak_hopf", "walg.dual_weak_hopf"),
    ("cli", "check_weak_bialgebra", "walg.check_weak_bialgebra"),
    ("cli", "check_antipode", "walg.check_antipode"),
    ("walg", "FinAlgebra.associativity_violations", "walg.associativity_violations"),
    ("action", "check_module_algebra", "action.check_module_algebra"),
    ("action", "component_decomposition", "action.component_decomposition"),
    ("action", "derive_dfap_action", "action.derive_dfap_action"),
    ("action", "skew_groupoid_ring", "action.skew_groupoid_ring"),
    ("smash", "smash_product", "smash.smash_product"),
    ("smash", "double_smash", "smash.double_smash"),
    ("cli", "find_unit", "smash.find_unit"),
    ("duality", "build_phi", "duality.build_phi"),
    ("duality", "classify_basis", "duality.classify_basis"),
    ("duality", "kernel_and_image", "duality.kernel_and_image"),
    ("duality", "identity_candidates", "duality.identity_candidates"),
    ("cli", "phi_is_homomorphism", "duality.phi_is_homomorphism"),
    ("cli", "right_linearity", "duality.right_linearity"),
    ("exactmath", "rref", "exactmath.rref"),
    ("exactmath", "Echelon.add", "exactmath.echelon"),
    ("exactmath", "Echelon.contains", "exactmath.echelon"),
] + [("duality", f"VerificationContext._verify_{cid.replace('.', '_')}",
      f"duality.claim.{cid}") for cid in CLAIM_IDS]

# spans whose name also depends on the algebra passed in
BY_ALGEBRA = {
    "walg.check_weak_bialgebra": {"KG": "kg", "KG*": "kgstar"},
    "smash.find_unit": {"B#KG": "smash", "B#KG#KG*": "double_smash"},
}

ROOT = "cli"

# every span the traced commands open, in metric order
SPAN_NAMES = ([name for _, _, name in PATCHES if name not in BY_ALGEBRA
               and name != "exactmath.echelon"]
              + [f"{name}.{leg}" for name, legs in BY_ALGEBRA.items()
                 for leg in legs.values()]
              + ["exactmath.echelon", ROOT])


def time_metric(span):
    return "cli.self_s" if span == ROOT else f"{span}_s"


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, field ops]
        self.stack = []
        self.ops = 0
        self._saved = []

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        legs = BY_ALGEBRA.get(name)

        def traced(*args, **kwargs):
            label = f"{name}.{legs[args[0].name]}" if legs else name
            idx = len(self.spans)
            self.spans.append([label, 0.0, 0.0,
                               self.stack[-1] if self.stack else -1, 0])
            self.stack.append(idx)
            ops0 = self.ops
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                rec = self.spans[idx]
                rec[1], rec[2], rec[4] = t0, t1, self.ops - ops0
        return traced

    def _counted(self, fn):
        def counted(*args):
            self.ops += 1
            return fn(*args)
        return counted

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import weakhopf.cli
        from weakhopf import action, duality, exactmath, groupoid, smash, walg
        modules = {"cli": weakhopf.cli, "action": action, "duality": duality,
                   "exactmath": exactmath, "groupoid": groupoid,
                   "smash": smash, "walg": walg}
        for mod, path, name in PATCHES:
            owner, attr = _resolve(modules[mod], path)
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for cls in (exactmath.Rationals, exactmath.PrimeField):
            for op in FIELD_OPS:
                self._patch(cls, op, self._counted(getattr(cls, op)))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def root(self, fn):
        """The command entry point, recorded as the root span."""
        return self.span(ROOT, fn)

    def self_totals(self, first, last):
        """Self time and self field ops per span name, over spans[first:last]
        (a slice that holds whole root spans)."""
        child_time = defaultdict(float)
        child_ops = defaultdict(int)
        for name, t0, t1, parent, ops in self.spans[first:last]:
            if parent >= first:
                child_time[parent] += t1 - t0
                child_ops[parent] += ops
        times = defaultdict(float)
        counts = defaultdict(int)
        for i, (name, t0, t1, parent, ops) in enumerate(self.spans[first:last], first):
            times[name] += t1 - t0 - child_time[i]
            counts[name] += ops - child_ops[i]
        return times, counts

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, field ops."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
