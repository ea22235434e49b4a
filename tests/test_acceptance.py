"""Acceptance criteria, one test each, printing one PASS/FAIL line per
criterion.  Tolerances are exact everywhere: these are identities in the
field, not approximations.  Stated time budgets are asserted."""

import json
import time

import pytest

from conftest import compose, context, disjoint_union, pair_groupoid, skew_ring
from oracle import LabelView, flatten, kernel_vectors, rank
from oracle import sparse_subspace_equal as subspace_equal, stratum_vectors
from weakhopf.cli import main
from weakhopf.duality import KERNEL_STRATA, UNCLASSIFIED
from weakhopf.exactmath import QQ
from weakhopf.groupoid import builtin_i2, cyclic_group, validate_groupoid
from weakhopf.walg import (check_antipode, check_weak_bialgebra,
                           dual_weak_hopf, groupoid_algebra)

VALID_INSTANCES = ("z2-trivial", "z3-trivial", "i2-swap")
ALL_INSTANCES = VALID_INSTANCES + ("ex2.8", "ex2.8-gf2")


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_weak_hopf_axiom_suite(capsys):
    library = [cyclic_group(2), cyclic_group(3), builtin_i2(),
               pair_groupoid(2), disjoint_union(cyclic_group(2), builtin_i2()),
               pair_groupoid(3)]
    assert all(len(g.morphisms) <= 12 for g in library)
    t0 = time.time()
    ok = True
    for g in library:
        ok = ok and validate_groupoid(g).ok
        kg, kg_rec = groupoid_algebra(QQ, g)
        dual, dual_rec = dual_weak_hopf(kg, kg_rec)
        for alg, rec in ((kg, kg_rec), (dual, dual_rec)):
            ok = ok and check_weak_bialgebra(alg, rec).ok
            ok = ok and check_antipode(alg, rec).ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    with capsys.disabled():
        _line(1, ok, f"groupoid algebra and dual pass all weak Hopf axioms "
                     f"on {len(library)} library groupoids in {elapsed:.2f}s")


def test_criterion_2_classical_duality(capsys):
    ok = True
    for name, n in (("z2-trivial", 2), ("z3-trivial", 3)):
        ctx = context(name)
        g, phi = ctx.groupoid, LabelView(ctx).phi
        # independent oracle: each phi column is the expected matrix unit
        # (row m*n, column n), and those exhaust all n^2 of them
        seen = set()
        for (b, m, nn) in phi.domain_basis:
            endo = phi.columns.get((b, m, nn), {})
            want = {(b, nn): {(b, compose(g, m, nn)): ctx.field.one}}
            ok = ok and endo == want
            seen.add((compose(g, m, nn), nn))
        ok = ok and len(seen) == n * n
        ok = ok and rank(flatten(ctx.phi)) == n * n
        ok = ok and ctx.ki.dims == {"domain": n * n, "kernel": 0, "image": n * n}
    with capsys.disabled():
        _line(2, ok, "phi is bijective onto the n^2-dim endomorphism space "
                     "for Z/2 and Z/3 with B = K (matrix-unit oracle)")


def test_criterion_3_kernel_stratification_i2(capsys):
    t0 = time.time()
    ctx = context("i2-swap")
    res = ctx.verify("thm2.2")
    elapsed = time.time() - t0
    eq = subspace_equal(ctx.field, kernel_vectors(ctx),
                        stratum_vectors(ctx, KERNEL_STRATA))
    ok = res.holds and not res.conditional and eq and elapsed < 5
    with capsys.disabled():
        _line(3, ok, f"i2-swap kernel (dim {ctx.ki.dims['kernel']}) equals the "
                     f"span of A3+A4+A5+A6 and misses all image strata "
                     f"({elapsed:.2f}s)")


def test_criterion_4_unital_corner(capsys):
    ok = True
    checked = []
    for name in ALL_INSTANCES:
        ctx = context(name)
        if ctx.strata_dims[UNCLASSIFIED] != 0:
            continue
        checked.append(name)
        for cid in ("prop2.3", "prop2.4", "prop2.5"):
            res = ctx.verify(cid)
            ok = ok and res.holds
    ok = ok and set(VALID_INSTANCES) <= set(checked)
    with capsys.disabled():
        _line(4, ok, f"multiplicative closure, identity candidate and "
                     f"annihilation hold on every totally classified instance "
                     f"({', '.join(checked)})")


def test_criterion_5_decomposition_bookkeeping(capsys):
    ok = True
    for name in ALL_INSTANCES:
        ctx = context(name)
        d = ctx.ki.dims
        ok = ok and d["kernel"] + d["image"] == d["domain"]  # rank-nullity, all
    for name in VALID_INSTANCES:
        ctx = context(name)
        ok = ok and ctx.verify("thm2.6").holds
        ok = ok and ctx.verify("rem2.7").holds
    with capsys.disabled():
        _line(5, ok, "whole = kernel (+) image strata with exact rank-nullity "
                     "bookkeeping on every valid instance")


def test_criterion_6_worked_example_end_to_end(tmp_path, capsys):
    t0 = time.time()
    ok = True
    validated_anywhere = False
    for name in ("ex2.8", "ex2.8-gf2"):
        ctx = context(name)
        out = tmp_path / f"{name}.json"
        code = main(["verify", name, "--claim", "all", "--json", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        ok = ok and len(doc["claims"]) == 7          # the run completes
        ok = ok and doc["strata"]["A6"] == 0         # A6 stays empty
        if ctx.module_report.ok:
            validated_anywhere = True
            vecs = stratum_vectors(ctx, ("A3", "A4", "A5"))
            ok = ok and subspace_equal(ctx.field, kernel_vectors(ctx), vecs)
        else:
            # discrepancies must surface as named diagnostics
            diags = doc["diagnostics"]
            ok = ok and any("module-axiom" in d for d in diags)
            ok = ok and any("classification partial" in d for d in diags)
            ok = ok and code == 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    note = "action validates over neither field; diagnostics name the axioms" \
        if not validated_anywhere else "kernel compared against A3+A4+A5"
    with capsys.disabled():
        _line(6, ok, f"worked example runs end to end over Q and GF(2) "
                     f"({note}; {elapsed:.2f}s)")


def test_criterion_7_skew_ring_comparison(capsys):
    ok = True
    for name in VALID_INSTANCES:
        res = context(name).verify("thm2.9")
        ok = ok and res.holds and not res.conditional
    with capsys.disabled():
        _line(7, ok, "D1 = ker(phi o psi), whole = C (+) D1, exactness dims "
                     "and psi(B0) = span(A1) on i2-swap and both group instances")


def test_criterion_8_associativity(capsys):
    ok = True
    for name in VALID_INSTANCES:
        ctx = context(name)
        ok = ok and ctx.bsm.associativity_violations() == []
        ok = ok and ctx.dsm.associativity_violations() == []
        ok = ok and skew_ring(ctx).associativity_violations() == []
    # the broken worked example is checked too: the checker must run and
    # report its genuine violations rather than assume anything
    for name in ("ex2.8", "ex2.8-gf2"):
        ctx = context(name)
        v = [tuple(map(ctx.bsm.label, t)) for t in ctx.bsm.associativity_violations()]
        ok = ok and (("e1", "s"), ("e3", "s"), ("e1", "s")) in v
        ok = ok and ctx.dsm.associativity_violations() != []
    with capsys.disabled():
        _line(8, ok, "both smash products and the skew ring are associative on "
                     "every basis triple of every valid instance; the broken "
                     "example's violations are detected and reported")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    ok = True
    for name in ("i2-swap", "ex2.8"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", name, "--claim", "all", "--json", str(a)])
        main(["verify", name, "--claim", "all", "--json", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()
    with capsys.disabled():
        _line(9, ok, "two verify runs produce byte-identical JSON reports")


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("WH_COLOR", "0")
