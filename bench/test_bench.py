"""Tests of the benchmark itself, on the smoke setting (tiny instances).

Run with `python -m pytest bench -q` from the repository root.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import verdicts
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

BENCHMARK = os.path.join(run.CHECKOUT, "BENCHMARK.json")


def bench(*args, cwd=run.CHECKOUT, script=None):
    script = script or os.path.join(run.HERE, "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_is_correct(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    specs = workloads.workload(workload, 7, smoke=True)
    broken = not all(s.valid for s in specs)
    assert out["correct"] is True
    assert out["attempted"] == 3 * len(specs) + broken
    # the only failures allowed are the two known faults of broken-gfp
    log = proc.stderr.splitlines()
    raised = [line for line in log if ": raised " in line]
    differ = [line for line in log if line.startswith("reports differ")]
    assert all(line.startswith("missing-composition ") for line in raised)
    assert all(line.endswith(": wrong-composition") for line in differ)
    assert out["failed"] == len(raised) + len(differ)
    assert broken or out["failed"] == 0
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_failure_bookkeeping(tmp_path):
    from weakhopf.cli import main
    targets = [run.Target(s, str(tmp_path))
               for s in workloads.workload("pair-q", 1, smoke=True)]
    for t in targets:
        t.write()

    def faulty(argv):
        if argv[:2] == ["validate", targets[0].path]:
            raise KeyError("raised: failed, not wrong")
        if argv[:2] == ["hopf-check", targets[1].path]:
            return 1        # wrong exit code, no PASS lines: failed and wrong
        return main(argv)

    r = run.Run(targets, log=lambda msg: None)
    for _ in range(2):
        r.round(faulty)
    assert (r.attempted, r.failed) == (2 * 3 * len(targets), 4)
    assert len(r.problems) == 4
    assert all(p.startswith(f"{targets[1].spec.name} hopf-check: ")
               for p in r.problems)
    assert r.rounds() == 2


def test_traced_run_reports_every_layer():
    out = result("--workload", "pair-q", "--seed", "1", "--seconds", "0",
                 "--trace", "1", "--smoke")
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert out["correct"] is True
    assert sorted(out["metrics"]) == sorted(names)
    assert out["metrics"]["exactmath.field_ops"]["value"] > 0


def test_generated_instances_are_seeded():
    a = [workloads.to_doc(s) for s in workloads.workload("broken-gfp", 3)]
    b = [workloads.to_doc(s) for s in workloads.workload("broken-gfp", 3)]
    assert a == b
    orders = {tuple(s.name for s in workloads.workload("pair-q", seed))
              for seed in range(6)}
    assert len(orders) > 1


def test_closed_forms_on_a_hand_counted_instance():
    # pair(2), fibre 1: 4 morphisms, 8 composable pairs of which 4 start
    # with a loop, 8 non-composable pairs, dim B = 2
    dims = workloads.expected_dims(workloads.pair_instance(2, 1))
    assert dims == {"domain": 32, "image": 8, "kernel": 24,
                    "A1": 4, "A7": 4, "A3": 16}


def _valid_report():
    spec = workloads.pair_instance(2, 1)
    doc = workloads.to_doc(spec)
    from weakhopf.cli import build_report_doc
    from weakhopf.duality import VerificationContext
    from weakhopf.instances import parse_instance
    ctx = VerificationContext(parse_instance(doc))
    report = build_report_doc(ctx, ctx.verify_all())
    return json.loads(json.dumps(report)), workloads.expected_dims(spec)


def test_checks_reject_wrong_outputs():
    report, expected = _valid_report()
    assert verdicts.check_valid("verify", 0, "", report, expected) == []

    off = copy.deepcopy(report)
    off["strata"]["A7"] += 1
    assert verdicts.check_valid("verify", 0, "", off, expected)
    failing = copy.deepcopy(report)
    failing["claims"][3]["holds"] = False
    assert verdicts.check_valid("verify", 1, "", failing, expected)
    short = copy.deepcopy(report)
    short["claims"].pop()
    assert verdicts.check_valid("verify", 0, "", short, expected)

    # a valid report passed off as the output on a broken instance
    assert verdicts.check_broken("verify", 0, "", report, "module-axiom-i", True)
    assert verdicts.check_broken("validate", 1, "FAIL groupoid\n",
                                 None, "composition-missing", False)
    stdout = "\n".join(f"PASS {s}" for s in verdicts.SECTIONS["hopf-check"])
    assert verdicts.check_valid("hopf-check", 0, stdout, None, expected) == []
    assert verdicts.check_valid("hopf-check", 0, stdout.replace("PASS kg\n", ""),
                                None, expected)


def test_tracer_spans_add_up_and_are_removed():
    import weakhopf.cli
    from weakhopf import exactmath
    original = (weakhopf.cli.find_unit, exactmath.Rationals.add)
    tracer = spans.Tracer()
    tracer.install()
    try:
        main = tracer.root(weakhopf.cli.main)
        for _ in range(2):
            first = len(tracer.spans)
            assert main(["hopf-check", "z3-trivial"]) == 0
            assert main(["verify", "i2-swap", "--claim", "all"]) == 0
            times, counts = tracer.self_totals(first, len(tracer.spans))
            roots = [s for s in tracer.spans[first:] if s[3] == -1]
            wall = sum(t1 - t0 for _, t0, t1, _, _ in roots)
            assert sum(times.values()) == pytest.approx(wall, rel=1e-9)
            assert sum(counts.values()) == sum(s[4] for s in roots)
            assert set(times) <= set(spans.SPAN_NAMES)
            if first:
                assert counts == previous
            previous = counts
    finally:
        tracer.uninstall()
    assert (weakhopf.cli.find_unit, exactmath.Rationals.add) == original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pair-q", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_malformed_report_is_wrong_output_not_a_crash(tmp_path):
    t = run.Target(workloads.pair_instance(2, 1), str(tmp_path))
    for text in ('{"claims": []}', "not json"):
        with open(t.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert t.check("verify", 0, "")
