import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.cli import main
from weakhopf.instances import (BUILTIN_NAMES, builtin_doc, builtin_instance,
                                dump_instance, load_instance, parse_instance)


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("WH_COLOR", "0")


def test_builtin_roundtrip(tmp_path):
    for name in BUILTIN_NAMES:
        inst = builtin_instance(name)
        path = tmp_path / f"{name}.json"
        path.write_text(dump_instance(inst), encoding="utf-8")
        again = load_instance(path)
        assert again.digest() == inst.digest()
        assert again.name == inst.name


def test_builtin_docs_parse_to_same_digest():
    for name in BUILTIN_NAMES:
        a = parse_instance(builtin_doc(name))
        b = parse_instance(json.loads(json.dumps(builtin_doc(name))))
        assert a.digest() == b.digest()


def test_ex28_builtin_action_values():
    inst = builtin_instance("ex2.8")
    F = inst.field
    assert inst.action.act_basis("g", "e3") == {"e1": F.one}
    assert inst.action.act_basis("t", "e3") == {"e2": F.one}
    assert len(inst.groupoid.morphisms) == 4
    assert inst.algebra.dim == 3


def test_z2_builtin_shape():
    inst = builtin_instance("z2-trivial")
    assert len(inst.groupoid.objects) == 1
    assert len(inst.groupoid.morphisms) == 2
    assert inst.algebra.dim == 1


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "z2-trivial"]) == 0
    assert main(["validate", "ex2.8"]) == 1
    out = capsys.readouterr().out
    assert "module-axiom-ii" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", "no-such-instance"]) == 2


def test_validate_catches_dangling_reference(tmp_path, capsys):
    doc = builtin_doc("z2-trivial")
    doc["action"][0][0] = "ghost"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(p)]) == 2


def test_verify_exit_codes(capsys):
    assert main(["verify", "z2-trivial", "--claim", "all"]) == 0
    assert main(["verify", "i2-swap", "--claim", "thm2.2"]) == 0
    out = capsys.readouterr().out
    assert "PASS thm2.2" in out
    assert main(["verify", "ex2.8", "--claim", "all"]) == 1
    assert main(["verify", "i2-swap", "--claim", "thm9.9"]) == 2


def test_verify_exits_1_on_validation_violations(tmp_path, monkeypatch, capsys):
    # every claim holds (conditionally) on i2-swap with a spurious
    # composition entry, but the groupoid validator reports the entry
    from conftest import spurious_i2_doc
    p = tmp_path / "spurious.json"
    p.write_text(json.dumps(spurious_i2_doc()), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["verify", str(p), "--json", str(report)]) == 1
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert all(c["holds"] for c in doc["claims"])
    assert not doc["validation"]["groupoid"]["ok"]

    # one failing validation section is enough on an otherwise clean instance
    from weakhopf import cli
    from weakhopf.report import Report

    def planted(*args):
        rep = Report("image endomorphisms are right B-linear")
        rep.add("right-linearity", "planted")
        return rep
    assert main(["verify", "z2-trivial"]) == 0
    monkeypatch.setattr(cli, "right_linearity", planted)
    assert main(["verify", "z2-trivial"]) == 1
    assert "FAIL" not in capsys.readouterr().out


def test_verify_report_structure(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "i2-swap", "--claim", "all", "--json", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["engine"]["name"] == "weakhopf"
    assert doc["instance"]["name"] == "i2-swap"
    assert doc["strata"]["A1"] == 4
    assert doc["strata"]["unclassified"] == 0
    assert {c["claim"] for c in doc["claims"]} == \
        {"thm2.2", "prop2.3", "prop2.4", "prop2.5", "thm2.6", "rem2.7", "thm2.9"}
    assert all(c["holds"] for c in doc["claims"])
    # convention notes ride along so verdicts stay auditable
    conv = doc["conventions"]
    assert "target_counit" in conv and "classifier" in conv
    assert doc["validation"]["module-algebra"]["ok"]
    assert doc["validation"]["phi-multiplicative"]["ok"]
    # no unit is asserted for either smash product, only searched for
    assert doc["units"] == {"smash": None, "double_smash": None}


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "ex2.8", "--claim", "all", "--json", str(a)]) == 1
    assert main(["verify", "ex2.8", "--claim", "all", "--json", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


def test_verify_single_claim_report(tmp_path):
    out = tmp_path / "one.json"
    main(["verify", "z3-trivial", "--claim", "prop2.4", "--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["claims"]) == 1
    assert doc["claims"][0]["claim"] == "prop2.4"


def test_group_double_smash_unit_reported(tmp_path):
    out = tmp_path / "z2.json"
    main(["verify", "z2-trivial", "--claim", "prop2.4", "--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["units"]["smash"] == "b#u_e"
    assert doc["units"]["double_smash"] == "b#u_e#r_a + b#u_e#r_e"


def test_builtin_command(tmp_path, capsys):
    assert main(["builtin", "i2-swap"]) == 0
    emitted = capsys.readouterr().out
    assert json.loads(emitted)["name"] == "i2-swap"
    out = tmp_path / "x.json"
    assert main(["builtin", "ex2.8-gf2", "--out", str(out)]) == 0
    assert load_instance(out).field.p == 2
    assert main(["builtin", "nope"]) == 2


def test_hopf_check(capsys):
    assert main(["hopf-check", "i2-swap"]) == 0
    out = capsys.readouterr().out
    assert "PASS kg" in out and "PASS kg-dual" in out
    # the broken example still has a perfectly good groupoid algebra
    assert main(["hopf-check", "ex2.8"]) == 0


def test_color_env(monkeypatch, capsys):
    monkeypatch.setenv("WH_COLOR", "1")
    main(["validate", "z2-trivial"])
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.setenv("WH_COLOR", "0")
    main(["validate", "z2-trivial"])
    assert "\x1b[" not in capsys.readouterr().out


def test_gf2_coefficient_parsing():
    inst = builtin_instance("ex2.8-gf2")
    assert inst.field.describe() == {"kind": "prime", "p": 2}
    doc = inst.to_doc()
    assert doc["field"] == {"kind": "prime", "p": 2}


def test_bad_field_spec_rejected():
    from weakhopf.instances import InstanceFormatError
    doc = builtin_doc("z2-trivial")
    doc["field"] = {"kind": "prime", "p": 10}
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)


def test_missing_composition_entry_is_reported_not_raised(tmp_path, capsys):
    # Z/2 with a*a left out of the table: every command analyses the
    # instance, exits 1 and names the missing entry
    doc = builtin_doc("z2-trivial")
    doc["groupoid"]["composition"].remove(["a", "a", "e"])
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    for argv in (["validate", str(p)], ["hopf-check", str(p)],
                 ["verify", str(p), "--json", str(report)]):
        assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.count("composition-missing") >= 2
    findings = json.loads(report.read_text(encoding="utf-8"))["validation"]["groupoid"]
    assert "composition-missing" in {f["check"] for f in findings["findings"]}


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    # a wrong composition breaks multiplicative closure, so the prop2.3 and
    # thm2.6 witness lists are long; their order must not follow the hash seed
    import os
    import subprocess
    import sys
    from conftest import groupoid_doc
    from weakhopf.groupoid import pair_groupoid
    doc = groupoid_doc(pair_groupoid(3), "pair3", {"kind": "prime", "p": 2**31 - 1})
    for entry in doc["groupoid"]["composition"]:
        if entry[:2] == ["m1_2", "m2_3"]:
            entry[2] = "m1_2"
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["weakhopf"].__file__)))
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"report-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src, WH_COLOR="0")
        run = subprocess.run([sys.executable, "-m", "weakhopf", "verify", str(p),
                              "--claim", "all", "--json", str(out)],
                             env=env, capture_output=True, timeout=300)
        assert run.returncode == 1, run.stderr
        reports.append(out.read_bytes())
    claims = {c["claim"]: c for c in json.loads(reports[0])["claims"]}
    assert claims["prop2.3"]["witness_count"] > 1
    assert reports[0] == reports[1]


def _schema_breaks():
    short_mul = builtin_doc("i2-swap")
    short_mul["algebra"]["multiplication"][0] = ["e1", "e1"]
    short_action = builtin_doc("i2-swap")
    short_action["action"][0] = ["x", "e1"]
    list_label = builtin_doc("i2-swap")
    list_label["algebra"]["basis"][1] = ["e2"]
    no_objects = builtin_doc("i2-swap")
    for key in ("objects", "morphisms", "composition"):
        no_objects["groupoid"][key] = []
    no_objects["action"] = []
    return {"short-multiplication": short_mul, "short-action": short_action,
            "list-label": list_label, "no-objects": no_objects, "directory": None}


@pytest.mark.parametrize("case", sorted(_schema_breaks()))
def test_schema_errors_exit_2_with_one_line(case, tmp_path, capsys):
    import os
    import subprocess
    import sys
    doc = _schema_breaks()[case]
    if doc is None:
        target = tmp_path
    else:
        target = tmp_path / f"{case}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["weakhopf"].__file__)))
    run = subprocess.run([sys.executable, "-m", "weakhopf", "validate", str(target)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")
    for cmd in ("verify", "hopf-check"):
        assert main([cmd, str(target)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("name", ["z12", "pair4"])
def test_larger_groupoids_pass_hopf_check_and_validate(name, tmp_path, capsys):
    from conftest import groupoid_doc
    from weakhopf.groupoid import cyclic_group, pair_groupoid
    g = cyclic_group(12) if name == "z12" else pair_groupoid(4)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(groupoid_doc(g, name)), encoding="utf-8")
    assert main(["hopf-check", str(p)]) == 0
    assert main(["validate", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["PASS groupoid", "PASS kg", "PASS kg-dual",
                     "PASS groupoid", "PASS algebra-b", "PASS kg-weak-hopf",
                     "PASS kg-dual-weak-hopf", "PASS module-algebra",
                     "PASS decomposition"]


def test_validate_builds_only_what_it_reports(monkeypatch, capsys):
    from weakhopf import duality, smash

    def unused(*args):
        raise AssertionError("wh validate built a stage it does not report")
    for module, name in ((smash, "smash_product"), (smash, "double_smash"),
                         (duality, "build_phi"), (duality, "kernel_and_image"),
                         (duality, "classify_basis"), (duality, "identity_candidates")):
        monkeypatch.setattr(module, name, unused)
    assert main(["validate", "i2-swap"]) == 0
    assert main(["validate", "ex2.8"]) == 1


def test_verify_maps_format_errors_of_lazy_stages_to_exit_2(monkeypatch, capsys):
    from weakhopf import duality
    from weakhopf.instances import InstanceFormatError

    def broken(dsm, bsm):
        raise InstanceFormatError("phi cannot be built")
    monkeypatch.setattr(duality, "build_phi", broken)
    assert main(["verify", "z2-trivial"]) == 2
    assert capsys.readouterr().err == "error: phi cannot be built\n"


def test_internal_errors_exit_3_with_one_line(monkeypatch, capsys):
    from weakhopf import cli

    def broken(alg, co):
        raise RuntimeError("stage broke")
    monkeypatch.setattr(cli, "check_antipode", broken)
    for cmd in ("validate", "verify", "hopf-check"):
        assert main([cmd, "z2-trivial"]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: stage broke\n"


def _node_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _node_paths(child, prefix + (key,))
    return out


_REPLACEMENTS = [[], ["x", 1], {}, {"x": "1"}, 0, 2, -1, 1.5, True, "", "x", "1/0",
                 None, "delete"]


@given(st.sampled_from(BUILTIN_NAMES), st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_builtin_documents_never_raise(name, data):
    # one node of a builtin document replaced by a list, an object, a
    # number, a string or null, or deleted: every command exits 0, 1 or 2,
    # and 2 comes with exactly one line on stderr
    import contextlib
    import io
    import os
    import tempfile
    doc = builtin_doc(name)
    path = data.draw(st.sampled_from(_node_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    new = data.draw(st.sampled_from(_REPLACEMENTS))
    if new == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "fuzzed.json")
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for cmd in ("validate", "verify", "hopf-check"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([cmd, target])
            assert code in (0, 1, 2), (cmd, path, new)
            if code == 2:
                assert len(err.getvalue().splitlines()) == 1, (cmd, path, new)


def test_zero_unit_exits_2(tmp_path, capsys):
    doc = builtin_doc("z2-trivial")
    doc["algebra"]["unit"] = {"b": "0"}
    p = tmp_path / "zero-unit.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    for cmd in ("validate", "verify", "hopf-check"):
        assert main([cmd, str(p)]) == 2
        err = capsys.readouterr().err
        assert err == "error: algebra unit is zero; B needs a nonzero unit\n"

