import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.cli import main
from weakhopf.instances import (BUILTIN_NAMES, builtin_doc, builtin_instance,
                                load_instance, parse_instance)


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("WH_COLOR", "0")


def test_builtin_roundtrip(tmp_path):
    for name in BUILTIN_NAMES:
        inst = builtin_instance(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(inst.to_doc(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
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
    assert inst.action.rho["g"].get("e3", {}) == {"e1": F.one}
    assert inst.action.rho["t"].get("e3", {}) == {"e2": F.one}
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
    # thm2.6 witness lists are long; their order must not follow the hash
    # seed.  Nor may the order in which el_apply sums over the labels both
    # sides share, with B the sum of M_2 blocks (products of many terms)
    import os
    import subprocess
    import sys
    from conftest import groupoid_doc, m2_doc
    from conftest import pair_groupoid
    wrong = groupoid_doc(pair_groupoid(3), "pair3", {"kind": "prime", "p": 2**31 - 1})
    for entry in wrong["groupoid"]["composition"]:
        if entry[:2] == ["m1_2", "m2_3"]:
            entry[2] = "m1_2"
    m2 = m2_doc(pair_groupoid(3), "m2-pair3", {"kind": "prime", "p": 7})
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["weakhopf"].__file__)))
    for name, doc, code in (("wrong", wrong, 1), ("m2", m2, 0)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-report-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src, WH_COLOR="0")
            run = subprocess.run([sys.executable, "-m", "weakhopf", "verify", str(p),
                                  "--claim", "all", "--json", str(out)],
                                 env=env, capture_output=True, timeout=300)
            assert run.returncode == code, run.stderr
            reports.append(out.read_bytes())
        if name == "wrong":
            claims = {c["claim"]: c for c in json.loads(reports[0])["claims"]}
            assert claims["prop2.3"]["witness_count"] > 1
        assert reports[0] == reports[1], name


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    # an output file in a missing directory exits 2 with one error line,
    # as an unreadable input does, not 3 with an internal error
    missing = tmp_path / "no-such-dir"
    for argv, path in ((["verify", "z2-trivial", "--json"], missing / "r.json"),
                       (["builtin", "z2-trivial", "--out"], missing / "x.json")):
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not missing.exists()


def test_unwritable_report_path_fails_before_verification(tmp_path, capsys, monkeypatch):
    # the --json path is tried before the verification context is built,
    # so a path that cannot be written costs no verification work
    import weakhopf.cli

    def refuse(inst):
        raise AssertionError("verification ran for an unwritable --json path")
    monkeypatch.setattr(weakhopf.cli, "VerificationContext", refuse)
    path = tmp_path / "no-such-dir" / "r.json"
    assert main(["verify", "z2-trivial", "--json", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {path}: No such file or directory\n")


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
    breaks = {"short-multiplication": short_mul, "short-action": short_action,
              "list-label": list_label, "no-objects": no_objects, "directory": None}
    # unpacked, each reads as the list it replaces, so only its type is wrong
    for case, value in (("objects-string", "xy"), ("objects-object", {"x": 1, "y": 1})):
        breaks[case] = builtin_doc("i2-swap")
        breaks[case]["groupoid"]["objects"] = value
    for case, value in (("composition-string", "xxx"),
                        ("composition-object", {"g": 1, "gi": 1, "x": 1})):
        breaks[case] = builtin_doc("i2-swap")
        comp = breaks[case]["groupoid"]["composition"]
        comp[comp.index(list(value))] = value
    # labels are JSON strings: a number among them, or only numbers
    breaks["mixed-ids"] = {
        "field": {"kind": "rational"},
        "groupoid": {"objects": ["e"],
                     "morphisms": [{"id": "e", "src": "e", "tgt": "e", "inv": "e"},
                                   {"id": 1, "src": "e", "tgt": "e", "inv": 1}],
                     "composition": [["e", "e", "e"], ["e", 1, 1], [1, "e", 1], [1, 1, "e"]]},
        "algebra": {"basis": ["b"], "unit": {"b": "1"},
                    "multiplication": [["b", "b", {"b": "1"}]]},
        "action": [["e", "b", {"b": "1"}], [1, "b", {"b": "1"}]]}
    breaks["number-object"] = {
        "field": {"kind": "rational"},
        "groupoid": {"objects": [0], "morphisms": [{"id": 0, "src": 0, "tgt": 0, "inv": 0}],
                     "composition": [[0, 0, 0]]},
        "algebra": {"basis": ["b"], "unit": {"b": "1"},
                    "multiplication": [["b", "b", {"b": "1"}]]},
        "action": [[0, "b", {"b": "1"}]]}
    for case, section, key, extra in (
            ("duplicate-morphism", "groupoid", "morphisms",
             {"id": "g", "src": "x", "tgt": "y", "inv": "gi"}),
            ("duplicate-object", "groupoid", "objects", "x"),
            ("duplicate-basis-label", "algebra", "basis", "e1"),
            ("multiplication-twice", "algebra", "multiplication", ["e1", "e1", {"e1": "1"}])):
        breaks[case] = builtin_doc("i2-swap")
        breaks[case][section][key].append(extra)
    breaks["action-twice"] = builtin_doc("i2-swap")
    breaks["action-twice"]["action"].append(["x", "e1", {"e1": "1"}])
    # B's table is checked where it enters: a factor or a product label
    # outside the basis
    for case, row in (("multiplication-unknown-factor", ["e1", "p", {"e1": "1"}]),
                      ("product-unknown-label", ["e1", "e2", {"p": "1"}])):
        breaks[case] = builtin_doc("i2-swap")
        breaks[case]["algebra"]["multiplication"].append(row)
    breaks["not-an-object"] = [builtin_doc("i2-swap")]
    return breaks


def test_validate_names_broken_identity_and_inverse_records(tmp_path, capsys):
    # i2-swap with tgt(x) = y, then with inv(g) = g
    idrec, invg = builtin_doc("i2-swap"), builtin_doc("i2-swap")
    idrec["groupoid"]["morphisms"][0]["tgt"] = "y"
    next(m for m in invg["groupoid"]["morphisms"] if m["id"] == "g")["inv"] = "g"
    for doc, lines in ((idrec, ["identity-record: 1 violation(s), e.g. 'x'"]),
                       (invg, ["inverse-involution: 1 violation(s), e.g. 'gi'",
                               "inverse-endpoints: 1 violation(s), e.g. 'g'"])):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "FAIL groupoid"
        for line in lines:
            assert "    " + line in out


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
    from conftest import pair_groupoid
    from weakhopf.groupoid import cyclic_group
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


def test_commands_walk_the_composable_triples_once(tmp_path, monkeypatch, capsys):
    # validate_groupoid walks them; when it finds nothing, KG* is
    # coassociative and counital and its own walk is skipped.  On a broken
    # groupoid the walk still runs
    from conftest import groupoid_doc, missing_composition_z2_doc
    from weakhopf import walg
    from weakhopf.groupoid import cyclic_group
    walks, walk = [], walg._kgstar_coalgebra
    monkeypatch.setattr(walg, "_kgstar_coalgebra",
                        lambda *args: walks.append(1) or walk(*args))
    z8, broken = tmp_path / "z8.json", tmp_path / "missing.json"
    z8.write_text(json.dumps(groupoid_doc(cyclic_group(8), "z8")), encoding="utf-8")
    broken.write_text(json.dumps(missing_composition_z2_doc()), encoding="utf-8")
    for cmd in ("hopf-check", "validate", "verify"):
        assert main([cmd, str(z8)]) == 0
    assert walks == []
    assert capsys.readouterr().out.splitlines()[:3] == ["PASS groupoid", "PASS kg", "PASS kg-dual"]
    assert main(["hopf-check", str(broken)]) == 1
    assert len(walks) == 1


def test_commands_walk_kg_findings_once(tmp_path, monkeypatch, capsys):
    # KG*'s weak unit and antipode are read off KG's weak-counit and
    # antipode findings, which KG*'s record reaches through KG's: each is
    # walked once per command, on a valid groupoid and on a broken one
    from conftest import missing_composition_z2_doc
    from weakhopf import walg
    calls = []
    for name in ("_kg_weak_counit", "_kg_antipode"):
        fn = getattr(walg, name)
        monkeypatch.setattr(walg, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    broken = tmp_path / "missing.json"
    broken.write_text(json.dumps(missing_composition_z2_doc()), encoding="utf-8")
    for target, code in (("i2-swap", 0), (str(broken), 1)):
        for cmd in ("hopf-check", "validate", "verify"):
            calls.clear()
            assert main([cmd, target]) == code
            assert sorted(calls) == ["_kg_antipode", "_kg_weak_counit"], (cmd, target)
    capsys.readouterr()


def test_commands_build_kg_and_kgstar_once(monkeypatch, capsys):
    # KG's record holds the composition index where KG is built, so no
    # check builds KG again
    from weakhopf import walg
    calls = []
    for name in ("groupoid_algebra", "dual_weak_hopf"):
        fn = getattr(walg, name)
        monkeypatch.setattr(walg, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    for cmd in ("hopf-check", "validate", "verify"):
        calls.clear()
        assert main([cmd, "i2-swap"]) == 0
        assert calls == ["groupoid_algebra", "dual_weak_hopf"], cmd
    capsys.readouterr()


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


def test_parser_is_built_once_and_still_reports_usage_errors(capsys):
    from weakhopf import __version__
    from weakhopf.cli import make_parser
    assert make_parser() is make_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wh ") and "invalid choice" in err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"
    assert main(["hopf-check", "z2-trivial"]) == 0


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



def test_composite_modulus_below_max_prime_exits_2(tmp_path, capsys):
    # 46337**2, the largest prime square below 2**31, against 2**31 - 1
    doc = builtin_doc("z2-trivial")
    doc["field"] = {"kind": "prime", "p": 2147117569}
    p = tmp_path / "square.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    for cmd in ("validate", "verify", "hopf-check"):
        assert main([cmd, str(p)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad field spec: 2147117569 is not prime\n"
    doc["field"]["p"] = 2147483647
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert load_instance(p).field.p == 2147483647
