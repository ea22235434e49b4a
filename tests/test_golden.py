"""Golden output: the stdout, exit code and --json report of
`wh verify <target> --claim all --json report.json` for the five builtins,
the spurious-entry i2, the half-unit Z/2 (a rational instance with
non-integral scalars), Z/4 acting regularly (unital smash products
over a B that is not the field) and the pair groupoid with two objects
acting on a sum of M_2 blocks (a non-commutative B), and two broken
groupoids whose KG and KG* fail weak-Hopf axioms (pair(3) with a wrong
product, Z/2 with a missing one), compared byte for byte.

A change that alters these outputs on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md why they changed.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
TARGETS = ("z2-trivial", "z3-trivial", "i2-swap", "ex2.8", "ex2.8-gf2", "spurious-i2",
           "half-unit-z2", "z4-regular", "m2-pair2", "wrong-composition-pair3",
           "missing-composition-z2")
DOCUMENTS = {"spurious-i2": "spurious_i2_doc", "half-unit-z2": "half_unit_z2_doc",
             "z4-regular": "z4_regular_doc", "m2-pair2": "m2_pair2_doc",
             "wrong-composition-pair3": "wrong_composition_pair3_doc",
             "missing-composition-z2": "missing_composition_z2_doc"}


def render(target, workdir):
    """(exit code, stdout, report) of the verify run, made in workdir with
    WH_COLOR=0."""
    import conftest
    from weakhopf.cli import main
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        arg = target
        if target in DOCUMENTS:
            arg = f"{target}.json"
            doc = getattr(conftest, DOCUMENTS[target])()
            Path(arg).write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", arg, "--claim", "all", "--json", "report.json"])
        return code, out.getvalue(), Path("report.json").read_text(encoding="utf-8")
    finally:
        os.chdir(cwd)


def test_targets_are_the_builtins_and_the_document_instances():
    from weakhopf.instances import BUILTIN_NAMES
    assert set(TARGETS) == set(BUILTIN_NAMES) | set(DOCUMENTS)


@pytest.mark.parametrize("target", TARGETS)
def test_verify_output_is_byte_identical_to_golden(target, tmp_path, monkeypatch):
    monkeypatch.setenv("WH_COLOR", "0")
    code, stdout, report = render(target, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[target]
    assert stdout == (GOLDEN / f"{target}.out").read_text(encoding="utf-8")
    assert report == (GOLDEN / f"{target}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    sys.path.insert(0, str(Path(__file__).parent))
    os.environ["WH_COLOR"] = "0"
    codes = {}
    for target in TARGETS:
        with tempfile.TemporaryDirectory() as tmp:
            codes[target], stdout, report = render(target, tmp)
        (GOLDEN / f"{target}.out").write_text(stdout, encoding="utf-8")
        (GOLDEN / f"{target}.json").write_text(report, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                            encoding="utf-8")
