import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from exactcat import cli
from exactcat.cli import MAX_GENS, MAX_ITERS, build_parser, main
from exactcat.documents import (
    MAX_ENTRY_BITS,
    MAX_MATRIX_CELLS,
    MAX_MATRIX_COLS,
    MAX_MATRIX_ROWS,
    document_from_jsonable,
    document_to_jsonable,
    encode_int,
    load_document,
    model_from_descriptor,
    parse_model_name,
)
from exactcat.intlinalg import PRIMALITY_BOUND

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


GOLDEN_CASES = [
    (("--json", "ext", "4", "6", "1"), "ext_4_6_1.out"),
    (("--json", "tor", "4", "6", "1"), "tor_4_6_1.out"),
    (("--json", "snake", str(GOLDEN / "snake_doc.json"), "m"), "snake_m.out"),
    (("--json", "homology", str(GOLDEN / "snake_doc.json"), "X"), "homology_X.out"),
    (("--json", "homology", str(GOLDEN / "snake_doc.json"), "acyclic"),
     "homology_acyclic.out"),
    (("--json", "resolve", str(GOLDEN / "snake_doc.json"), "Z4"), "resolve_Z4.out"),
    (("--json", "complete", str(GOLDEN / "complete_doc.json"), "E", "q"),
     "complete_E_q.out"),
    (("--json", "check", "--model", "fgab", "--suite", "obscure",
      "--iters", "5", "--seed", "7"), "check_obscure.out"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_outputs(argv, golden):
    code, out = run_cli(*argv)
    assert code == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert out == expected


# the same commands without --json, rendered for people
HUMAN_CASES = [(argv[1:], golden.replace(".out", ".txt")) for argv, golden in GOLDEN_CASES]


@pytest.mark.parametrize("argv,golden", HUMAN_CASES)
def test_human_golden_outputs(argv, golden):
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,golden", [(("tor", "0", "0", "0"), "tor_0_0_0.txt"),
                                         (("ext", "0", "6", "0"), "ext_0_6_0.txt")])
def test_human_output_names_cyclic_zero_as_z(argv, golden):
    # cyclic(0) is Z: the human line must not print the modulus as "Z/0"
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_human_ext_of_z_vanishes_in_degree_one():
    code, out = run_cli("ext", "0", "6", "1")
    assert code == 0
    assert out == "Ext^1(Z, Z/6) = 0\n"


def test_golden_values_sanity():
    data = json.loads((GOLDEN / "ext_4_6_1.out").read_text())
    assert data["invariant_factors"] == {"free_rank": 0, "torsion": [2]}
    data = json.loads((GOLDEN / "snake_m.out").read_text())
    assert data["delta"]["entries"] == [[1]]
    data = json.loads((GOLDEN / "homology_acyclic.out").read_text())
    assert all(v["invariants"] == {"free_rank": 0, "torsion": []}
               for v in data["values"])


def test_gcd_oracle_via_cli_sample():
    code, out = run_cli("--json", "ext", "9", "12", "1")
    assert code == 0
    assert json.loads(out)["invariant_factors"]["torsion"] == [3]


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli("homology", str(bad), "X")
    assert code == 2
    missing = tmp_path / "missing_ref.json"
    missing.write_text(json.dumps({
        "version": "exactcat/1", "model": "fgab",
        "objects": {}, "morphisms": {
            "f": {"dom": "nope", "cod": "nope",
                  "matrix": {"rows": 0, "cols": 0, "entries": []}}},
    }), encoding="utf-8")
    code, _ = run_cli("homology", str(missing), "X")
    assert code == 2


def test_malformed_seed_variable_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("EXACTCAT_SEED", "abc")
    code, _ = run_cli("check", "--iters", "0")
    assert code == 2
    assert "EXACTCAT_SEED" in capsys.readouterr().err


def test_exit_code_precondition(tmp_path):
    # quasi-iso-style gating: snake on a non-WIC-flagged model is exit 3;
    # here: complete with a non-idempotent morphism
    doc = {
        "version": "exactcat/1",
        "model": "fgab",
        "objects": {"Z": {"ngens": 1,
                          "relations": {"rows": 1, "cols": 0, "entries": [[]]}}},
        "morphisms": {"f": {"dom": "Z", "cod": "Z",
                            "matrix": {"rows": 1, "cols": 1, "entries": [[2]]}}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("complete", str(path), "Z", "f")
    assert code == 3


def test_document_precondition_is_exit_3(tmp_path, capsys):
    # an odd-rank object violates the even_rank_split precondition; that
    # is exit 3, not a parse error
    doc = {
        "version": "exactcat/1",
        "model": {"kind": "even_rank_split"},
        "objects": {"E": {"ngens": 1,
                          "relations": {"rows": 1, "cols": 0, "entries": [[]]}}},
        "morphisms": {"q": {"dom": "E", "cod": "E",
                            "matrix": {"rows": 1, "cols": 1, "entries": [[1]]}}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("complete", str(path), "E", "q")
    assert code == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "even rank" in err
    # a matrix that does not fit its declared objects is still malformed
    doc["model"] = {"kind": "fgab"}
    doc["morphisms"]["q"]["matrix"] = {"rows": 2, "cols": 1, "entries": [[1], [0]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("complete", str(path), "E", "q")
    assert code == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("section,literal", [
    ("morphisms", [1, 2]),
    ("complexes", "X"),
    ("diagrams", 7),
])
def test_non_object_literal_is_exit_2(section, literal, tmp_path, capsys):
    doc = json.loads((GOLDEN / "snake_doc.json").read_text(encoding="utf-8"))
    doc[section]["bad"] = literal
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("resolve", str(path), "Z4")
    assert code == 2
    assert f"'{section}' must map names to JSON objects" in capsys.readouterr().err


def test_type_error_in_model_code_propagates(monkeypatch):
    # a fault inside the model is not a malformed document
    from exactcat.models import fgab

    def broken(*args, **kwargs):
        raise TypeError("fault in model code")

    monkeypatch.setattr(fgab(), "morphism", broken)
    doc = json.loads((GOLDEN / "snake_doc.json").read_text(encoding="utf-8"))
    with pytest.raises(TypeError, match="fault in model code"):
        document_from_jsonable(doc)


def test_homology_on_completion_is_precondition(tmp_path, capsys):
    # homology needs presented objects, which completion objects are not
    doc = {
        "version": "exactcat/1",
        "model": {"kind": "completion", "base": {"kind": "fgab"}},
        "objects": {"Z": {
            "base": {"ngens": 1, "relations": {"rows": 1, "cols": 0, "entries": [[]]}},
            "idempotent": {"rows": 1, "cols": 1, "entries": [[1]]}}},
        "complexes": {"X": {"lo": 0, "components": ["Z", "Z"],
                            "differentials": [{"rows": 1, "cols": 1, "entries": [[2]]}]}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("homology", str(path), "X")
    assert code == 3
    assert "abelian model of presented groups" in capsys.readouterr().err


def test_nested_completion_is_exit_3(tmp_path, capsys):
    doc = {"version": "exactcat/1",
           "model": {"kind": "completion",
                     "base": {"kind": "completion", "base": {"kind": "fgab"}}},
           "objects": {}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_cli("resolve", str(path), "Z")
    assert code == 3
    assert "completions do not nest" in capsys.readouterr().err


def test_over_deep_document_is_exit_2(tmp_path, capsys):
    depth = 3000
    model = '{"kind": "completion", "base": ' * depth + '"fgab"' + "}" * depth
    path = tmp_path / "doc.json"
    path.write_text('{"version": "exactcat/1", "model": ' + model + ', "objects": {}}',
                    encoding="utf-8")
    code, _ = run_cli("resolve", str(path), "Z")
    assert code == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_completion_model_name_reads_its_base_as_a_model_name():
    code, out = run_cli("--json", "check", "--model", "completion:vect:5",
                        "--suite", "obscure", "--iters", "0")
    assert code == 0
    assert json.loads(out)["model"] == {"kind": "completion",
                                        "base": {"kind": "vect", "p": 5}}
    assert parse_model_name("completion:vect:5") is \
        model_from_descriptor({"kind": "completion", "base": {"kind": "vect", "p": 5}})


def test_nested_completion_model_name_is_exit_3(capsys):
    code, out = run_cli("check", "--model", "completion:completion:fgab", "--iters", "0")
    assert code == 3 and out == ""
    assert "completions do not nest" in capsys.readouterr().err


@pytest.mark.parametrize("components,differentials", [
    ([], ["f"]),
    (["Z", "Z"], []),
    (["Z", "Z"], [{"rows": 1, "cols": 1, "entries": [[2]]}] * 2),
], ids=["empty_window", "too_few", "too_many_literals"])
def test_differential_count_is_a_parse_error(components, differentials, tmp_path, capsys):
    doc = {"version": "exactcat/1",
           "objects": {"Z": {"ngens": 1, "relations": {"rows": 1, "cols": 0, "entries": [[]]}}},
           "morphisms": {"f": {"dom": "Z", "cod": "Z",
                               "matrix": {"rows": 1, "cols": 1, "entries": [[2]]}}},
           "complexes": {"X": {"lo": 0, "components": components,
                               "differentials": differentials}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli("homology", str(path), "X")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error: complex 'X'") and "differentials" in err


def test_vect_modulus_errors(capsys):
    # a modulus that is not an integer is malformed input
    code, _ = run_cli("check", "--model", "vect:abc", "--iters", "1")
    assert code == 2
    assert "parse error" in capsys.readouterr().err
    # primality is only decided below a stated bound; past it is exit 3
    code, _ = run_cli("check", "--model", f"vect:{PRIMALITY_BOUND + 2}", "--iters", "1")
    assert code == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and str(PRIMALITY_BOUND) in err
    code, _ = run_cli("check", "--model", "vect:561", "--iters", "1")
    assert code == 3
    assert "561 is not prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv,bound", [
    (("ext", "4", "6", "-1"), "the degree i must be >= 0, got -1"),
    (("tor", "4", "6", "-2"), "the degree i must be >= 0, got -2"),
    (("check", "--max-gens", "-1", "--iters", "1"), "--max-gens must be >= 0, got -1"),
    (("check", "--iters", "-3"), "--iters must be >= 0, got -3"),
    (("resolve", str(GOLDEN / "snake_doc.json"), "Z4", "--max-length", "-1"),
     "max_length must be >= 0, got -1"),
], ids=["ext_degree", "tor_degree", "max_gens", "iters", "max_length"])
def test_negative_argument_is_exit_3_naming_the_bound(argv, bound, capsys):
    code, out = run_cli(*argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"precondition violated: {bound}\n"


@pytest.mark.parametrize("flag,name,bound", [("--iters", "MAX_ITERS", MAX_ITERS),
                                              ("--max-gens", "MAX_GENS", MAX_GENS)])
def test_check_past_its_upper_bound_is_exit_3_and_runs_no_law(flag, name, bound,
                                                              monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suites", lambda *args: ran.append(args) or [])
    code, out = run_cli("check", flag, str(bound + 1))
    assert code == 3 and out == "" and ran == []
    assert capsys.readouterr().err == (
        f"precondition violated: {flag} {bound + 1} exceeds the bound {name} = {bound}\n")
    code, _ = run_cli("check", flag, str(bound))   # the bound itself is accepted
    assert code == 0 and len(ran) == 1


def _zeros_literal(rows, cols):
    return {"rows": rows, "cols": cols, "entries": [[0] * cols for _ in range(rows)]}


def _entry_literal(value):
    return {"rows": 1, "cols": 1, "entries": [[encode_int(value)]]}


# per bound: a relation matrix at the bound and one just past it
BUDGET_CASES = {
    "MAX_MATRIX_ROWS": (_zeros_literal(MAX_MATRIX_ROWS, 0),
                        _zeros_literal(MAX_MATRIX_ROWS + 1, 0)),
    "MAX_MATRIX_COLS": (_zeros_literal(1, MAX_MATRIX_COLS),
                        _zeros_literal(1, MAX_MATRIX_COLS + 1)),
    "MAX_MATRIX_CELLS": (_zeros_literal(MAX_MATRIX_CELLS // MAX_MATRIX_COLS, MAX_MATRIX_COLS),
                         _zeros_literal(MAX_MATRIX_CELLS // MAX_MATRIX_COLS + 1,
                                        MAX_MATRIX_COLS)),
    "MAX_ENTRY_BITS": (_entry_literal(-(2 ** MAX_ENTRY_BITS - 1)),
                       _entry_literal(2 ** MAX_ENTRY_BITS)),
}


@pytest.mark.parametrize("bound", sorted(BUDGET_CASES))
def test_matrix_past_its_budget_is_exit_3_naming_the_bound(bound, tmp_path, capsys):
    assert MAX_MATRIX_CELLS < MAX_MATRIX_ROWS * MAX_MATRIX_COLS   # the cell bound binds
    for literal, code_wanted in zip(BUDGET_CASES[bound], (0, 3)):
        doc = {"version": "exactcat/1", "model": "fgab",
               "objects": {"A": {"ngens": literal["rows"], "relations": literal}}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if code_wanted == 0:
            load_document(str(path))   # at the bound the document loads
            continue
        code, out = run_cli("resolve", str(path), "A")
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("precondition violated: ") and f"{bound} = " in err


def test_generator_count_past_the_row_budget_is_exit_3(tmp_path, capsys):
    # an object without a relation matrix is bounded by the row budget too
    for ngens, code_wanted in ((MAX_MATRIX_ROWS, 0), (MAX_MATRIX_ROWS + 1, 3)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"version": "exactcat/1", "model": "fgab",
                                    "objects": {"A": {"ngens": ngens}}}), encoding="utf-8")
        code, _ = run_cli("resolve", str(path), "A")
        assert code == code_wanted
    assert (f"object generator count {MAX_MATRIX_ROWS + 1} exceeds the input budget "
            f"MAX_MATRIX_ROWS = {MAX_MATRIX_ROWS}") in capsys.readouterr().err


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    for argv, golden in GOLDEN_CASES[:2]:
        assert run_cli(*argv) == (0, (GOLDEN / golden).read_text(encoding="utf-8"))
    assert built.count("exactcat") == 1


@pytest.mark.parametrize("argv", [("ext", "4"), ("ext", "four", "6", "1"),
                                  ("check", "--suite", "nope"), ("bogus",)],
                         ids=["missing", "not_an_int", "bad_choice", "no_command"])
def test_argparse_error_then_a_good_call_prints_its_golden(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: exactcat")
    for good, golden in GOLDEN_CASES[:3]:
        assert run_cli(*good) == (0, (GOLDEN / golden).read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["ext", "tor"])
def test_derived_degree_costs_no_more_than_degree_two(command, monkeypatch):
    # projective dimension <= 1 over Z: a huge degree is answered by degree 2
    from exactcat import resolutions
    homology, calls = resolutions.homology, []

    def counted(x, n):
        calls.append(n)
        if len(calls) > 20:
            raise AssertionError("homology computed degree by degree")
        return homology(x, n)

    monkeypatch.setattr(resolutions, "homology", counted)
    code, out = run_cli("--json", command, "4", "6", "1000000000000")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 1000000000000
    assert data["invariant_factors"] == {"free_rank": 0, "torsion": []}


def test_zero_iterations_still_run_the_edge_batteries():
    code, out = run_cli("--json", "check", "--suite", "obscure", "--iters", "0")
    assert code == 0
    assert json.loads(out)["suites"][0]["instances_run"] > 0


def test_exit_code_law_failure():
    code, out = run_cli("--json", "check", "--model", "even_rank_split",
                        "--suite", "nh_acyclic", "--iters", "3")
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]


def test_roundtrip_documents():
    for name in ("snake_doc.json", "complete_doc.json"):
        doc = load_document(str(GOLDEN / name))
        again = document_from_jsonable(document_to_jsonable(doc))
        assert document_to_jsonable(again) == document_to_jsonable(doc)


def test_check_determinism_byte_identical():
    argv = ("--json", "check", "--model", "fgab", "--suite", "summands",
            "--iters", "4", "--seed", "3")
    _, out1 = run_cli(*argv)
    _, out2 = run_cli(*argv)
    assert out1 == out2


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv("EXACTCAT_SEED", "99")
    _, out1 = run_cli("--json", "check", "--model", "fgab", "--suite",
                      "obscure", "--iters", "3")
    _, out2 = run_cli("--json", "check", "--model", "fgab", "--suite",
                      "obscure", "--iters", "3", "--seed", "99")
    assert json.loads(out1) == json.loads(out2)


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "exactcat.cli", "--json", "tor", "6", "4", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["invariant_factors"]["torsion"] == [2]


def test_horseshoe_diagram_roundtrip(tmp_path):
    # the document format names horseshoes: a ses plus resolutions of the
    # outer terms, validated at load time
    doc = {
        "version": "exactcat/1",
        "model": "fgab",
        "objects": {
            "Z": {"ngens": 1, "relations": {"rows": 1, "cols": 0, "entries": [[]]}},
            "Z2": {"ngens": 1, "relations": {"rows": 1, "cols": 1, "entries": [[2]]}},
        },
        "morphisms": {
            "times2": {"dom": "Z", "cod": "Z",
                       "matrix": {"rows": 1, "cols": 1, "entries": [[2]]}},
            "quot": {"dom": "Z", "cod": "Z2",
                     "matrix": {"rows": 1, "cols": 1, "entries": [[1]]}},
            "aug_sub": {"dom": "Z", "cod": "Z",
                        "matrix": {"rows": 1, "cols": 1, "entries": [[1]]}},
            "aug_quot": {"dom": "Z", "cod": "Z2",
                         "matrix": {"rows": 1, "cols": 1, "entries": [[1]]}},
        },
        "complexes": {
            "P_sub": {"lo": 0, "components": ["Z"], "differentials": []},
            "P_quot": {"lo": -1, "components": ["Z", "Z"],
                       "differentials": [{"rows": 1, "cols": 1, "entries": [[2]]}]},
        },
        "diagrams": {
            "h": {"kind": "horseshoe", "i": "times2", "p": "quot",
                  "sub_complex": "P_sub", "sub_augmentation": "aug_sub",
                  "quot_complex": "P_quot", "quot_augmentation": "aug_quot"},
        },
    }
    path = tmp_path / "horseshoe.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_document(str(path))
    again = document_from_jsonable(document_to_jsonable(loaded))
    assert document_to_jsonable(again) == document_to_jsonable(loaded)
    # the named horseshoe actually fills in
    from exactcat.documents import HorseshoeDiagram
    from exactcat.resolutions import horseshoe
    h = loaded.diagrams["h"]
    assert isinstance(h, HorseshoeDiagram)
    res = horseshoe(h.sequence, h.sub, h.quot)
    assert res.middle.length == 1
