import json
from pathlib import Path

import pytest

from hitchinforge.cli import run

GENUS2_SPEC = json.dumps({
    "n": 5,
    "mode": "presentation",
    "genus": 2,
    "curve": {"kind": "separating", "h": 1},
    "sl2_assignment": {
        "a1": [["0", "1"], ["-1", "0"]],
        "b1": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "a2": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "b2": [["0", "1"], ["-1", "0"]],
    },
    "b0": {"kind": "SU_split_a", "d": 3, "k": 1},
})

FREE_SPEC = json.dumps({
    "n": 3,
    "mode": "free",
    "curve": {"gamma": "g1"},
    "sl2_assignment": {
        "g1": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "g2": [["2", "sqrt(3)"], ["sqrt(3)", "2"]],
    },
    "b0": {"kind": "SU_split_a", "d": 3, "k": 1},
})


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pell(capsys):
    code, doc = run_json(capsys, ["pell", "--d", "3"])
    assert code == 0
    assert doc["unit"] == "2+sqrt(3)" and doc["norm"] == 1
    assert doc["schema"] == "hitchin-forge/1"


def test_pell_usage_error(capsys):
    assert run(["pell", "--d", "4"]) == 2


def test_classify_form_named(capsys):
    code, doc = run_json(capsys, ["classify-form", "--matrix", "J3"])
    assert code == 0
    assert ["2", -1] in doc["hasse"]
    assert doc["disc"] == "1"
    assert doc["signature"] == [1, 2]


def test_classify_form_json_matrix(capsys):
    code, doc = run_json(capsys, ["classify-form", "--matrix",
                                  '[["1","0"],["0","-2"]]'])
    assert code == 0 and doc["disc"] == "-2"


def test_symrep(capsys):
    code, doc = run_json(capsys, ["symrep", "--n", "3", "--matrix",
                                  '[["1","1"],["0","1"]]'])
    assert code == 0
    assert doc["image"] == [["1", "1", "1"], ["0", "1", "2"], ["0", "0", "1"]]
    assert doc["preserves_invariant_form"] and doc["det"] == "1"


def test_quat_info(capsys):
    code, doc = run_json(capsys, ["quat-info", "--a", "3", "--b", "3",
                                  "--height", "0"])
    assert code == 0
    assert doc["is_division"] and doc["ramified_places"] == ["2", "3"]
    assert doc["norm_one_elements"] == [["-1", "0", "0", "0"],
                                        ["1", "0", "0", "0"]]


def test_so_form(capsys):
    code, doc = run_json(capsys, ["so-form", "--n", "5", "--a", "3",
                                  "--b", "5", "--case", "degree-2"])
    assert code == 0
    assert doc["diagonal"] == ["48", "12", "4", "-36", "-144"]
    assert doc["closed_form_verified"]


def test_lattice_check_exit_codes(capsys):
    code, doc = run_json(capsys, ["lattice-check", "--kind", "SLnZ",
                                  "--n", "2", "--matrix", '[["1","1"],["0","1"]]'])
    assert code == 0 and doc["member"]
    code, doc = run_json(capsys, ["lattice-check", "--kind", "SLnZ",
                                  "--n", "2", "--matrix",
                                  '[["2","0"],["0","1/2"]]'])
    assert code == 1 and not doc["member"]


def test_containment(capsys):
    code, doc = run_json(capsys, ["containment", "--a", "3", "--b", "3",
                                  "--n", "3", "--height", "1"])
    assert code == 0
    assert doc["passed"] == doc["total"] and doc["failures"] == []
    assert doc["patterns"] == ["++", "--"]


def test_g2_check(capsys):
    code, doc = run_json(capsys, ["g2-check", "--tau-word", "t s t^-1"])
    assert code == 0 and doc["in_g2"]
    code, doc = run_json(capsys, ["g2-check", "--matrix",
                                  json.dumps([["2" if i == j else "0"
                                               for j in range(7)]
                                              for i in range(7)])])
    assert code == 1 and not doc["in_g2"]


def test_g2_check_usage_errors(capsys):
    for argv, message in ((["g2-check"], "g2-check needs --matrix or --tau-word"),
                          (["g2-check", "--tau-word", "s u"],
                           "tau words use generators s and t")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("family, n, p", [
    ("SL", 2, 4), ("SL", 2, 9), ("SL", 2, -3), ("Sp", 3, 3), ("SL", 1, 3),
    ("SU", 3, 2), ("SU", 3, 9), ("Omega", 4, 2),
])
def test_trace_set_bad_family_parameters(capsys, family, n, p):
    assert run(["trace-set", "--family", family, "--n", str(n),
                "--p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bend_relator(capsys):
    code, doc = run_json(capsys, ["bend", "--spec", GENUS2_SPEC,
                                  "--check-relator"])
    assert code == 0 and doc["relator_ok"]
    assert doc["invariant_violations"] == []


def test_bend_word(capsys):
    code, doc = run_json(capsys, ["bend", "--spec", FREE_SPEC,
                                  "--word", "g1 g2"])
    assert code == 0 and "image" in doc


def test_certify_density(capsys):
    code, doc = run_json(capsys, ["certify-density", "--spec", FREE_SPEC,
                                  "--target", "SLn"])
    assert code == 0 and doc["valid"]
    assert doc["breaks"] == {"preserves_form": True, "tau_pgl2": True}
    assert doc["assumptions"] == ["Hitchin + Guichard classification"]


def test_reduce_modp(capsys):
    code, doc = run_json(capsys, ["reduce-modp", "--p", "11", "--d", "3",
                                  "--value", "2+sqrt(3)"])
    assert code == 0 and doc["value"] == "7" and doc["mode"] == "split"
    code, doc = run_json(capsys, ["reduce-modp", "--p", "5", "--d", "3",
                                  "--value", "2+sqrt(3)"])
    assert doc["mode"] == "inert" and doc["value"] == "2+1r"


def test_trace_set(capsys):
    code, doc = run_json(capsys, ["trace-set", "--family", "SL",
                                  "--n", "2", "--p", "3"])
    assert code == 0
    assert doc["traces"] == ["0", "1", "2"] and doc["equals_field"]


def test_orbit_separate(capsys):
    code, doc = run_json(capsys, ["orbit-separate", "--n", "3", "--p", "5",
                                  "--B", "SU_split_a"])
    assert code == 0
    assert doc["image_size"] == 3 and doc["separates"]


def test_orbit_separate_scan(capsys):
    code, doc = run_json(capsys, ["orbit-separate", "--n", "5", "--p", "7",
                                  "--B", "SU_split_a", "--scan-bound", "50"])
    assert doc["first_nonsurjective_prime"] == 3


def test_deterministic_output(capsys):
    code1 = run(["containment", "--a", "3", "--b", "3", "--n", "3",
                 "--height", "1", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = run(["containment", "--a", "3", "--b", "3", "--n", "3",
                 "--height", "1", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 7


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = run(["--output", str(path), "pell", "--d", "2"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["unit"] == "1+sqrt(2)" and doc["norm"] == -1


@pytest.mark.parametrize("missing, named", [
    ("n", "'n'"),
    ("sl2_assignment", "'sl2_assignment'"),
    ("b0", "'b_matrix'"),
])
def test_malformed_bending_spec_is_one_line_usage_error(capsys, missing, named):
    data = json.loads(GENUS2_SPEC)
    del data[missing]
    assert run(["bend", "--spec", json.dumps(data), "--check-relator"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bending spec ")
    assert named in lines[0]


def test_irrational_form_is_one_line_usage_error(capsys):
    matrix = json.dumps([["1", "sqrt(2)"], ["sqrt(2)", "-2"]])
    assert run(["classify-form", "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: quadratic form matrix must be rational"]


def test_lattice_check_names_the_foreign_entry(capsys):
    matrix = json.dumps([["1", "sqrt(2)"], ["0", "1"]])
    assert run(["lattice-check", "--kind", "SU_sqrt_d", "--d", "3",
                "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entry sqrt(2) is not in Q(sqrt(3))\n"


@pytest.mark.parametrize("kind", ["SU_quat", "SL_quat"])
def test_lattice_check_has_no_quaternion_kinds(capsys, kind):
    assert run(["lattice-check", "--kind", kind, "--d", "3", "--matrix", "J2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("hitchin-forge lattice-check: error: argument "
                                f"--kind: invalid choice: '{kind}'")


def test_unknown_matrix_is_usage_error(capsys):
    assert run(["classify-form", "--matrix", "J99"]) == 2
    assert run(["classify-form", "--matrix", "notjson"]) == 2


def test_named_bending_matrix(capsys):
    code, doc = run_json(capsys, ["lattice-check", "--kind", "SU_sqrt_d",
                                  "--n", "5", "--d", "3",
                                  "--matrix", "B0:SU_split_a:5"])
    assert code == 0 and doc["member"]
    code, doc = run_json(capsys, ["g2-check", "--matrix", "B0:G2:7:2"])
    assert code == 0 and doc["in_g2"]
    code, doc = run_json(capsys, ["g2-check", "--matrix", "B0:SO_n7:7"])
    assert code == 1 and not doc["in_g2"]


GOLDEN_DIR = Path(__file__).parent / "golden"

# every README example; bend and certify-density read the genus-2 spec,
# which is the README's spec.json
README_EXAMPLES = {
    "pell": (["pell", "--d", "3"], 0),
    "quat-info": (["quat-info", "--a", "3", "--b", "3", "--height", "2"], 0),
    "classify-form": (["classify-form", "--matrix", "J5"], 0),
    "symrep": (["symrep", "--n", "3", "--matrix", '[["1","1"],["0","1"]]'], 0),
    "so-form": (["so-form", "--n", "5", "--a", "3", "--b", "5",
                 "--case", "degree-2"], 0),
    "lattice-check": (["lattice-check", "--kind", "SU_sqrt_d", "--n", "5",
                       "--d", "3", "--matrix", "B0:SU_split_a:5"], 0),
    "containment": (["containment", "--a", "3", "--b", "3", "--n", "5",
                     "--height", "4"], 0),
    "g2-check": (["g2-check", "--tau-word", "t s t^-1"], 0),
    "bend": (["bend", "--spec", GENUS2_SPEC, "--check-relator"], 0),
    "certify-density": (["certify-density", "--spec", GENUS2_SPEC,
                         "--target", "SLn"], 1),
    "reduce-modp": (["reduce-modp", "--p", "11", "--d", "3",
                     "--value", "2+sqrt(3)"], 0),
    "trace-set": (["trace-set", "--family", "SU", "--n", "3", "--p", "3"], 0),
    "orbit-separate": (["orbit-separate", "--n", "3", "--p", "5",
                        "--B", "SU_split_a"], 0),
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_golden_stdout(capsys, name):
    argv, expected_code = README_EXAMPLES[name]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
