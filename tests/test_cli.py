import json
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from hitchinforge.bender import b0_family
from hitchinforge.cli import _load_bending_spec, _load_matrix, run
from hitchinforge.qforms import Diagonalization
from hitchinforge.symrep import cocycle_matrix
from hitchinforge.exactnum import (
    ExactMatrix,
    format_scalar,
    fundamental_unit,
    parse_scalar,
)
from conftest import primes_up_to
from test_acceptance import _display_diagonal

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


# Values past CPython's default limit of 4,300 digits on int <-> str
# conversion cross text through exactnum (format_scalar, parse_scalar and
# the CLI's JSON reader); neither the library nor these tests change the
# limit.
def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_pell_past_the_old_step_cap_prints_its_unit(capsys):
    """The period of sqrt(1000000007) closes at step 12,351, and x has
    6,382 digits, past CPython's default 4,300."""
    limit = _digit_limit()
    code, doc = run_json(capsys, ["pell", "--d", "1000000007"])
    assert code == 0 and _digit_limit() == limit
    assert len(doc["x"]) == 6382
    x, y, d = parse_scalar(doc["x"]), parse_scalar(doc["y"]), doc["d"]
    assert d == 1000000007 and y > 0
    assert x * x - d * y * y == doc["norm"] in (1, -1)


def test_format_scalar_prints_the_pell_unit_outside_the_cli(capsys):
    """Called in-process, under the interpreter's own digit limit, the
    exact unit prints as the CLI prints it and parses back to itself."""
    limit = _digit_limit()
    unit = fundamental_unit(1000000007).value
    text = format_scalar(unit)
    assert _digit_limit() == limit
    code, doc = run_json(capsys, ["pell", "--d", "1000000007"])
    assert code == 0 and text == doc["unit"] and len(text) > 4300
    assert parse_scalar(text) == unit
    assert _digit_limit() == limit


def test_bend_prints_entries_of_any_size(capsys):
    """B0 to the power 1500 has entries of more than 4,300 digits; the
    word's image is printed whole and parses back to a matrix of det 1."""
    data = json.loads(GENUS2_SPEC)
    data["b0"]["k"] = 1500
    limit = _digit_limit()
    code, doc = run_json(capsys, ["bend", "--spec", json.dumps(data),
                                  "--word", "b2"])
    assert code == 0 and _digit_limit() == limit
    assert max(len(e) for row in doc["image"] for e in row) > 4300
    image = ExactMatrix([[parse_scalar(e) for e in row] for row in doc["image"]])
    assert image.det() == 1


# P, the product of the first 1,700 primes, is square-free with 6,222 digits
PRIMORIAL_1700 = prod(sorted(primes_up_to(15000))[:1700])


@pytest.mark.parametrize("quote", ['"', ""], ids=["string", "bare-integer"])
def test_classify_form_prints_a_discriminant_of_any_size(capsys, quote):
    """diag(P, 1) reads P from a JSON string or a bare JSON integer alike,
    and prints P whole as its entry, its square class and its
    discriminant."""
    p = format_scalar(PRIMORIAL_1700)
    limit = _digit_limit()
    code = run(["classify-form", "--matrix", f'[[{quote}{p}{quote}, 0], [0, 1]]'])
    out = capsys.readouterr().out
    assert code == 0 and _digit_limit() == limit
    assert len(p) == 6222 and len(out) == 18937
    doc = json.loads(out)
    assert doc["matrix"] == [[p, "0"], ["0", "1"]]
    assert doc["diagonal_classes"] == [p, "1"] and doc["disc"] == p
    assert doc["signature"] == [2, 0]


@pytest.mark.parametrize("quote", ['"', ""], ids=["string", "bare-integer"])
def test_certify_density_prints_a_witness_trace_of_any_size(capsys, quote):
    """g1 = diag(w, 1/w) with w = 10^5001 + 1 is the infinite-order witness;
    its trace (w^2 + 1)/w prints whole, with 10,003 + 5,002 digits."""
    w = 10 ** 5001 + 1
    spec = json.dumps({
        "n": 3, "mode": "free", "curve": {"gamma": "g1"},
        "sl2_assignment": {"g1": [["W", "0"], ["0", "1/" + format_scalar(w)]],
                           "g2": [["1", "1"], ["0", "1"]]},
        "b_matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]],
    }).replace('"W"', quote + format_scalar(w) + quote)
    limit = _digit_limit()
    code = run(["certify-density", "--spec", spec, "--target", "SLn"])
    out = capsys.readouterr().out
    assert code == 1 and _digit_limit() == limit
    assert len(out) == 15451
    evidence = json.loads(out)["sl2_dense"]
    assert evidence["infinite_order_witness"] == "g1"
    assert evidence["witness_trace"] == format_scalar(Fraction(w * w + 1, w))


def test_classify_form_named(capsys):
    code, doc = run_json(capsys, ["classify-form", "--matrix", "J3"])
    assert code == 0
    assert ["2", -1] in doc["hasse"]
    assert doc["disc"] == "1"
    assert doc["signature"] == [1, 2]


def test_classify_form_diagonalizes_once(capsys, monkeypatch):
    from hitchinforge import cli, qforms
    calls = []
    diagonalize = qforms.diagonalize_qform
    for module in (cli, qforms):
        monkeypatch.setattr(module, "diagonalize_qform",
                            lambda m: calls.append(m) or diagonalize(m))
    code, doc = run_json(capsys, ["classify-form", "--matrix", "J5"])
    assert code == 0 and len(calls) == 1 and doc["signature"] == [3, 2]


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


def test_symrep_reads_a_zero_radicand_as_zero(capsys):
    assert run(["symrep", "--n", "2", "--matrix", '[["sqrt(0)","1"],["-1","0"]]']) == 0
    zero_radicand = capsys.readouterr()
    assert run(["symrep", "--n", "2", "--matrix", '[["0","1"],["-1","0"]]']) == 0
    assert capsys.readouterr() == zero_radicand


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


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("a, b", [(5, 3), (3, 2)])
def test_so_form_degree_4_takes_the_radicands_in_the_given_order(capsys, n, a, b):
    """sqrt(a) and sqrt(b) in the order given, though the field sorts its
    radicands: the displayed diagonal, not a self-check failure."""
    assert run(["so-form", "--n", str(n), "--a", str(a), "--b", str(b),
                "--case", "degree-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closed_form_verified"]
    assert doc["diagonal"] == [format_scalar(d)
                               for d in _display_diagonal(n, "degree-4", a, b)]


@pytest.mark.parametrize("case, a, b", [
    ("degree-2", 3, 0), ("degree-2", 3, -5), ("degree-4", 0, 3),
    ("degree-4", -2, 3), ("trivial", -4, 1), ("trivial", 1, 0),
])
def test_so_form_refuses_a_or_b_below_one(capsys, case, a, b):
    assert run(["so-form", "--n", "5", "--a", str(a), "--b", str(b),
                "--case", case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a and b must be positive integers\n"


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


def test_g2_check_reads_an_empty_tau_word_as_the_identity(capsys):
    code, doc = run_json(capsys, ["g2-check", "--tau-word", ""])
    assert code == 0 and doc["in_g2"]
    assert doc["matrix"] == [["1" if i == j else "0" for j in range(7)] for i in range(7)]


def test_g2_check_usage_errors(capsys):
    both = "g2-check takes --matrix or --tau-word, not both"
    for argv, message in ((["g2-check"], "g2-check needs --matrix or --tau-word"),
                          (["g2-check", "--tau-word", "t", "--matrix", "J7"], both),
                          (["g2-check", "--tau-word", "", "--matrix", "J7"], both),
                          (["g2-check", "--tau-word", "s u"],
                           "tau words use generators s and t")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


BAD_TRACE_SET_INPUTS = [
    ("SL", 2, 4, []), ("SL", 2, 9, []), ("SL", 2, -3, []), ("Sp", 3, 3, []),
    ("SL", 1, 3, []), ("SU", 3, 2, []), ("SU", 3, 9, []), ("Omega", 4, 2, []),
    ("Omega", 4, 3, ["--mode", "words", "--length", "1"]),
]


# ids are family-n-p, followed by the mode when extra argv is given
@pytest.mark.parametrize("family, n, p, extra", BAD_TRACE_SET_INPUTS,
                         ids=["-".join([f, str(n), str(p)] + extra[1:2])
                              for f, n, p, extra in BAD_TRACE_SET_INPUTS])
def test_trace_set_bad_family_parameters(capsys, family, n, p, extra):
    assert run(["trace-set", "--family", family, "--n", str(n),
                "--p", str(p), *extra]) == 2
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


@pytest.mark.parametrize("b_matrix, line", [
    ([["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
     "error: predicate is defined for diagonal matrices only"),
    ([["2", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
     "error: diagonal entries must be nonzero"),
], ids=["non-diagonal", "singular"])
def test_certify_density_refuses_a_bending_matrix_it_cannot_profile(capsys, b_matrix,
                                                                   line):
    data = json.loads(FREE_SPEC)
    del data["b0"]
    data["b_matrix"] = b_matrix
    argv = ["certify-density", "--spec", json.dumps(data), "--target", "SLn"]
    assert _assert_one_line_usage_error(capsys, argv) == line


def test_reduce_modp(capsys):
    code, doc = run_json(capsys, ["reduce-modp", "--p", "11", "--d", "3",
                                  "--value", "2+sqrt(3)"])
    assert code == 0 and doc["value"] == "7" and doc["mode"] == "split"
    code, doc = run_json(capsys, ["reduce-modp", "--p", "5", "--d", "3",
                                  "--value", "2+sqrt(3)"])
    assert doc["mode"] == "inert" and doc["value"] == "2+1r"


# values stored over Q(sqrt2, sqrt3) reduce like the same values over Q(sqrt3)
@pytest.mark.parametrize("option, joined, plain", [
    ("--value", "2+sqrt(3)+sqrt(2)-sqrt(2)", "2+sqrt(3)"),
    ("--matrix", '[["2+sqrt(3)","sqrt(2)-sqrt(2)"],["1","2-sqrt(3)"]]',
     '[["2+sqrt(3)","0"],["1","2-sqrt(3)"]]'),
], ids=["value", "matrix"])
@pytest.mark.parametrize("p", ["5", "11"])
def test_reduce_modp_goes_by_value(capsys, option, joined, plain, p):
    argv = ["reduce-modp", "--p", p, "--d", "3", option]
    code, doc = run_json(capsys, [*argv, joined])
    assert code == 0
    assert (code, doc) == run_json(capsys, [*argv, plain])


def test_reduce_modp_names_the_foreign_field(capsys):
    assert run(["reduce-modp", "--p", "11", "--d", "3", "--value", "sqrt(2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sqrt(2) does not lie in Q(sqrt(3))\n"


@pytest.mark.parametrize("option", ["--value", "--matrix"])
def test_reduce_modp_names_a_denominator_of_any_size(capsys, option):
    """A denominator of 4,401 digits that p divides is named whole on the
    one error line, under the interpreter's own digit limit."""
    den = "5" + "0" * 4400
    value = "1/" + den if option == "--value" else f'[["1/{den}"]]'
    line = _assert_one_line_usage_error(
        capsys, ["reduce-modp", "--p", "5", "--d", "3", option, value])
    assert line == f"error: denominator {den} not invertible mod 5"


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


@pytest.mark.parametrize("b_matrix", [
    [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]],
    [["1"]],
], ids=["3x3", "1x1"])
def test_bending_spec_with_both_b0_and_b_matrix_is_one_line_usage_error(capsys,
                                                                        b_matrix):
    """A spec names its bending matrix once: b0 beside a b_matrix, even one
    of the wrong size, is refused rather than read as b0 alone."""
    data = json.loads(FREE_SPEC)
    data["b_matrix"] = b_matrix
    argv = ["certify-density", "--spec", json.dumps(data), "--target", "SLn"]
    assert _assert_one_line_usage_error(capsys, argv) == (
        "error: bending spec needs exactly one of 'b0' and 'b_matrix'")


def _assert_one_line_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["bend", "--spec", "{dir}", "--word", "g1"],
    ["certify-density", "--spec", "{dir}", "--target", "SLn"],
    ["pell", "--d", "3", "--output", "{dir}"],
], ids=["bend-spec", "certify-density-spec", "pell-output"])
def test_a_directory_for_a_file_is_one_line_usage_error(capsys, tmp_path, argv):
    _assert_one_line_usage_error(capsys, [a.format(dir=tmp_path) for a in argv])


@pytest.mark.parametrize("name", [
    "B0:SU_split_a:5:1:3:junk",
    "B0:SU_split_a:5:1:3:",
    "B0:SU_split_a",
], ids=["trailing-field", "trailing-colon", "no-dimension"])
def test_malformed_bending_matrix_name_is_one_line_usage_error(capsys, name):
    line = _assert_one_line_usage_error(capsys, [
        "lattice-check", "--kind", "SU_sqrt_d", "--n", "5", "--d", "3",
        "--matrix", name])
    assert line == "error: bending matrices are named B0:<kind>:<n>[:k[:d]]"


def test_matrix_rows_must_be_arrays(capsys):
    _assert_one_line_usage_error(
        capsys, ["lattice-check", "--kind", "SLnZ", "--matrix", "[1,2]"])


# JSON reads true as a bool, a subclass of int, but only integer literals
# are scalars: every other entry is refused as its text is
@pytest.mark.parametrize("literal, line", [
    ("true", "error: cannot parse scalar 'True' at offset 0"),
    ("null", "error: cannot parse scalar 'None' at offset 0"),
    ("1.5", "error: cannot parse scalar '1.5' at offset 1"),
    ("1e3", "error: cannot parse scalar '1000.0' at offset 4"),
])
@pytest.mark.parametrize("command", ["classify-form", "certify-density"])
def test_non_integer_json_entries_are_one_line_usage_errors(capsys, literal,
                                                            line, command):
    if command == "classify-form":
        argv = ["--matrix", f'[[{literal}, "0"], ["0", "1"]]']
    else:
        argv = ["--spec", FREE_SPEC.replace('"2+sqrt(3)"', literal, 1),
                "--target", "SLn"]
    assert _assert_one_line_usage_error(capsys, [command, *argv]) == line


@pytest.mark.parametrize("command", ["bend", "certify-density"])
@pytest.mark.parametrize("key, value", [
    ("sl2_assignment", {}),
    ("sl2_assignment", [1]),
    ("n", "x"),
], ids=["empty-assignment", "list-assignment", "string-n"])
def test_bending_spec_field_types(capsys, command, key, value):
    data = json.loads(FREE_SPEC)
    data[key] = value
    extra = ["--word", "g1"] if command == "bend" else ["--target", "SLn"]
    _assert_one_line_usage_error(
        capsys, [command, "--spec", json.dumps(data), *extra])


@pytest.mark.parametrize("kind", [5, None, ["SU_split_a"], "missing"],
                         ids=["int", "none", "list", "missing"])
def test_bending_spec_unknown_kind_is_usage_error(capsys, kind):
    data = json.loads(FREE_SPEC)
    data["n"] = 4           # an unlooked-up kind used to build the Sp family
    data["b0"]["kind"] = kind
    if kind == "missing":   # a missing kind is named as None
        del data["b0"]["kind"]
        kind = None
    assert run(["bend", "--spec", json.dumps(data), "--word", "g1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: unknown bending family {kind!r}"]


@pytest.mark.parametrize("spec, path, value", [
    (FREE_SPEC, ("b0", "k"), 1.5),
    (FREE_SPEC, ("b0", "k"), True),
    (FREE_SPEC, ("b0", "d"), "x"),
    (GENUS2_SPEC, ("genus",), 2.5),
    (GENUS2_SPEC, ("curve", "h"), "x"),
    # a separating curve must split genus 2 into two nonempty sides
    *((GENUS2_SPEC, ("curve", "h"), h) for h in (0, -1, 2, 5)),
], ids=["float-k", "bool-k", "string-d", "float-genus", "string-h",
        "h-0", "h-minus-1", "h-2", "h-5"])
def test_bending_spec_integer_fields(capsys, spec, path, value):
    data = json.loads(spec)
    *parents, key = path
    target = data
    for parent in parents:
        target = target[parent]
    target[key] = value
    line = _assert_one_line_usage_error(
        capsys, ["bend", "--spec", json.dumps(data), "--check-relator"])
    assert f"'{'.'.join(path)}'" in line
    if isinstance(value, int) and not isinstance(value, bool):
        assert line == "error: bending spec 'curve.h' must lie in 1..1 for genus 2"


def _with_curve(spec, **curve):
    data = json.loads(spec)
    data["curve"] = curve
    return json.dumps(data)


# the curve kind states the mode: a presentation spec needs a separating or
# non-separating curve, a free spec a free one; each misfit is one line
@pytest.mark.parametrize("spec, argv, line", [
    (_with_curve(GENUS2_SPEC, h=1), ["--word", "b2"], None),
    (_with_curve(GENUS2_SPEC, h=1), ["--check-relator"], None),
    (_with_curve(FREE_SPEC, kind="separating", gamma="g1"), ["--word", "g1"], None),
    (_with_curve(GENUS2_SPEC, kind="nonseparating"), ["--check-relator"],
     "error: bending spec 'curve.stable' 's' is not a generator of the genus-2 surface"),
], ids=["presentation-without-kind-word", "presentation-without-kind-relator",
        "free-separating", "unassigned-stable-letter"])
def test_bending_spec_curve_must_fit_the_mode(capsys, spec, argv, line):
    got = _assert_one_line_usage_error(capsys, ["bend", "--spec", spec, *argv])
    assert got == (line or "error: bending spec 'curve.kind' must be 'free' in "
                   "free mode, 'separating' or 'nonseparating' in presentation mode")


# a non-separating curve bends its stable letter s to rho(s)*B, and the
# bent surface relator decides well-definedness, as for a separating one
@pytest.mark.parametrize("kind", ["SU_split_a", "SO_odd"])
def test_bend_nonseparating_relator_holds_when_b_commutes_with_the_dual(capsys, kind):
    data = json.loads(_with_curve(GENUS2_SPEC, kind="nonseparating", stable="a1"))
    data["b0"]["kind"] = kind
    code, doc = run_json(capsys, ["bend", "--spec", json.dumps(data),
                                  "--check-relator"])
    assert code == 0 and doc["relator_ok"]
    assert doc["invariant_violations"] == []
    images = []
    for k in (1, 3):
        data["b0"]["k"] = k
        code, doc = run_json(capsys, ["bend", "--spec", json.dumps(data),
                                      "--word", "a1"])
        images.append(doc["image"])
    assert code == 0 and images[0] != images[1]


def test_bend_nonseparating_relator_fails_when_the_unbent_one_does(capsys):
    # the unipotent second handle breaks the relator before any bending,
    # whether or not B commutes with the curve image; the curve is the dual
    # of the stable letter, so a "gamma" (here one B commutes with) is not read
    data = json.loads(GENUS2_SPEC)
    data["sl2_assignment"]["a2"] = [["1", "1"], ["0", "1"]]
    data["sl2_assignment"]["b2"] = [["1", "0"], ["1", "1"]]
    for curve, violations in (({"stable": "b1"}, 1),
                              ({"stable": "b1", "gamma": "b1"}, 1),
                              ({"stable": "a1"}, 0)):
        data["curve"] = {"kind": "nonseparating", **curve}
        code, doc = run_json(capsys, ["bend", "--spec", json.dumps(data),
                                      "--check-relator"])
        assert code == 1 and not doc["relator_ok"]
        assert len(doc["invariant_violations"]) == violations


def test_bending_spec_mode_must_be_known(capsys):
    data = json.loads(FREE_SPEC)
    data["mode"] = "presentaton"
    _assert_one_line_usage_error(
        capsys, ["bend", "--spec", json.dumps(data), "--check-relator"])


def test_unknown_generator_is_one_clean_line(capsys):
    assert run(["bend", "--spec", FREE_SPEC, "--word", "g1 g3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word uses unknown generator 'g3'\n"


@pytest.mark.parametrize("key", ["b0", "curve"])
def test_bending_spec_b0_and_curve_must_be_objects(capsys, key):
    data = {"n": 3, "sl2_assignment": {"g1": [["1", "1"], ["0", "1"]]},
            "b0": {"kind": "SU_split_a"}, key: 5}
    assert run(["bend", "--word", "g1", "--spec", json.dumps(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: bending spec '{key}' must be an object"]


def test_bending_matrix_must_be_n_by_n(capsys):
    data = json.loads(FREE_SPEC)
    del data["b0"]
    data["b_matrix"] = [[1]]
    _assert_one_line_usage_error(
        capsys, ["bend", "--spec", json.dumps(data), "--word", "g1"])


# an assignment and a bending matrix over different fields are joined in
# the field they generate together
@pytest.mark.parametrize("data, image, violations", [
    ({"n": 3, "sl2_assignment": {"g1": [["2+sqrt(2)", "0"], ["0", "2-sqrt(2)"]],
                                 "g2": [["1", "1"], ["0", "1"]]},
      "b0": {"kind": "SU_split_a", "d": 3, "k": 1}, "curve": {"gamma": "g1"}},
     [["6+4sqrt(2)", "0", "0"], ["0", "2", "0"], ["0", "0", "6-4sqrt(2)"]],
     ["assignment of g1 has determinant != 1"]),
    ({"n": 3, "sl2_assignment": {"g1": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
                                 "g2": [["1", "1"], ["0", "1"]]},
      "b_matrix": [["1+sqrt(2)", "0", "0"], ["0", "1", "0"], ["0", "0", "-1+sqrt(2)"]],
      "curve": {"gamma": "g1"}},
     [["7+4sqrt(3)", "0", "0"], ["0", "1", "0"], ["0", "0", "7-4sqrt(3)"]], []),
], ids=["b0-over-sqrt3", "b_matrix-over-sqrt2"])
def test_bending_spec_joins_the_fields_of_assignment_and_matrix(
        capsys, data, image, violations):
    code, doc = run_json(capsys, ["bend", "--spec", json.dumps(data),
                                  "--word", "g1", "--check-relator"])
    assert code == 0
    assert doc["image"] == image
    assert doc["invariant_violations"] == violations


# entries joined into Q(sqrt2, sqrt3) whose values lie in Q(sqrt3) are
# members by value
@pytest.mark.parametrize("matrix", [
    [["sqrt(2)-sqrt(2)+1", "0"], ["0", "1"]],
    [["2+sqrt(3)+sqrt(2)-sqrt(2)", "0"], ["0", "2-sqrt(3)"]],
], ids=["one", "unit"])
def test_su_membership_lifts_entries_by_value(capsys, matrix):
    code, doc = run_json(capsys, ["lattice-check", "--kind", "SU_sqrt_d", "--d", "3",
                                  "--n", "2", "--matrix", json.dumps(matrix)])
    assert code == 0 and doc["member"] is True


@pytest.mark.parametrize("argv", [
    ["trace-set", "--family", "SL", "--n", "2", "--p", "3",
     "--mode", "words", "--length", "-1"],
    ["orbit-separate", "--n", "3", "--p", "5", "--B", "SU_split_a",
     "--length", "-1"],
], ids=["trace-set", "orbit-separate"])
def test_negative_word_length_is_usage_error(capsys, argv):
    _assert_one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("kind, extra", [("SLnZ", []), ("Sp", ["--n", "2"])])
def test_z_point_kinds_reject_sqrt2(capsys, kind, extra):
    matrix = json.dumps([["1", "sqrt(2)"], ["0", "1"]])
    code, doc = run_json(capsys, ["lattice-check", "--kind", kind, *extra,
                                  "--matrix", matrix])
    assert code == 1 and doc["member"] is False


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
    assert captured.err == "error: sqrt(2) does not lie in Q(sqrt(3))\n"


@pytest.mark.parametrize("kind", ["SU_quat", "SL_quat"])
def test_lattice_check_has_no_quaternion_kinds(capsys, kind):
    assert run(["lattice-check", "--kind", kind, "--d", "3", "--matrix", "J2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("hitchin-forge lattice-check: error: argument "
                                f"--kind: invalid choice: '{kind}'")


DEEP = 100_000


@pytest.mark.parametrize("argv", [
    ["symrep", "--n", "3", "--matrix", "[" * DEEP + "]" * DEEP],
    ["bend", "--spec", '{"n": ' + "[" * DEEP + "]" * DEEP + "}", "--word", "g1"],
], ids=["matrix", "spec"])
def test_deeply_nested_json_is_one_line_usage_error(capsys, argv):
    """Nesting past the decoder's recursion is refused by the one JSON
    reader, not a RecursionError traceback."""
    line = _assert_one_line_usage_error(capsys, argv)
    assert line == "error: JSON is nested too deeply"


def test_containment_signs(capsys):
    """--signs picks one sign pattern; a string that is not two of + and -
    is a usage error."""
    code, doc = run_json(capsys, ["containment", "--a", "2", "--b", "3", "--n", "3",
                                  "--height", "1", "--signs", "+-"])
    assert code == 0 and doc["patterns"] == ["+-"]
    assert doc["passed"] == doc["total"] > 0
    line = _assert_one_line_usage_error(capsys, [
        "containment", "--a", "2", "--b", "3", "--n", "3", "--signs", "+"])
    assert line == "error: signs must be two characters drawn from +-"


@pytest.mark.parametrize("name, signs", [("T++", (1, 1)), ("T+-", (1, -1)),
                                         ("T-+", (-1, 1)), ("T--", (-1, -1))])
def test_named_cocycle_matrices(capsys, name, signs):
    expected = cocycle_matrix(signs)
    assert _load_matrix(name) == expected
    code, doc = run_json(capsys, ["symrep", "--n", "3", "--matrix", name])
    assert code == 0
    assert doc["matrix"] == [[format_scalar(e) for e in row] for row in expected.entries]


def test_bending_spec_from_a_file_matches_the_inline_spec(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(GENUS2_SPEC)
    outputs = []
    for spec in (GENUS2_SPEC, str(path)):
        code = run(["bend", "--spec", spec, "--check-relator"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("spec", ['{"n": 3,', '  {"n": 3, "sl2_assignment"}'],
                         ids=["truncated", "indented"])
def test_malformed_inline_bending_spec_reports_the_json_error(capsys, spec):
    """Text that starts with '{' is an inline spec, not a file name."""
    line = _assert_one_line_usage_error(capsys, ["bend", "--spec", spec, "--word", "g1"])
    assert line.startswith("error: bending spec is not valid JSON: ")


def test_bending_spec_that_is_not_json_names_a_file(capsys, tmp_path):
    """Any other text that is not JSON is a path: a missing file is the
    file's error, and a file of malformed JSON the decoder's."""
    missing = tmp_path / "missing.json"
    line = _assert_one_line_usage_error(
        capsys, ["bend", "--spec", str(missing), "--word", "g1"])
    assert line.startswith("error: [Errno 2] No such file") and str(missing) in line
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 3,')
    line = _assert_one_line_usage_error(
        capsys, ["bend", "--spec", str(broken), "--word", "g1"])
    assert "No such file" not in line and "line 1 column" in line


@pytest.mark.parametrize("spec", ["[1]", '"n"', "3", "null"])
def test_bending_spec_must_be_a_json_object(capsys, spec):
    line = _assert_one_line_usage_error(capsys, ["bend", "--spec", spec, "--word", "g1"])
    assert line == "error: bending spec must be a JSON object"


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


def test_bending_matrix_names_and_specs_default_to_k_1_and_d_3():
    b = b0_family("SU_split_a", 3, fundamental_unit(3).value, 1)
    assert _load_matrix("B0:SU_split_a:3") == _load_matrix("B0:SU_split_a:3:1:3") == b
    data = json.loads(FREE_SPEC)
    data["b0"] = {"kind": "SU_split_a"}
    assert _load_bending_spec(json.dumps(data)).b_matrix == b


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


def test_readme_examples_leave_the_digit_limit_alone(capsys, monkeypatch):
    """The interpreter-wide digit limit is no part of the CLI: every README
    example prints its golden stdout with no call to set it."""
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits",
                        lambda *args: calls.append(args), raising=False)
    for name, (argv, expected_code) in sorted(README_EXAMPLES.items()):
        assert run(argv) == expected_code
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert calls == []


@pytest.mark.parametrize("module, name, value, argv, message", [
    # the closed-form Hasse invariant disagrees with the computed one
    ("symrep", "so_form_closed_hasse", 7,
     ["so-form", "--n", "5", "--a", "3", "--b", "5", "--case", "degree-2"],
     "Hasse invariant at"),
    # the bending matrix fails its own lattice membership
    ("bender", "_b0_membership", False,
     ["lattice-check", "--kind", "SU_sqrt_d", "--n", "5", "--d", "3",
      "--matrix", "B0:SU_split_a:5"],
     "bending matrix fails its SU_split_a lattice membership"),
    # the trivial case's diagonalization returns a form not congruent to J
    ("symrep", "diagonalize_qform",
     Diagonalization((1,) * 5, (Fraction(1),) * 5),
     ["so-form", "--n", "5", "--a", "1", "--b", "4", "--case", "trivial"],
     "constructed form has rank, discriminant and signature"),
])
def test_failed_self_check_exits_3_with_one_line(capsys, monkeypatch, module,
                                                  name, value, argv, message):
    """A library self-check that fails ends in exit 3 and one stderr line,
    not a traceback: the check runs for real on a patched input."""
    import importlib
    monkeypatch.setattr(importlib.import_module(f"hitchinforge.{module}"),
                        name, lambda *args: value)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"internal self-check failed: {message}")
    assert captured.err.count("\n") == 1


def test_assertion_from_a_subcommand_exits_3(capsys, monkeypatch):
    import hitchinforge.cli as cli

    def broken(*args):
        raise AssertionError("witness fails its defining equations")

    monkeypatch.setattr(cli, "so_form_from_cocycle", broken)
    assert run(["so-form", "--n", "5", "--a", "3", "--b", "5",
                "--case", "degree-2"]) == 3
    assert capsys.readouterr().err == (
        "internal self-check failed: witness fails its defining equations\n")
