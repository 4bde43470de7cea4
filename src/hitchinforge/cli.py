"""Command-line front end: every pipeline as a subcommand with
deterministic JSON output.

Exit codes: 0 = computed, 1 = computed with failures (membership false,
containment failures, invalid certificates), 2 = usage error, 3 = an
internal self-check failed (an AssertionError, reported on one stderr
line).  Exact values are emitted as decimal strings of any size; matrices
are arrays of strings over the grammar
int('/'int)? (('+'|'-') coeff 'sqrt(' int ')')* .  Every exact integer
meets text through exactnum (`_read_json` in, `format_scalar` out), in
chunks below CPython's int <-> str digit limit, which stays as it is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bender import (
    DENSITY_TARGETS,
    B0Kind,
    BendingSpec,
    CurveSpec,
    SurfacePresentation,
    b0_family,
    bend_eval,
    density_certificate,
    evaluate_word,
    parse_word,
    relator_ok,
)
from .exactnum import (
    ExactMatrix,
    _text_int,
    common_field,
    format_scalar,
    fundamental_unit,
    parse_scalar,
    preserves_form,
)
from .g2core import in_g2
from .lattices import LATTICE_KINDS, LatticeSpec, containment_check
from .modp import (
    DEFAULT_CLOSURE_CAP,
    FAMILIES,
    ReductionContext,
    find_nonsurjective_prime,
    reduce_matrix,
    reduce_scalar,
    separation_certificate,
    trace_set,
)
from .qforms import diagonalize_qform, invariants_from_classes
from .quatalg import QuatAlgebra, gamma_enumerate, is_division
from .symrep import (
    cocycle_matrix,
    j_matrix,
    so_form_from_cocycle,
    tau,
    trace_poly,
)

SCHEMA = "hitchin-forge/1"
_decode_json = json.JSONDecoder(parse_int=_text_int).decode


class UsageError(Exception):
    pass


def _read_json(text: str):
    """The one JSON reader: exactnum reads integer literals of any size,
    and nesting too deep for the decoder is a usage error."""
    try:
        return _decode_json(text)
    except RecursionError:
        raise UsageError("JSON is nested too deeply") from None


def _matrix_to_json(m: ExactMatrix) -> list:
    return [[format_scalar(e) for e in row] for row in m.entries]


def _named_b0(kind, n: int, k: int = 1, d: int = 3) -> ExactMatrix:
    """The bending matrix B0(kind, n) to the power k over Z[sqrt(d)]."""
    return b0_family(kind, n, fundamental_unit(d).value, k)


def _load_matrix(text: str) -> ExactMatrix:
    """A named built-in (J2..J9, T++/T+-/T-+/T--, B0:<kind>:<n>[:k[:d]])
    or a JSON array of scalars."""
    text = text.strip()
    if text.startswith("J") and text[1:].isdigit():
        n = int(text[1:])
        if not 2 <= n <= 9:
            raise UsageError("built-in antidiagonal forms range J2..J9")
        return j_matrix(n)
    if text.startswith("T") and len(text) == 3 and set(text[1:]) <= {"+", "-"}:
        return cocycle_matrix(2, 3, _parse_signs(text[1:]))
    if text.startswith("B0:"):
        parts = text.split(":")
        if not 3 <= len(parts) <= 5:
            raise UsageError("bending matrices are named B0:<kind>:<n>[:k[:d]]")
        return _named_b0(parts[1], *(int(p) for p in parts[2:]))
    try:
        return _matrix_from_rows(_read_json(text))
    except json.JSONDecodeError as e:
        raise UsageError(f"matrix is neither a built-in name nor JSON: {e}")


def _matrix_from_rows(rows) -> ExactMatrix:
    """Rows of scalar strings and integers; a bool, null or float is refused."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and row for row in rows)):
        raise UsageError("matrix JSON must be a nonempty array of nonempty rows")
    m = ExactMatrix([[e if type(e) is int else parse_scalar(str(e))
                      for e in row] for row in rows])
    desc = common_field(e for row in m.entries for e in row)
    return m.lift(desc) if desc.k else m


def _emit(args, payload: dict, exit_code: int = 0) -> int:
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    if getattr(args, "seed", None) is not None:
        payload["seed"] = args.seed
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return exit_code


# -- subcommand handlers -----------------------------------------------------


def _cmd_pell(args) -> int:
    u = fundamental_unit(args.d)
    return _emit(args, {
        "d": args.d,
        "unit": format_scalar(u.value),
        "x": format_scalar(u.x),
        "y": format_scalar(u.y),
        "norm": u.norm,
    })


def _cmd_quat_info(args) -> int:
    alg = QuatAlgebra(args.a, args.b)
    division, ram = is_division(alg)
    payload = {
        "a": alg.a,
        "b": alg.b,
        "is_division": division,
        "ramified_places": sorted(str(v) for v in ram),
        "cocompact": division if alg.a >= 1 and alg.b >= 1 else None,
    }
    if args.height is not None:
        elements = gamma_enumerate(alg.a, alg.b, args.height)
        payload["height"] = args.height
        payload["norm_one_elements"] = [
            [str(x) for x in g.quadruple()] for g in elements]
    return _emit(args, payload)


def _cmd_classify_form(args) -> int:
    m = _load_matrix(args.matrix)
    diag = diagonalize_qform(m)
    inv = invariants_from_classes(diag.classes)
    return _emit(args, {
        "matrix": _matrix_to_json(m),
        "diagonal_classes": [format_scalar(c) for c in diag.classes],
        **inv.to_json(),
    })


def _cmd_symrep(args) -> int:
    m = _load_matrix(args.matrix)
    image = tau(args.n, m)
    poly = trace_poly(args.n)
    return _emit(args, {
        "n": args.n,
        "matrix": _matrix_to_json(m),
        "image": _matrix_to_json(image),
        "det": format_scalar(image.det()),
        "preserves_invariant_form": preserves_form(image, j_matrix(args.n)),
        "trace": format_scalar(image.trace()),
        "trace_polynomial_coefficients": [format_scalar(c) for c in poly.coefficients],
    })


def _cmd_so_form(args) -> int:
    res = so_form_from_cocycle(args.n, args.a, args.b, args.case)
    return _emit(args, {
        "n": args.n,
        "a": args.a,
        "b": args.b,
        "case": args.case,
        "diagonal": [format_scalar(e)
                     for e in res.diagonal_matrix.diagonal_entries()],
        "invariants": res.invariants.to_json(),
        "closed_form_hasse": {str(p): s
                              for p, s in res.closed_form_hasse.items()},
        "closed_form_verified": True,
    })


def _cmd_lattice_check(args) -> int:
    m = _load_matrix(args.matrix)
    q = _load_matrix(args.q_matrix) if args.q_matrix else None
    spec = LatticeSpec(kind=args.kind, n=args.n or m.nrows, d=args.d, q_matrix=q)
    member = spec.contains(m)
    code = 0 if member else 1
    return _emit(args, {
        "kind": args.kind,
        "member": member,
    }, code)


def _cmd_containment(args) -> int:
    signs = _parse_signs(args.signs) if args.signs else None
    report = containment_check(args.a, args.b, args.n, signs, args.height)
    return _emit(args, {
        **report.to_json(),
    }, 0 if report.all_passed else 1)


def _parse_signs(text: str) -> tuple[int, int]:
    if len(text) != 2 or set(text) - {"+", "-"}:
        raise UsageError("signs must be two characters drawn from +-")
    return (1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)


def _cmd_g2_check(args) -> int:
    if args.tau_word:
        word = parse_word(args.tau_word)
        gens = {"s": ExactMatrix([[0, -1], [1, 0]]),
                "t": ExactMatrix([[1, 1], [0, 1]])}
        if any(name not in gens for name, _ in word):
            raise UsageError("tau words use generators s and t")
        m = tau(7, evaluate_word(gens, word))
    elif args.matrix is not None:
        m = _load_matrix(args.matrix)
    else:
        raise UsageError("g2-check needs --matrix or --tau-word")
    member = in_g2(m)
    return _emit(args, {
        "matrix": _matrix_to_json(m),
        "in_g2": member,
    }, 0 if member else 1)


def _spec_int(value, name: str, low: Optional[int] = None) -> int:
    """A bending-spec field that must be a JSON integer (not a bool), and
    at least `low` when one is given."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or (low is not None and value < low)):
        bound = f" >= {low}" if low is not None else ""
        raise UsageError(f"bending spec {name!r} must be an integer{bound}")
    return value


def _load_bending_spec(text: str) -> BendingSpec:
    """A spec inline, or in the file named by text that is not JSON; text
    whose first non-space character is '{' is an inline spec, so its JSON
    error is the message."""
    try:
        data = _read_json(text)
    except json.JSONDecodeError as e:
        if text.lstrip().startswith("{"):
            raise UsageError(f"bending spec is not valid JSON: {e}") from None
        with open(text) as fh:
            data = _read_json(fh.read())
    if not isinstance(data, dict):
        raise UsageError("bending spec must be a JSON object")
    for key in ("n", "sl2_assignment"):
        if key not in data:
            raise UsageError(f"bending spec has no {key!r}")
    if "b0" not in data and "b_matrix" not in data:
        raise UsageError("bending spec has neither 'b0' nor 'b_matrix'")
    n = _spec_int(data["n"], "n", 2)
    if not isinstance(data["sl2_assignment"], dict) or not data["sl2_assignment"]:
        raise UsageError("bending spec 'sl2_assignment' must be a nonempty object")
    for key in ("b0", "curve"):
        if key in data and not isinstance(data[key], dict):
            raise UsageError(f"bending spec {key!r} must be an object")
    sl2 = {name: _matrix_from_rows(rows)
           for name, rows in data["sl2_assignment"].items()}
    if "b0" in data:
        spec_b = data["b0"]
        b = _named_b0(spec_b.get("kind"), n, **{
            key: _spec_int(spec_b[key], f"b0.{key}")
            for key in ("d", "k") if key in spec_b})
    else:
        b = _matrix_from_rows(data["b_matrix"])
    # one field for the assignment and the bending matrix together
    desc = common_field(e for m in (*sl2.values(), b) for row in m.entries
                        for e in row)
    if desc.k:
        sl2 = {name: m.lift(desc) for name, m in sl2.items()}
        b = b.lift(desc)
    assignment = {name: tau(n, m) for name, m in sl2.items()}
    mode = data.get("mode", "free")
    if mode not in ("free", "presentation"):
        raise UsageError("bending spec 'mode' must be 'free' or 'presentation'")
    presentation = (SurfacePresentation(_spec_int(data.get("genus", 2), "genus"))
                    if mode == "presentation" else None)
    curve_data = data.get("curve", {})
    kind = curve_data.get("kind", "free")
    curve = CurveSpec(kind, h=_spec_int(curve_data.get("h", 1), "curve.h"),
                      stable=curve_data.get("stable", "s"),
                      gamma_name=curve_data.get("gamma") if kind == "free" else None)
    return BendingSpec(n=n, assignment=assignment, b_matrix=b, curve=curve,
                       presentation=presentation, sl2_assignment=sl2)


def _cmd_bend(args) -> int:
    spec = _load_bending_spec(args.spec)
    payload = {"mode": spec.mode}
    code = 0
    if args.check_relator:
        check = relator_ok(spec)
        payload["relator_ok"] = check.ok
        payload["detail"] = check.detail
        payload["invariant_violations"] = spec.invariant_violations()
        code = 0 if check.ok else 1
    if args.word:
        payload["word"] = args.word
        payload["image"] = _matrix_to_json(bend_eval(spec, args.word))
    return _emit(args, payload, code)


def _cmd_certify_density(args) -> int:
    spec = _load_bending_spec(args.spec)
    cert = density_certificate(spec, args.target)
    return _emit(args, {
        **cert.to_json(),
    }, 0 if cert.valid else 1)


def _cmd_reduce_modp(args) -> int:
    ctx = ReductionContext.build(args.p, args.d)
    payload = {
        "p": args.p,
        "d": args.d,
        "mode": ctx.mode,
        "root": ctx.root,
    }
    if args.value:
        x = parse_scalar(args.value)
        payload["value"] = str(reduce_scalar(x, ctx))
    if args.matrix:
        m = _load_matrix(args.matrix)
        payload["matrix"] = _matrix_to_json(reduce_matrix(m, ctx))
    return _emit(args, payload)


def _cmd_trace_set(args) -> int:
    length = args.length if args.mode == "words" else None
    traces = trace_set(args.family, args.n, args.p, cap=args.cap,
                       word_length=length)
    values = sorted(str(t) for t in traces)
    field_size = args.p if all(t.y == 0 for t in traces) else args.p ** 2
    return _emit(args, {
        "family": args.family,
        "n": args.n,
        "p": args.p,
        "mode": args.mode,
        "word_length": length,
        "traces": values,
        "count": len(values),
        "equals_field": len(traces) == field_size,
    })


def _cmd_orbit_separate(args) -> int:
    b = _named_b0(args.B, args.n, args.k, args.d)
    cert = separation_certificate(args.n, b, args.p, args.length)
    payload = {
        "bending_family": args.B,
        "k": args.k,
        **cert.to_json(),
    }
    if args.scan_bound:
        payload["first_nonsurjective_prime"] = find_nonsurjective_prime(
            args.n, args.scan_bound)
    return _emit(args, payload, 0 if cert.separates else 1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="recorded in the output for reproducibility")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="also write the JSON to this file")
    parser = argparse.ArgumentParser(
        prog="hitchin-forge", parents=[common],
        description="exact-arithmetic certificates for arithmetic lattices, "
                    "symmetric-power representations and bending")
    subparsers = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        def add_parser(self, name, **kw):
            return subparsers.add_parser(name, parents=[common], **kw)

    sub = _Sub()

    p = sub.add_parser("pell", help="fundamental unit of Z[sqrt(d)]")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_pell)

    p = sub.add_parser("quat-info", help="quaternion algebra invariants")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(fn=_cmd_quat_info)

    p = sub.add_parser("classify-form", help="full invariants of a quadratic form")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=_cmd_classify_form)

    p = sub.add_parser("symrep", help="symmetric-power image of a 2x2 matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=_cmd_symrep)

    p = sub.add_parser("so-form", help="diagonal orthogonal form from a cocycle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--case", required=True,
                   choices=["trivial", "degree-2", "degree-4"])
    p.set_defaults(fn=_cmd_so_form)

    p = sub.add_parser("lattice-check", help="arithmetic group membership")
    p.add_argument("--kind", required=True, choices=list(LATTICE_KINDS))
    p.add_argument("--matrix", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--q-matrix", default=None)
    p.set_defaults(fn=_cmd_lattice_check)

    p = sub.add_parser("containment",
                       help="verify the norm-one lattice lands in its "
                            "twisted unitary group")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--signs", default=None,
                   help="two characters over +- (default: all applicable)")
    p.add_argument("--height", type=int, default=2)
    p.set_defaults(fn=_cmd_containment)

    p = sub.add_parser("g2-check", help="exceptional group membership")
    p.add_argument("--matrix")
    p.add_argument("--tau-word",
                   help="word over s,t mapped through the 7-dimensional "
                        "representation")
    p.set_defaults(fn=_cmd_g2_check)

    p = sub.add_parser("bend", help="evaluate a bent representation")
    p.add_argument("--spec", required=True,
                   help="BendingSpec JSON (inline or a file path)")
    p.add_argument("--word", default=None)
    p.add_argument("--check-relator", action="store_true")
    p.set_defaults(fn=_cmd_bend)

    p = sub.add_parser("certify-density", help="Zariski-density certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True, choices=DENSITY_TARGETS)
    p.set_defaults(fn=_cmd_certify_density)

    p = sub.add_parser("reduce-modp", help="reduce exact data modulo p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--value", default=None)
    p.add_argument("--matrix", default=None)
    p.set_defaults(fn=_cmd_reduce_modp)

    p = sub.add_parser("trace-set", help="trace set of a finite matrix group")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mode", default="full", choices=["full", "words"])
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP,
                   help="bound on the group order in full mode, checked before "
                        "any element is enumerated; on the distinct words in "
                        "words mode")
    p.set_defaults(fn=_cmd_trace_set)

    p = sub.add_parser("orbit-separate", help="mod-p orbit separation certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--B", required=True,
                   choices=[k.value for k in B0Kind])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--scan-bound", type=int, default=None)
    p.set_defaults(fn=_cmd_orbit_separate)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError, KeyError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal self-check failed: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
