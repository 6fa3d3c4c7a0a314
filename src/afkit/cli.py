"""Command-line front end.

Every subcommand is a thin adapter around one library call: it decodes JSON
from a file (or stdin, written as "-" or omitted), invokes the call, and
prints the canonical JSON of the result. A printed document with a "status"
sets the exit code through EXIT alone: 0 ok, 1 refuted, 2 unknown at the
depth/budget, 3 malformed input or bad arguments. Outputs without a status
exit 0; perturb-demo exits 1 when its report does not pass. Exit 1 always
names its witness: the offending vertex, stage or violation. Nothing
unbounded runs by default: depth defaults to 8 and search budgets to 100000
nodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from . import bratteli, dimgroup, elliott, findim, jsonio

EXIT = {"ok": 0, "refuted": 1, "unknown": 2, "input-error": 3}

DEFAULT_DEPTH = 8
DEFAULT_BUDGET = 100_000


class _InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise _InputError, so main reports them as exit 3; --help still exits 0."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


def _read_payload(path: str):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON in {path or 'stdin'} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise _InputError(f"malformed JSON in {path or 'stdin'}: nested too deeply") from exc


def _emit(obj) -> None:
    sys.stdout.write(jsonio.canonical_dumps(obj))


def _answer(doc: dict) -> int:
    """Print a status document; its status is the only thing that sets the exit code."""
    _emit(doc)
    return EXIT[doc["status"]]


def _parse_ints(text: str, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise _InputError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _parse_vertex(text: str, flag: str) -> tuple:
    parts = _parse_ints(text, flag)
    if len(parts) != 2:
        raise _InputError(f"{flag} expects LEVEL,INDEX, got {text!r}")
    return parts


def _parse_table(text: str) -> dict:
    table = {}
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if part in ("-", "_", "x", ""):
            table[i] = None
        else:
            try:
                table[i] = int(part)
            except ValueError as exc:
                raise _InputError(f"--table entries must be ints or '-', got {part!r}") from exc
    return table


# -- handlers ----------------------------------------------------------------


def cmd_validate(args) -> int:
    payload = _read_payload(args.file)
    kind = jsonio.detect_kind(payload)
    if kind == "diagram":
        diagram = jsonio.diagram_from_obj(payload)
        bad = bratteli.consistency_violation(diagram)
        if bad is None:
            return _answer({"status": "ok", "kind": kind, "depth": diagram.depth})
        return _answer({"status": "refuted", "kind": kind, "vertex": list(bad[0]), "reason": bad[1]})
    if kind == "sequence":
        seq = jsonio.sequence_from_obj(payload)
        bad = findim.af_sequence_violation(seq)
        if bad is None:
            return _answer({"status": "ok", "kind": kind, "depth": seq.depth})
        return _answer({"status": "refuted", "kind": kind, "stage": bad[0], "reason": bad[1]})
    if kind == "certificate":
        claims_unital = jsonio.bool_field(payload, "unital")
        cert = jsonio.certificate_from_obj({**payload, "unital": False})
        bad = dimgroup.unit_violation(cert) if claims_unital else None
        if bad is not None:
            return _answer({"status": "refuted", "kind": kind, "reason": bad})
        return _answer({"status": "ok", "kind": kind, "depth": cert.depth})
    getattr(jsonio, f"{kind}_from_obj")(payload)  # algebra, zigzag or equivalence
    return _answer({"status": "ok", "kind": kind})


def cmd_path_count(args) -> int:
    diagram = jsonio.diagram_from_obj(_read_payload(args.file))
    u = _parse_vertex(getattr(args, "from"), "--from")
    v = _parse_vertex(args.to, "--to")
    _emit(bratteli.path_count(diagram, u, v))
    return 0


def cmd_telescope(args) -> int:
    diagram = jsonio.diagram_from_obj(_read_payload(args.file))
    stages = _parse_ints(args.stages, "--stages")
    _emit(jsonio.diagram_to_obj(bratteli.telescope(diagram, stages)))
    return 0


def cmd_simple(args) -> int:
    diagram = jsonio.diagram_from_obj(_read_payload(args.file))
    verdict = bratteli.simplicity_window(diagram)
    if verdict.witnessed:
        return _answer({"status": "ok", "witnessed": True, "depth": verdict.depth})
    return _answer(
        {
            "status": "unknown",
            "witnessed": False,
            "depth": verdict.depth,
            "blocked": list(verdict.blocked),
        }
    )


def cmd_supernatural(args) -> int:
    diagram = jsonio.diagram_from_obj(_read_payload(args.file))
    factors, cofactor = bratteli.supernatural_prefix(diagram, depth=args.depth)
    exponents = {str(p): e for p, e in factors.items()}
    if cofactor == 1:
        _emit(exponents)
        return 0
    return _answer({"status": "unknown", "factors": exponents, "cofactor": cofactor})


def cmd_convert(args) -> int:
    decode, call, encode = args.convert
    _emit(encode(call(decode(_read_payload(args.file)))))
    return 0


def cmd_shen(args) -> int:
    payload = _read_payload(args.file)
    if not isinstance(payload, dict) or "cert" not in payload:
        raise jsonio.SchemaError("input", "shen expects an object with cert, theta, alpha")
    cert = jsonio.certificate_from_obj(payload.get("cert"))
    theta = jsonio.limit_hom_from_obj(payload.get("theta"), "theta")
    alpha = jsonio.int_vector_from_obj(payload.get("alpha"), "alpha")
    factored = dimgroup.shen_factor(cert, theta, alpha)
    if factored is None:
        reason = f"theta.matrix @ alpha survives every stage up to depth {cert.depth}"
        return _answer({"status": "unknown", "depth": cert.depth, "reason": reason})
    phi, theta_prime = factored
    return _answer(
        {
            "status": "ok",
            "phi": jsonio.matrix_to_obj(phi),
            "thetaPrime": jsonio.limit_hom_to_obj(theta_prime),
        }
    )


def cmd_equiv(args) -> int:
    d1 = jsonio.diagram_from_obj(_read_payload(args.left))
    d2 = jsonio.diagram_from_obj(_read_payload(args.right))
    witness = bratteli.equivalence_search(d1, d2, budget=args.budget)
    if witness is None:
        return _answer({"status": "unknown", "budget": args.budget})
    return _answer({"status": "ok", "witness": jsonio.equivalence_to_obj(witness)})


def cmd_zigzag(args) -> int:
    certA = jsonio.certificate_from_obj(_read_payload(args.left))
    certB = jsonio.certificate_from_obj(_read_payload(args.right))
    try:
        witness = elliott.build_zigzag(certA, certB, depth=args.depth, budget=args.budget)
    except elliott.SeedNotFound as exc:
        return _answer({"status": "unknown", "reason": str(exc)})
    payload = jsonio.zigzag_to_obj(witness) if witness is not None else None
    if witness is not None and witness.depth == args.depth:
        return _answer({"status": "ok", "witness": payload})
    return _answer(
        {
            "status": "unknown",
            "requested": args.depth,
            "achieved": witness.depth if witness is not None else None,
            "witness": payload,
        }
    )


def cmd_verify_zigzag(args) -> int:
    witness = jsonio.zigzag_from_obj(_read_payload(args.witness))
    certA = jsonio.certificate_from_obj(_read_payload(args.left))
    certB = jsonio.certificate_from_obj(_read_payload(args.right))
    violation = elliott.zigzag_violation(witness, certA, certB)
    if violation is None:
        return _answer({"status": "ok", "depth": witness.depth})
    return _answer({"status": "refuted", "violation": violation})


def cmd_gen(args) -> int:
    if args.kind == "car":
        diagram = bratteli.gen_car(args.depth)
    else:
        table = _parse_table(args.table) if args.table is not None else {}
        diagram = bratteli.gen_trace_diagram(table, args.depth)
    _emit(jsonio.diagram_to_obj(diagram))
    return 0


def cmd_moduli(args) -> int:
    from . import perturb  # numpy loads only for the two numeric commands

    eps = jsonio.rational_from_str(args.eps)
    n, k = args.n, args.k
    if not 0 < eps < 1:
        raise _InputError(f"--eps must lie in (0,1), got {eps}")
    out = {
        "eps": jsonio.rational_to_str(eps),
        "n": n,
        "k": k,
        "delta0": jsonio.rational_to_str(perturb.delta0(eps, n)),
        "delta1": jsonio.rational_to_str(perturb.delta1(eps, n)),
        "delta2": jsonio.rational_to_str(perturb.delta2(eps, n)),
        "Delta1": perturb.Delta1(n, k),
        "Delta2": perturb.Delta2(n, k),
        "Delta3": perturb.Delta3(n, k),
        "Delta4": perturb.Delta4(n, k),
        "DeltaGlimm": perturb.DeltaGlimm(n, k),
        "squarePartitions": [list(p) for p in perturb.square_partitions(n)],
    }
    _emit(out)
    return 0


def cmd_perturb_demo(args) -> int:
    from . import perturb

    sizes = _parse_ints(args.sizes, "--sizes")
    d = args.d if args.d is not None else max(2 * args.n, 4)
    report = {
        "exchange": perturb.exchange_demo(args.n, args.k, d, args.seed),
        "glimm": perturb.glimm_demo(sizes, args.k, args.seed),
    }
    report["pass"] = report["exchange"]["pass"] and report["glimm"]["pass"]
    _emit(report)
    return EXIT["ok" if report["pass"] else "refuted"]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="afkit",
        description="Exact finite-depth toolkit for AF-algebra classification data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if file:
            p.add_argument("file", nargs="?", default="-")
        return p

    add("validate", cmd_validate, help="validate a diagram/sequence/certificate file")

    p = add("path-count", cmd_path_count, help="count paths between two vertices")
    p.add_argument("--from", required=True, help="source vertex LEVEL,INDEX")
    p.add_argument("--to", required=True, help="target vertex LEVEL,INDEX")

    p = add("telescope", cmd_telescope, help="telescope a diagram to selected levels")
    p.add_argument("--stages", required=True, help="comma-separated level selection, starting 0")

    add("simple", cmd_simple, help="full-connectivity window check")

    p = add("supernatural", cmd_supernatural, help="prime-exponent prefix of a single-vertex diagram")
    p.add_argument("--depth", type=int, default=None)

    # name: (help, decode, library call, encode). Built here, not at module
    # level: the benchmark's tracer rebinds module attributes before main runs,
    # and a table made at import would keep the unwrapped functions.
    conversions = {
        "k0": ("scaled K0 group of a finite-dimensional algebra",
               jsonio.algebra_from_obj, findim.k0, lambda g: {"rank": g.ranks[0], "unit": list(g.levels[0])}),
        "af-to-diagram": ("standard diagram of an AF sequence",
                          jsonio.sequence_from_obj, dimgroup.certificate_of_af, jsonio.diagram_to_obj),
        "diagram-to-af": ("AF sequence of a unital diagram",
                          jsonio.diagram_from_obj, bratteli.af_sequence_of_diagram, jsonio.sequence_to_obj),
        "af-to-cert": ("K0 certificate of an AF sequence",
                       jsonio.sequence_from_obj, dimgroup.certificate_of_af, jsonio.certificate_to_obj),
        "cert-to-af": ("AF sequence of a certificate",
                       jsonio.certificate_from_obj, dimgroup.af_of_certificate, jsonio.sequence_to_obj),
        "unitalize": ("restrict a unit-carrying certificate to its convex subgroups",
                      jsonio.certificate_from_obj, dimgroup.unitalize, jsonio.certificate_to_obj),
    }
    for name, (help_text, decode, call, encode) in conversions.items():
        add(name, cmd_convert, help=help_text).set_defaults(convert=(decode, call, encode))

    add("shen", cmd_shen, help="factor a positive limit hom through a kernel-killing stage")

    p = add("equiv", cmd_equiv, file=False, help="search for an equivalence witness between two diagrams")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("zigzag", cmd_zigzag, file=False, help="build an intertwining witness between two certificates")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("verify-zigzag", cmd_verify_zigzag, file=False, help="recheck a zigzag witness")
    p.add_argument("witness")
    p.add_argument("left")
    p.add_argument("right")

    p = add("gen", cmd_gen, file=False, help="generate an example diagram")
    p.add_argument("kind", choices=["car", "trace"])
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--table", default=None, help="halting table for trace: steps or '-' per input, comma-separated")

    p = add("moduli", cmd_moduli, file=False, help="print the exact perturbation moduli")
    p.add_argument("--eps", default="1/2", help="rational in (0,1), e.g. 1/2")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=1)

    p = add("perturb-demo", cmd_perturb_demo, file=False, help="seeded numeric exchange/conjugation demo")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="2", help="block sizes for the conjugation demo, e.g. 1,2")

    return parser


def main(argv=None) -> int:
    # Integers of any size are valid data, read and printed exactly; Python 3.11
    # caps int<->str conversion at 4300 digits (3.10.6 and older have no cap).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except bratteli.ConsistencyError as exc:
        return _answer({"status": "refuted", "vertex": list(exc.vertex), "error": str(exc)})
    except ValueError as exc:  # _InputError, jsonio.SchemaError and library argument errors
        return _answer({"status": "input-error", "error": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
