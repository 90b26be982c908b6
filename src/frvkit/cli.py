"""Batch command-line interface.

Commands::

    frvkit compute FILE   entropy/information measures for a named pair
    frvkit triangle FILE  mediator search and residuals for a named triple
    frvkit audit          run the axiom audit for a registered functional
    frvkit generate       emit seeded instance-document corpora

``FILE`` may be ``-`` for stdin.  Exit codes: 0 success (for audit: every
check passed), 1 audit failure, 2 input or validation error.  Any other
exception is a bug and surfaces with its traceback.

:func:`main` is reentrant: it parses with one parser per process and keeps
nothing else between calls.  Each call reads its documents afresh and looks
its command up by name when it runs, so rebinding a ``cmd_*`` function
takes effect on the next call.  :func:`build_parser` returns a new parser
on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from typing import Dict, List, Optional

from . import __version__
from .axioms import (
    DEFAULT_INSTANCES,
    DEFAULT_SEED,
    IDENTITY_TOLERANCE,
    PROBE_TOLERANCE,
    PairInstance,
    audit,
    build_audit_corpus,
    builtin_functionals,
    get_functional,
    triangle_document,
)
from .core import FiniteRandomVariable
from .documents import (
    load_document,
    parse_instance_document,
    pmf_document,
    serialize_document,
)
from .errors import DocumentError, FrvError
from .generators import random_pair
from .labels import encode_label, label_key, label_text
from .markov import (
    FAMILIES,
    Triple,
    chain_rule_residual,
    find_mediator,
    generate_markov_triangle,
    weak_functoriality_residual,
)
from .measures import conditional_entropy, entropy, joint_entropy, mutual_information

BASES = {"2": 2.0, "e": math.e, "10": 10.0}


def _significant(value: float, digits: int = 12) -> float:
    return float(f"{value:.{digits}g}")


def _read_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(path, str(exc)) from None
    return load_document(text)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _mediator_rows(mediator):
    return sorted(
        mediator.table.items(),
        key=lambda item: (label_key(item[0][0]), label_key(item[0][1])),
    )


def _pick_variables(
    variables: Dict[str, FiniteRandomVariable],
    selector: Optional[str],
    count: int,
    flag: str,
):
    if selector is None:
        if len(variables) != count:
            raise DocumentError(
                "variables",
                f"document defines {len(variables)} variables; pass {flag} to pick {count}",
            )
        names = list(variables)
    else:
        names = [name.strip() for name in selector.split(",")]
        if len(names) != count:
            raise DocumentError(flag, f"expected {count} comma-separated names")
        for name in names:
            if name not in variables:
                raise DocumentError(flag, f"variable {name!r} not defined in the document")
    return [variables[name] for name in names], names


def cmd_compute(args) -> int:
    _, variables = parse_instance_document(_read_document(args.file))
    (x, y), (name_x, name_y) = _pick_variables(variables, args.pair, 2, "--pair")
    base = BASES[args.base]
    pmfs = {"X": x.pmf, "Y": y.pmf}
    values = {
        "H(X)": entropy(pmfs["X"], base),
        "H(Y)": entropy(pmfs["Y"], base),
        "H(X,Y)": joint_entropy(x, y, base),
        "H(Y|X)": conditional_entropy(x, y, base),
        "H(X|Y)": conditional_entropy(y, x, base),
        "I(X,Y)": mutual_information(x, y, base),
    }
    rounded = {key: _significant(value) for key, value in values.items()}
    if args.format == "json":
        doc = {
            "version": 1,
            "pair": [name_x, name_y],
            "base": args.base,
            "pmf_X": pmf_document(pmfs["X"]),
            "pmf_Y": pmf_document(pmfs["Y"]),
            "entropy_X": rounded["H(X)"],
            "entropy_Y": rounded["H(Y)"],
            "joint_entropy": rounded["H(X,Y)"],
            "conditional_entropy_Y_given_X": rounded["H(Y|X)"],
            "conditional_entropy_X_given_Y": rounded["H(X|Y)"],
            "mutual_information": rounded["I(X,Y)"],
        }
        _write_output(serialize_document(doc), args.out)
    else:
        lines = [f"pair: X={name_x} Y={name_y} (log base {args.base})"]
        for name, pmf in pmfs.items():
            masses = " ".join(
                f"{label_text(lab)}={pmf[lab]}" for lab in sorted(pmf, key=label_key)
            )
            lines.append(f"pmf {name}: {masses}")
        lines.extend(f"{key:7s}= {value:.12g}" for key, value in values.items())
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_triangle(args) -> int:
    _, variables = parse_instance_document(_read_document(args.file))
    (x, y, z), (nx, ny, nz) = _pick_variables(variables, args.vars, 3, "--vars")
    triple = Triple(x, y, z)
    mediator = find_mediator(triple)
    weak = weak_functoriality_residual(triple)
    chain = chain_rule_residual(triple)
    if args.format == "json":
        doc = {
            "version": 1,
            "vars": [nx, ny, nz],
            "is_markov_triangle": mediator is not None,
            "weak_functoriality_residual": weak,
            "chain_rule_residual": chain,
        }
        if args.emit_mediator and mediator is not None:
            doc["mediator"] = [
                [encode_label(z_lab), encode_label(x_lab), encode_label(y_lab)]
                for (z_lab, x_lab), y_lab in _mediator_rows(mediator)
            ]
        _write_output(serialize_document(doc), args.out)
    else:
        lines = [
            f"triple: X={nx} Y={ny} Z={nz}",
            f"is_markov_triangle: {'yes' if mediator is not None else 'no'}",
            f"weak_functoriality_residual: {weak:.12g}",
            f"chain_rule_residual: {chain:.12g}",
        ]
        if args.emit_mediator and mediator is not None:
            lines.append("mediator (z, x) -> y:")
            for (z_lab, x_lab), y_lab in _mediator_rows(mediator):
                lines.append(
                    f"  ({label_text(z_lab)}, {label_text(x_lab)}) -> {label_text(y_lab)}"
                )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_audit(args) -> int:
    if args.all:
        names = [f.name for f in builtin_functionals()]
    else:
        names = [args.functional]
    try:
        functionals = [get_functional(name) for name in names]
    except LookupError as exc:
        raise DocumentError("--functional", str(exc)) from None
    for option, tolerance in (("--tol", args.tol), ("--probe-tol", args.probe_tol)):
        if not 0.0 <= tolerance < math.inf:
            raise DocumentError(option, f"must be a finite number >= 0, got {tolerance!r}")
    try:
        corpus = build_audit_corpus(args.seed, args.instances)
    except ValueError as exc:
        raise DocumentError("--instances", str(exc)) from None
    results = [
        audit(functional, tolerance=args.tol, probe_tolerance=args.probe_tol, corpus=corpus)
        for functional in functionals
    ]
    if len(results) == 1:
        payload = results[0].as_document()
        all_passed = results[0].passed
    else:
        payload = {"version": 1, "results": [r.as_document() for r in results]}
        all_passed = all(r.passed for r in results)
    _write_output(serialize_document(payload), args.out)
    return 0 if all_passed else 1


def cmd_generate(args) -> int:
    if args.count < 0:
        raise DocumentError("--count", f"must be at least 0, got {args.count}")
    rng = random.Random(args.seed)
    documents = []
    for index in range(args.count):
        if args.kind == "pair":
            documents.append(PairInstance(*random_pair(rng)).as_document())
        else:
            family = args.family
            if family is None and not args.rejection:
                family = FAMILIES[index % len(FAMILIES)]
            t = generate_markov_triangle(
                rng.randrange(2**32), family=family, rejection=args.rejection
            )
            documents.append(triangle_document(t))
    payload = {"version": 1, "kind": args.kind, "seed": args.seed, "documents": documents}
    _write_output(serialize_document(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frvkit",
        description="Exact finite random variables, information measures, "
        "Markov triangles, and axiom audits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="entropy and information measures for a pair")
    compute.add_argument("file", help="instance document path, or - for stdin")
    compute.add_argument("--pair", help="comma-separated variable names, e.g. X,Y")
    compute.add_argument("--base", choices=sorted(BASES), default="2", help="log base")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("--out", help="write output to a file instead of stdout")

    triangle = sub.add_parser("triangle", help="mediator search and residuals for a triple")
    triangle.add_argument("file", help="instance document path, or - for stdin")
    triangle.add_argument("--vars", help="comma-separated variable names, e.g. X,Y,Z")
    triangle.add_argument("--emit-mediator", action="store_true")
    triangle.add_argument("--format", choices=("text", "json"), default="text")
    triangle.add_argument("--out", help="write output to a file instead of stdout")

    audit_cmd = sub.add_parser("audit", help="audit a functional against the six axioms")
    group = audit_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--functional", help="registered functional name")
    group.add_argument("--all", action="store_true", help="audit every registered functional")
    audit_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    audit_cmd.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    audit_cmd.add_argument("--tol", type=float, default=IDENTITY_TOLERANCE)
    audit_cmd.add_argument("--probe-tol", type=float, default=PROBE_TOLERANCE)
    audit_cmd.add_argument("--out", help="write the JSON report to a file")

    generate = sub.add_parser("generate", help="emit a seeded corpus of instance documents")
    generate.add_argument("--kind", choices=("pair", "triangle"), default="pair")
    generate.add_argument("--count", type=int, default=10)
    generate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    recipe = generate.add_mutually_exclusive_group()
    recipe.add_argument("--family", choices=FAMILIES,
                        help="fix the triangle construction family")
    recipe.add_argument("--rejection", action="store_true",
                        help="draw unconstrained triples until one is a triangle")
    generate.add_argument("--out", help="write output to a file instead of stdout")
    return parser


# The parser holds no ``cmd_*`` function, so rebinding one reaches ``main``.
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "compute": cmd_compute,
        "triangle": cmd_triangle,
        "audit": cmd_audit,
        "generate": cmd_generate,
    }[args.command]
    try:
        return handler(args)
    except (FrvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
