"""Command-line interface.

    sympcoh compute <model-file-or-corpus-name> [--json] [--degree K] [--out PATH]
    sympcoh verify [--seed N] [--dim D ...] [--count M]
    sympcoh corpus [--list]

Exit codes: 0 success, 1 input error (files, grammar, arguments),
2 mathematical validation error (Jacobi identity, non-closed or
degenerate omega), 3 internal inconsistency (a theorem-backed check
failed, which means an implementation bug).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    InputError,
    InternalInconsistencyError,
    MathValidationError,
)
from .models import corpus, corpus_model, corpus_names, load_model
from .parsing import parse_structure_equations
from .report import run_compute
from .verify import BASE_STRUCTURES, run_verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_INCONSISTENT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympcoh",
        description="Exact symplectic cohomology of Lie algebras from structure equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the full report for one model")
    compute.add_argument("model", help="path to a model file, or a corpus name")
    compute.add_argument("--json", action="store_true", help="emit JSON instead of text")
    compute.add_argument("--degree", type=int, default=None, help="restrict tables to one degree")
    compute.add_argument("--out", type=Path, default=None, help="write output to a file")

    verify = sub.add_parser("verify", help="run the seeded property-verification suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--dim",
        type=int,
        action="append",
        dest="dims",
        help="dimension for random structures (repeatable; default 4 and 6)",
    )
    verify.add_argument("--count", type=int, default=4, help="random structures per dimension")

    corpus_cmd = sub.add_parser("corpus", help="list the built-in models")
    corpus_cmd.add_argument("--list", action="store_true", dest="list_models")
    return parser


def _resolve_model(spec: str):
    if spec in corpus_names():
        return corpus_model(spec)
    path = Path(spec)
    if path.exists():
        return load_model(path)
    raise InputError(
        f"{spec!r} is neither a corpus name ({', '.join(corpus_names())}) nor a file"
    )


def _cmd_compute(args) -> int:
    model = _resolve_model(args.model)
    if args.degree is not None:
        # Checked before the report is built, which can take seconds; a
        # bad structure still fails first, as it would in the report.
        dim = parse_structure_equations(model.structure, model.dim).dim
        if not 0 <= args.degree <= dim:
            raise InputError(f"--degree must lie in 0..{dim}, got {args.degree}")
    report = run_compute(model)
    output = report.to_json(args.degree) if args.json else report.to_text(args.degree)
    if args.out is not None:
        try:
            args.out.write_text(output)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be non-negative, got {args.count}")
    dims = tuple(args.dims) if args.dims else (4, 6)
    for dim in dims:
        if dim % 2 or dim <= 0:
            raise InputError(f"--dim must be a positive even number, got {dim}")
        if dim not in BASE_STRUCTURES:
            known = ", ".join(map(str, sorted(BASE_STRUCTURES)))
            raise InputError(f"no random catalog for dimension {dim} (use one of {known})")
    summary = run_verify(seed=args.seed, dims=dims, count_per_dim=args.count)
    sys.stdout.write(summary.format_text() + "\n")
    return EXIT_OK if summary.ok else EXIT_INCONSISTENT


def _cmd_corpus(args) -> int:
    for model in corpus():
        omega = model.omega or "-"
        print(f"{model.name:10s} dim {model.dim}  structure {model.structure:34s} omega {omega}")
    return EXIT_OK


def main(argv=None) -> int:
    try:  # argparse exits 2 on a bad argument, which is EXIT_MATH here; --help exits 0
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_corpus(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MathValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
