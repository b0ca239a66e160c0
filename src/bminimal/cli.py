"""Command-line surface: check, moment, certificate, construct, best-approx,
dirderiv, support.

Exit codes for verdict-producing commands follow the three-valued outcome:
0 = minimal / support pair, 1 = not minimal / not a support pair,
2 = undecided or any error.  Other commands exit 0 on success, 2 on error.
Set BMIN_LOG=info or BMIN_LOG=debug for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import re
import sys
import time

import numpy as np

from . import io as bio
from .algebra import SubalgebraBasis
from .errors import BMinError, Undecided
from .hermitian import _require_count
from .minimality import (
    MINIMAL,
    NOT_MINIMAL,
    check_minimal,
    construct_minimal,
    is_support_pair,
)
from .moment import FWConfig, Subspace, compress_family, sample_extreme
from .variational import AffineFamily, SolverConfig, best_approximation, directional_derivative

logger = logging.getLogger("bminimal")

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2


def _configure_logging() -> None:
    level_name = os.environ.get("BMIN_LOG", "off").lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValueError(f"BMIN_LOG must be off, info or debug, got {level_name!r}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.handlers.clear()
    logger.addHandler(handler)
    logger.setLevel(levels[level_name])


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def resolve_algebra(spec: str, n_hint: int | None = None) -> SubalgebraBasis:
    """Parse an --algebra value: diag | pauli:q | block:SPEC | custom:FILE.

    The block SPEC is a comma list of '<size>d' or '<size>f' entries, e.g.
    '2d,2f' for a 2x2 diagonal block followed by a full 2x2 block.  Each spec
    becomes the algebra document that ``io.algebra_from_doc`` builds."""
    arg = spec.split(":", 1)[-1]
    if spec == "diag":
        doc = {"kind": "diag"}
    elif spec.startswith("pauli:"):
        doc = {"kind": "pauli-diag", "q": arg}
    elif spec.startswith("block:"):
        pattern = []
        for item in arg.split(","):
            item = item.strip()
            if len(item) < 2 or item[-1] not in ("d", "f"):
                raise ValueError(f"bad block entry {item!r}; use e.g. 2d or 3f")
            pattern.append((int(item[:-1]), "diagonal" if item[-1] == "d" else "full"))
        doc = {"kind": "block", "pattern": pattern}
    elif spec.startswith("custom:"):
        doc = _load_json(arg)
    else:
        raise ValueError(f"unknown algebra spec {spec!r}")
    return bio.algebra_from_doc(doc, n_hint=n_hint)


def _load_matrix(args: argparse.Namespace) -> tuple[np.ndarray, SubalgebraBasis]:
    """The --matrix document's matrix and the --algebra basis for its size."""
    a = bio.matrix_from_doc(_load_json(args.matrix))
    return a, resolve_algebra(args.algebra, n_hint=a.shape[0])


def _load_frames(args: argparse.Namespace) -> tuple[Subspace, Subspace, SubalgebraBasis]:
    """The --v-frame and --w-frame subspaces and the --algebra basis for V's size."""
    v = bio.frame_from_doc(_load_json(args.v_frame))
    w = bio.frame_from_doc(_load_json(args.w_frame))
    return v, w, resolve_algebra(args.algebra, n_hint=v.n)


def _parse_vector(text: str, length: int, name: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip() != ""]
    vec = np.array([float(p) for p in parts], dtype=float)
    if vec.size != length:
        raise ValueError(f"{name} has {vec.size} entries, expected {length}")
    return vec


def _emit(text: str, output: str | None, file_text: str | None = None) -> None:
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(file_text if file_text is not None else text)


def _fw_config(args: argparse.Namespace) -> FWConfig:
    return FWConfig(gap_tol=args.gap_tol, dist_tol=args.tol, max_iter=args.max_iter)


def _verdict_exit(verdict: str) -> int:
    if verdict == MINIMAL:
        return EXIT_YES
    if verdict == NOT_MINIMAL:
        return EXIT_NO
    return EXIT_UNDECIDED


def _cmd_check(args: argparse.Namespace) -> int:
    a, basis = _load_matrix(args)
    started = time.perf_counter()
    report = check_minimal(a, basis, _fw_config(args))
    elapsed = time.perf_counter() - started
    logger.info("check: verdict %s in %.3fs", report.verdict, elapsed)
    file_text = None
    if args.output:
        file_text = bio.dumps(bio.report_to_doc(report, timings={"total_s": elapsed})) + "\n"
    _emit(bio.dumps(bio.report_to_doc(report)) + "\n", args.output, file_text)
    return _verdict_exit(report.verdict)


def _cmd_certificate(args: argparse.Namespace) -> int:
    a, basis = _load_matrix(args)
    report = check_minimal(a, basis, _fw_config(args))
    if report.verdict != MINIMAL:
        sys.stderr.write(f"no certificate: verdict is {report.verdict}\n")
        return _verdict_exit(report.verdict)
    _emit(bio.dumps(bio.certificate_to_doc(report.certificate)) + "\n", args.output)
    return EXIT_YES


def _cmd_moment(args: argparse.Namespace) -> int:
    _require_count(args.samples, "--samples")
    _require_count(args.seed, "--seed", least=0)
    subspace = bio.frame_from_doc(_load_json(args.frame))
    basis = resolve_algebra(args.algebra, n_hint=subspace.n)
    fam = compress_family(subspace, basis)
    points = sample_extreme(fam, args.samples, args.seed)
    _emit(bio.points_to_csv(points), args.output)
    return EXIT_YES


def _cmd_support(args: argparse.Namespace) -> int:
    v, w, basis = _load_frames(args)
    try:
        answer = is_support_pair(v, w, basis, _fw_config(args))
    except Undecided as err:
        sys.stderr.write(f"undecided: {err}\n")
        return EXIT_UNDECIDED
    _emit(bio.dumps({"support_pair": answer}) + "\n", args.output)
    return EXIT_YES if answer else EXIT_NO


def _cmd_construct(args: argparse.Namespace) -> int:
    v, w, basis = _load_frames(args)
    rest = bio.matrix_from_doc(_load_json(args.rest)) if args.rest else None
    m = construct_minimal(v, w, args.lam, rest, basis, _fw_config(args))
    _emit(bio.dumps(bio.matrix_to_doc(m)) + "\n", args.output)
    return EXIT_YES


def _cmd_best_approx(args: argparse.Namespace) -> int:
    a, basis = _load_matrix(args)
    fam = AffineFamily(a, basis)
    x0 = np.zeros(fam.t) if args.x0 is None else _parse_vector(args.x0, fam.t, "--x0")
    cfg = SolverConfig(max_iter=args.max_iter, fw=FWConfig(dist_tol=args.tol))
    result = best_approximation(fam, x0, cfg)
    doc = {
        "dist": float(result.dist),
        "lower": float(result.lower),
        "x_star": [float(v) for v in result.x_star],
        "converged": bool(result.converged),
        "iterations": len(result.trace) - 1,
    }
    _emit(bio.dumps(doc) + "\n", args.output)
    return EXIT_YES


def _cmd_dirderiv(args: argparse.Namespace) -> int:
    a, basis = _load_matrix(args)
    fam = AffineFamily(a, basis)
    x = np.zeros(fam.t) if args.x is None else _parse_vector(args.x, fam.t, "--x")
    w = _parse_vector(args.w, fam.t, "--w")
    value = directional_derivative(fam, x, w)
    _emit(bio.dumps({"value": float(value)}) + "\n", args.output)
    return EXIT_YES


def _budget_flags(max_iter: int) -> argparse.ArgumentParser:
    """--tol and --max-iter, defaulting to FWConfig's distance tolerance and ``max_iter``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--tol", type=float, default=FWConfig().dist_tol,
                       help="distance tolerance (default %(default)s)")
    flags.add_argument("--max-iter", type=int, default=max_iter,
                       help="iteration budget (default %(default)s)")
    return flags


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it
    unchanged, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="bmin",
        description="Spectral-norm minimality relative to a C*-subalgebra: "
        "certification, moment sampling, construction, best approximation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", required=True,
                        help="diag | pauli:q | block:SPEC (e.g. 2d,2f) | custom:FILE")
    common.add_argument("--output", help="also write the stdout payload to this file")
    fw_flags = _budget_flags(FWConfig().max_iter)
    fw_flags.add_argument("--gap-tol", type=float, default=FWConfig().gap_tol,
                          help="Frank-Wolfe gap tolerance (default %(default)s)")
    solver_flags = _budget_flags(SolverConfig().max_iter)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, fw_flags],
                       help="certify minimality of a Hermitian matrix")
    p.add_argument("--matrix", required=True, help="matrix document (JSON)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certificate", parents=[common, fw_flags],
                       help="emit the minimality certificate, if one exists")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("moment", parents=[common],
                       help="sample extreme points of a subspace moment as CSV")
    p.add_argument("--frame", required=True, help="frame document (JSON)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("support", parents=[common, fw_flags],
                       help="test whether two orthogonal subspaces form a support pair")
    p.add_argument("--v-frame", required=True)
    p.add_argument("--w-frame", required=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("construct", parents=[common, fw_flags],
                       help="build a minimal matrix from a support pair")
    p.add_argument("--v-frame", required=True)
    p.add_argument("--w-frame", required=True)
    p.add_argument("--lam", type=float, required=True, help="leading coefficient > 0")
    p.add_argument("--rest", help="optional perturbation matrix document (JSON)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("best-approx", parents=[common, solver_flags],
                       help="minimize ||A0 + sum x_k B_k|| by log-barrier Newton steps")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x0", help="comma-separated start point (default zeros)")
    p.set_defaults(func=_cmd_best_approx)

    p = sub.add_parser("dirderiv", parents=[common],
                       help="directional derivative of the top eigenvalue")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", help="comma-separated base point (default zeros)")
    p.add_argument("--w", required=True, help="comma-separated direction")
    p.set_defaults(func=_cmd_dirderiv)

    return parser


_VECTOR_FLAGS = ("--w", "--x", "--x0")
_NEGATIVE_LEAD = re.compile(r"-[\d.]")


def _join_vector_values(argv: list[str]) -> list[str]:
    """Write ``--w -1,0.5`` as ``--w=-1,0.5``.

    argparse takes a token that starts with '-' for an option unless the
    whole token is one number, so a comma-separated vector whose first
    entry is negative would not reach its flag.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VECTOR_FLAGS and _NEGATIVE_LEAD.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_UNDECIDED
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_vector_values(argv))
    try:
        return args.func(args)
    except (BMinError, ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
