"""Command-line surface: check, moment, certificate, construct, best-approx,
dirderiv, support.

Exit codes for verdict-producing commands follow the three-valued outcome:
0 = minimal / support pair, 1 = not minimal / not a support pair,
2 = undecided or any error.  Other commands exit 0 on success, 2 on error.
Set BMIN_LOG=info or BMIN_LOG=debug for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import io as bio
from .algebra import SubalgebraBasis, build_block, build_diagonal, build_pauli_diagonal
from .errors import BMinError, Undecided
from .minimality import (
    MINIMAL,
    NOT_MINIMAL,
    check_minimal,
    construct_minimal,
    is_support_pair,
)
from .moment import FWConfig, compress_family, sample_extreme
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
    '2d,2f' for a 2x2 diagonal block followed by a full 2x2 block.
    """
    if spec == "diag":
        if n_hint is None:
            raise ValueError("algebra 'diag' needs a matrix or frame to infer n")
        return build_diagonal(n_hint)
    if spec.startswith("pauli:"):
        return build_pauli_diagonal(int(spec.split(":", 1)[1]))
    if spec.startswith("block:"):
        pattern = []
        for item in spec.split(":", 1)[1].split(","):
            item = item.strip()
            if len(item) < 2 or item[-1] not in ("d", "f"):
                raise ValueError(f"bad block entry {item!r}; use e.g. 2d or 3f")
            pattern.append((int(item[:-1]), "diagonal" if item[-1] == "d" else "full"))
        return build_block(pattern, n=n_hint)
    if spec.startswith("custom:"):
        return bio.algebra_from_doc(_load_json(spec.split(":", 1)[1]), n_hint=n_hint)
    raise ValueError(f"unknown algebra spec {spec!r}")


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
    a = bio.hermitian_from_doc(_load_json(args.matrix))
    basis = resolve_algebra(args.algebra, n_hint=a.shape[0])
    started = time.perf_counter()
    report = check_minimal(a, basis, _fw_config(args))
    elapsed = time.perf_counter() - started
    logger.info("check: verdict %s in %.3fs", report.verdict, elapsed)
    doc = bio.report_to_doc(report)
    with_timings = bio.report_to_doc(report, timings={"total_s": elapsed})
    _emit(bio.dumps(doc) + "\n", args.output, bio.dumps(with_timings) + "\n")
    return _verdict_exit(report.verdict)


def _cmd_certificate(args: argparse.Namespace) -> int:
    a = bio.hermitian_from_doc(_load_json(args.matrix))
    basis = resolve_algebra(args.algebra, n_hint=a.shape[0])
    report = check_minimal(a, basis, _fw_config(args))
    if report.verdict != MINIMAL:
        sys.stderr.write(f"no certificate: verdict is {report.verdict}\n")
        return _verdict_exit(report.verdict)
    _emit(bio.dumps(bio.certificate_to_doc(report.certificate)) + "\n", args.output)
    return EXIT_YES


def _cmd_moment(args: argparse.Namespace) -> int:
    subspace = bio.frame_from_doc(_load_json(args.frame))
    basis = resolve_algebra(args.algebra, n_hint=subspace.n)
    fam = compress_family(subspace, basis)
    points = sample_extreme(fam, args.samples, args.seed)
    _emit(bio.points_to_csv(points), args.output)
    return EXIT_YES


def _cmd_support(args: argparse.Namespace) -> int:
    v = bio.frame_from_doc(_load_json(args.v_frame))
    w = bio.frame_from_doc(_load_json(args.w_frame))
    basis = resolve_algebra(args.algebra, n_hint=v.n)
    try:
        answer = is_support_pair(v, w, basis, _fw_config(args))
    except Undecided as err:
        sys.stderr.write(f"undecided: {err}\n")
        return EXIT_UNDECIDED
    _emit(bio.dumps({"support_pair": answer}) + "\n", args.output)
    return EXIT_YES if answer else EXIT_NO


def _cmd_construct(args: argparse.Namespace) -> int:
    v = bio.frame_from_doc(_load_json(args.v_frame))
    w = bio.frame_from_doc(_load_json(args.w_frame))
    basis = resolve_algebra(args.algebra, n_hint=v.n)
    rest = None
    if args.rest:
        rest = bio.hermitian_from_doc(_load_json(args.rest))
    m = construct_minimal(v, w, args.lam, rest, basis, _fw_config(args))
    _emit(bio.dumps(bio.matrix_to_doc(m)) + "\n", args.output)
    return EXIT_YES


def _cmd_best_approx(args: argparse.Namespace) -> int:
    a = bio.hermitian_from_doc(_load_json(args.matrix))
    basis = resolve_algebra(args.algebra, n_hint=a.shape[0])
    fam = AffineFamily(a, basis)
    x0 = np.zeros(fam.t) if args.x0 is None else _parse_vector(args.x0, fam.t, "--x0")
    cfg = SolverConfig(
        max_iter=args.max_iter,
        dist_tol=args.tol,
        fw=FWConfig(gap_tol=args.gap_tol, dist_tol=args.tol),
    )
    result = best_approximation(fam, x0, cfg)
    doc = {
        "dist": float(result.dist),
        "x_star": [float(v) for v in result.x_star],
        "converged": bool(result.converged),
        "iterations": len(result.trace) - 1,
    }
    _emit(bio.dumps(doc) + "\n", args.output)
    return EXIT_YES


def _cmd_dirderiv(args: argparse.Namespace) -> int:
    a = bio.hermitian_from_doc(_load_json(args.matrix))
    basis = resolve_algebra(args.algebra, n_hint=a.shape[0])
    fam = AffineFamily(a, basis)
    x = np.zeros(fam.t) if args.x is None else _parse_vector(args.x, fam.t, "--x")
    w = _parse_vector(args.w, fam.t, "--w")
    value = directional_derivative(fam, x, w)
    _emit(bio.dumps({"value": float(value)}) + "\n", args.output)
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmin",
        description="Spectral-norm minimality relative to a C*-subalgebra: "
        "certification, moment sampling, construction, best approximation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", required=True,
                        help="diag | pauli:q | block:SPEC (e.g. 2d,2f) | custom:FILE")
    common.add_argument("--tol", type=float, default=1e-6,
                        help="distance tolerance (default 1e-6)")
    common.add_argument("--gap-tol", type=float, default=1e-9,
                        help="Frank-Wolfe gap tolerance (default 1e-9)")
    common.add_argument("--max-iter", type=int, default=20000,
                        help="iteration budget (default 20000)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--output", help="also write the stdout payload to this file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="certify minimality of a Hermitian matrix")
    p.add_argument("--matrix", required=True, help="matrix document (JSON)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certificate", parents=[common],
                       help="emit the minimality certificate, if one exists")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("moment", parents=[common],
                       help="sample extreme points of a subspace moment as CSV")
    p.add_argument("--frame", required=True, help="frame document (JSON)")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("support", parents=[common],
                       help="test whether two orthogonal subspaces form a support pair")
    p.add_argument("--v-frame", required=True)
    p.add_argument("--w-frame", required=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("construct", parents=[common],
                       help="build a minimal matrix from a support pair")
    p.add_argument("--v-frame", required=True)
    p.add_argument("--w-frame", required=True)
    p.add_argument("--lam", type=float, required=True, help="leading coefficient > 0")
    p.add_argument("--rest", help="optional perturbation matrix document (JSON)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("best-approx", parents=[common],
                       help="minimize ||A0 + sum x_k B_k|| by subgradient descent")
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


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_UNDECIDED
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BMinError, ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
