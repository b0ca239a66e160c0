"""The two benchmark workloads: inputs, rounds of operations, checks.

``certify`` runs ``check_minimal`` on small inputs (library and CLI) and on
n = 32 inputs (library); ``solve`` runs the two iterative solvers on small
matrices: Frank-Wolfe verdicts and distances for rank-2 pairs, and the
variational subgradient loop.  Each is built from two parts below.

A workload is set up once (bases, seeded inputs, CLI documents: the timed
``setup_s``), then planned (ground truth the checks need but the program's
user never pays for), then run as identical rounds of operations until the
run's time is up.  Every round runs every operation of the plan once, so the
mix of operation kinds is the same in every run and each operation is timed
many times, spread over the whole run.  One operation is one public call, or
one ``cli.main`` call with stdout captured.  Each class of input draws a few
seeded instances; a plan is kept small (a round takes two to three seconds)
so that each operation repeats often enough for its fastest time to settle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bminimal as bm
from bminimal import cli as bcli

import gen
import verify

# Frank-Wolfe budget for every verdict and distance call.  At the package
# default of 20,000 iterations one capped pair costs 6-9 s at seed, a third
# of a run on its own.  At 300, the solves that do not settle run to the cap
# (random pairs with a mixed nearest point, pairs that intersect), so their
# cost is the same from one input to the next, and a round is short enough
# to repeat each operation some twenty times in a run.
FW_BUDGET = bm.FWConfig(max_iter=300)


@dataclass
class Op:
    kind: str
    key: str                # the same key means the same call on the same inputs
    call: Callable[[], object]
    check: Callable[[object, dict], verify.Outcome]


@dataclass
class Plan:
    """``ops`` are one round's operations; ``notes`` go into the record."""

    ops: list[Op]
    notes: dict = field(default_factory=dict)


def _matrix_doc(a: np.ndarray) -> dict:
    return {"n": a.shape[0], "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a]}


def _write_doc(workdir: str, name: str, a: np.ndarray) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_matrix_doc(a), fh)
    return path


def _basis(spec: str, n: int) -> bm.SubalgebraBasis:
    """The package's basis for a CLI algebra spec."""
    if spec == "diag":
        return bm.build_diagonal(n)
    if spec.startswith("pauli:"):
        return bm.build_pauli_diagonal(int(spec.split(":", 1)[1]))
    pattern = [(int(item[:-1]), "full" if item[-1] == "f" else "diagonal")
               for item in spec.split(":", 1)[1].split(",")]
    return bm.build_block(pattern)


def _cli_check(path: str, spec: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bcli.main(["check", "--matrix", path, "--algebra", spec,
                          "--max-iter", str(FW_BUDGET.max_iter)])
    return code, out.getvalue()


def _certify_ops(key: str, a, spec: str, basis, alg, truth: str, path: str | None) -> list[Op]:
    """check_minimal through the library and, given a document path, the CLI."""

    def check_lib(rep, ctx):
        ctx[("lib", key)] = rep.verdict
        return verify.report(a, alg, truth, rep, FW_BUDGET.dist_tol)

    ops = [Op("check", key, lambda: bm.check_minimal(a, basis, FW_BUDGET), check_lib)]
    if path is not None:
        def check_cli(result, ctx):
            code, stdout = result
            first = ctx.setdefault(("stdout", key), stdout)
            return verify.cli_stdout(code, stdout, ctx.get(("lib", key)), first)

        ops.append(Op("cli-check", key, lambda: _cli_check(path, spec), check_cli))
    return ops


# ------------------------------------------------------- certify: small inputs

_SMALL_ONE_SIDED = [("diag", 4), ("diag", 5), ("diag", 6), ("diag", 7), ("diag", 8),
                    ("pauli:2", 4), ("pauli:3", 8), ("block:2d,2f", 4)]
_SMALL_POOL = 2


def _setup_certify_small(rng, workdir):
    specs = {("diag", 3)} | set(_SMALL_ONE_SIDED)
    bases = {key: _basis(*key) for key in sorted(specs)}
    # (key, matrix, algebra spec, truth)
    cases = [(f"grid{i}", a, "diag", truth) for i, (a, truth) in enumerate(gen.grid_suite())]
    for spec, n in _SMALL_ONE_SIDED:
        for j in range(_SMALL_POOL):
            cases.append((f"os-{spec}-{n}-{j}", gen.one_sided(rng, n), spec, gen.NOT_MINIMAL))
    for j in range(_SMALL_POOL):
        v, w = gen.intersecting_pair(rng)
        cases.append((f"support8-{j}", gen.support_minimal(v, w), "pauli:3", gen.MINIMAL))
    docs = {case[0]: _write_doc(workdir, case[0], case[1]) for case in cases}
    return bases, cases, docs


def _plan_certify_small(inputs) -> Plan:
    bases, cases, docs = inputs
    ops = []
    for key, a, spec, truth in cases:
        n = a.shape[0]
        ops += _certify_ops(key, a, spec, bases[(spec, n)], gen.algebra(spec, n), truth, docs[key])
    return Plan(ops)


# ------------------------------------------------------------- certify: n = 32

# (kind, algebra spec, n).  Only n = 32: one n = 64 check takes 1-3 s, and a
# run then sees too few repeats of it for its fastest time to settle.
_WIDE_ORDER = [("swap", "diag", 32), ("swap", "pauli:5", 32),
               ("random", "diag", 32), ("random", "pauli:5", 32)]
# Random inputs per algebra: the eigensolver's cost varies by ~10% from one
# random matrix to the next.  With twelve of them and two swaps on top of the
# ~86 small checks, the tail latency (the 11th largest) is a random n = 32
# check, never a small one, and it is not the single slowest input.
_WIDE_POOL = 6


def _setup_certify_wide(rng, workdir):
    bases = {(spec, n): _basis(spec, n) for _, spec, n in _WIDE_ORDER}
    swap = gen.swap(32)
    one_sided = {spec: [gen.one_sided(rng, n) for _ in range(_WIDE_POOL)]
                 for kind, spec, n in _WIDE_ORDER if kind == "random"}
    return bases, swap, one_sided


def _plan_certify_wide(inputs) -> Plan:
    bases, swap, one_sided = inputs
    ops = []
    for kind, spec, n in _WIDE_ORDER:
        alg = gen.algebra(spec, n)
        if kind == "swap":
            ops += _certify_ops(f"swap-{spec}-{n}", swap, spec, bases[(spec, n)], alg, gen.MINIMAL, None)
        else:
            for j, a in enumerate(one_sided[spec]):
                ops += _certify_ops(f"random-{spec}-{n}-{j}", a, spec, bases[(spec, n)], alg, gen.NOT_MINIMAL, None)
    return Plan(ops)


# -------------------------------------------------------- solve: rank-2 pairs

_PAIR_POOL = 3
_RANDOM_DRAWS = 24    # fewer than 3 interior pairs among 24 draws: p < 2e-5


def _setup_separate(rng, workdir):
    basis = _basis("pauli:3", 8)
    random_pairs = [gen.random_pair(rng) for _ in range(_RANDOM_DRAWS)]
    twins = [gen.intersecting_pair(rng) for _ in range(_PAIR_POOL)]
    return basis, *([(v, w, bm.Subspace(v), bm.Subspace(w)) for v, w in pairs]
                    for pairs in (random_pairs, twins))


def _plan_separate(inputs) -> Plan:
    """Random pairs split by whether their nearest points are mixed states
    (``interior``: Frank-Wolfe runs to the cap) or pure states.  About half of
    all random pairs are interior (0.497 of 300 draws), so a round takes as
    many of each: the natural share, without the run-to-run swing of drawing
    it."""
    basis, random_pairs, twins = inputs
    interior, boundary = [], []
    drawn = 0
    for pair in random_pairs:    # in draw order, until both classes are full
        if len(interior) == len(boundary) == _PAIR_POOL:
            break
        drawn += 1
        truth = gen.pair_distance(pair[0], pair[1])
        if truth.lower <= 0.0:
            raise RuntimeError("could not certify a random pair as disjoint")
        side = interior if truth.interior else boundary
        if len(side) < _PAIR_POOL:
            side.append((pair, truth, False))
    twins = [(pair, gen.pair_distance(pair[0], pair[1]), True) for pair in twins]
    classes = [interior, boundary, twins]

    def pair_ops(key, entry):
        (v, w, sv, sw), truth, intersect = entry

        def verdict():
            try:
                return bm.is_support_pair(sv, sw, basis, FW_BUDGET)
            except bm.Undecided:
                return verify.UNDECIDED

        return [
            Op("support", key, verdict, lambda ans, ctx: verify.support(intersect, ans)),
            Op("distance", key, lambda: bm.moment_distance(sv, sw, basis, FW_BUDGET),
               lambda res, ctx: verify.distance(v, w, res, FW_BUDGET, truth, intersect)),
        ]

    ops = [op for c, pool in enumerate(classes) for j, entry in enumerate(pool)
           for op in pair_ops(f"{c}-{j}", entry)]
    return Plan(ops, {"random_pairs_drawn": drawn, "interior_pairs": len(interior)})


# ------------------------------------------------- solve: best approximation

# Inputs per class.  Beside the 18 pair operations (12 of them capped FW
# solves), the median latency (20th of 39) falls inside the twelve n = 4
# calls and the tail (the 11th largest) inside the capped solves, with the
# three n = 6 calls above them.  One input more or less in a class
# (a pair that does or does not reach the cap) does not move either
# statistic to another class.
_BEST_CLASSES = {("diag", 3): 6, ("diag", 4): 6, ("block:2d,2f", 4): 6, ("diag", 6): 3}
# 25 subgradient steps instead of the default 2,000: a default call takes
# 1-7 s at seed, too few per run for its latencies to settle.  The loop, its
# eigensolves and its never-certified stop are the same at either budget.
# The cost of a call varies by up to 2x between inputs (the optimality test
# runs Frank-Wolfe only where the iterate is two-sided), so each class takes
# several inputs.
_BEST_CFG = bm.SolverConfig(max_iter=25, fw=FW_BUDGET)


def _setup_best_approx(rng, workdir):
    bases = {key: _basis(*key) for key in _BEST_CLASSES}
    a0 = {key: [gen.rand_hermitian(rng, key[1]) for _ in range(count)] for key, count in _BEST_CLASSES.items()}
    return bases, a0


def _plan_best_approx(inputs) -> Plan:
    bases, a0 = inputs
    stacks = {key: gen.algebra(*key).stack() for key in _BEST_CLASSES}

    def op(key, j):
        basis, a, stack = bases[key], a0[key][j], stacks[key]

        def check(res, ctx):
            if ("ref", key, j) not in ctx:
                ctx[("ref", key, j)] = gen.best_approx_reference(a, stack)
            return verify.best_approx(a, stack, res, ctx[("ref", key, j)])

        return Op(
            "best-approx",
            f"{key}-{j}",
            lambda: bm.best_approximation(bm.AffineFamily(a, basis), np.zeros(basis.dim), _BEST_CFG),
            check,
        )

    return Plan([op(key, j) for key, count in _BEST_CLASSES.items() for j in range(count)])


_WORKLOADS = {
    "certify": ((_setup_certify_small, _plan_certify_small), (_setup_certify_wide, _plan_certify_wide)),
    "solve": ((_setup_separate, _plan_separate), (_setup_best_approx, _plan_best_approx)),
}


def setup(workload: str, seed: int, workdir: str) -> list:
    """Bases, seeded inputs and CLI documents: everything timed as setup_s."""
    rng = np.random.default_rng(seed)
    return [make(rng, workdir) for make, _ in _WORKLOADS[workload]]


def plan(workload: str, inputs: list) -> Plan:
    parts = [build(part) for (_, build), part in zip(_WORKLOADS[workload], inputs)]
    return Plan([op for p in parts for op in p.ops], {k: v for p in parts for k, v in p.notes.items()})
