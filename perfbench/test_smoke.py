"""Smoke test of the benchmark: generators, checks and tracing on tiny
instances, then one short end-to-end run of each mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import bminimal as bm  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOL = bm.FWConfig().dist_tol


def test_generators_keep_their_ground_truth():
    rng = np.random.default_rng(0)
    a = gen.one_sided(rng, 5)
    w = np.linalg.eigvalsh(a)
    assert abs(w[0] + w[-1]) >= 0.4 * gen.spectral_norm(a) - 1e-12
    v_frame, w_frame = gen.intersecting_pair(rng)
    assert np.allclose(np.abs(v_frame[:, 0]), np.abs(w_frame[:, 0]))
    assert np.allclose(v_frame.conj().T @ w_frame, 0, atol=1e-12)
    assert gen.pair_distance(v_frame, w_frame).upper < 1e-6
    far = gen.pair_distance(*gen.random_pair(rng))
    assert 0 < far.lower <= far.upper + 1e-12
    assert len(gen.grid_suite()) == 25


def test_checks_accept_the_package_and_reject_tampering():
    a = gen.swap(4)
    alg = gen.algebra("diag", 4)
    rep = bm.check_minimal(a, bm.build_diagonal(4))
    good = verify.report(a, alg, gen.MINIMAL, rep, TOL)
    assert good.failure is None and not good.undecided
    assert good.quality == pytest.approx((1.0, 1.0))
    bent = rep.certificate.x + 1e-3 * np.eye(4)
    assert verify.certificate(a, bent, alg, TOL) is not None
    assert verify.report(a, alg, gen.NOT_MINIMAL, rep, TOL).failure

    fam = bm.AffineFamily(gen.rand_hermitian(np.random.default_rng(1), 3), bm.build_diagonal(3))
    res = bm.best_approximation(fam, np.zeros(3), bm.SolverConfig(max_iter=50))
    stack = gen.algebra("diag", 3).stack()
    reference = gen.best_approx_reference(fam.a0, stack)
    assert reference <= res.dist * (1 + 1e-9)
    assert verify.best_approx(fam.a0, stack, res, reference).failure is None
    off = bm.BestApproxResult(res.x_star, res.dist * 0.9, res.trace, res.converged)
    assert verify.best_approx(fam.a0, stack, off, reference).failure


def test_tracer_records_nested_spans_and_restores_the_package():
    original = bm.hermitian.eig_hermitian
    tracer = spans.Tracer()
    tracer.install()
    try:
        bm.check_minimal(gen.swap(4), bm.build_diagonal(4))
    finally:
        tracer.uninstall()
    assert bm.hermitian.eig_hermitian is original
    assert bm.minimality.eig_hermitian is original
    layer = tracer.layer_metrics()
    assert layer["minimality.build_certificate.calls"] == 1
    assert layer["moment.fw.solves"] == 1
    assert layer["hermitian.eig_hermitian.calls"] >= 1
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert declared - set(layer) <= {"io.stdout_bytes", "trace.ops_per_s_delta", "trace.overhead_frac"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_round_prints_every_declared_metric(trace, key):
    proc = _run(ROOT, "--workload", "certify", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED[key]]
    for m in DECLARED[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
