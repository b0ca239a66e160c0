"""Traced runs: spans around the package's public functions, from outside.

``Tracer.install`` rebinds each traced function in every ``bminimal`` module
that holds it (plus ``AffineFamily.evaluate``), so calls between modules go
through the wrappers too; ``uninstall`` puts the originals back.  A span is
(name, start, end, parent span, operation id), kept in flat lists and
written out once the run ends.  Self time is a span's duration minus the
time its direct children cover; calls nest strictly in one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

import bminimal
from bminimal import algebra, cli, hermitian, minimality, moment, variational
from bminimal import io as bio

_MODULES = (bminimal, hermitian, algebra, moment, minimality, variational, bio, cli)

# span name -> (module that defines it, function name)
TRACED = {
    "hermitian.eig_hermitian": (hermitian, "eig_hermitian"),
    "hermitian.min_eigpair": (hermitian, "min_eigpair"),
    "hermitian.as_hermitian": (hermitian, "as_hermitian"),
    "hermitian.cluster_eigenvalues": (hermitian, "cluster_eigenvalues"),
    "hermitian.abs_hermitian": (hermitian, "abs_hermitian"),
    "algebra.build_diagonal": (algebra, "build_diagonal"),
    "algebra.build_block": (algebra, "build_block"),
    "algebra.build_pauli_diagonal": (algebra, "build_pauli_diagonal"),
    "algebra.contains_identity": (algebra, "contains_identity"),
    "algebra.compress": (algebra, "compress"),
    "moment.compress_family": (moment, "compress_family"),
    "moment.moment_distance": (moment, "moment_distance"),
    "moment.intersects": (moment, "intersects"),
    "minimality.extremal_eigenspaces": (minimality, "extremal_eigenspaces"),
    "minimality.check_minimal": (minimality, "check_minimal"),
    "minimality.is_support_pair": (minimality, "is_support_pair"),
    "minimality.build_certificate": (minimality, "build_certificate"),
    "variational.best_approximation": (variational, "best_approximation"),
    "io.matrix_from_doc": (bio, "matrix_from_doc"),
    "io.hermitian_from_doc": (bio, "hermitian_from_doc"),
    "io.frame_from_doc": (bio, "frame_from_doc"),
    "io.algebra_from_doc": (bio, "algebra_from_doc"),
    "io.report_to_doc": (bio, "report_to_doc"),
    "io.dumps": (bio, "dumps"),
    "cli.main": (cli, "main"),
    "cli.resolve_algebra": (cli, "resolve_algebra"),
}
_EVALUATE = "variational.evaluate"
_BUILDS = ("algebra.build_diagonal", "algebra.build_block", "algebra.build_pauli_diagonal")


class Tracer:
    """Span recorder; ``op`` is the id of the operation in flight (-1 in set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_op: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.fw: list[tuple[int, int, bool]] = []         # (span, iterations, capped)
        self.best_approx: list[tuple[int, int]] = []      # (span, iterations)
        self.eig_sizes: list[tuple[int, int]] = []        # (span, n)
        self.compress_bytes = 0
        self.basis_bytes = 0
        self.residual_eq_max = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        return traced

    def _after_fw(self, idx, args, kwargs, out):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else moment.FWConfig())
        self.fw.append((idx, out.iterations, out.iterations >= cfg.max_iter and out.gap > cfg.gap_tol))

    def _after_eig(self, idx, args, kwargs, out):
        self.eig_sizes.append((idx, out.eigenvalues.shape[0]))

    def _after_compress(self, idx, args, kwargs, out):
        s, basis = args[0], args[1]
        self.compress_bytes += s.frame.nbytes + basis.elements.nbytes

    def _after_build(self, idx, args, kwargs, out):
        self.basis_bytes += 16 * out.dim * out.n * out.n

    def _after_certificate(self, idx, args, kwargs, out):
        self.residual_eq_max = max(self.residual_eq_max, float(out.residual_eq))

    def _after_best_approx(self, idx, args, kwargs, out):
        self.best_approx.append((idx, len(out.trace) - 1))

    def install(self) -> None:
        hooks = {
            "hermitian.eig_hermitian": self._after_eig,
            "moment.compress_family": self._after_compress,
            "moment.moment_distance": self._after_fw,
            "minimality.build_certificate": self._after_certificate,
            "variational.best_approximation": self._after_best_approx,
        }
        hooks.update({name: self._after_build for name in _BUILDS})
        for name, (home, attr) in TRACED.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in _MODULES:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        cls = variational.AffineFamily
        self._saved.append((cls, "evaluate", cls.evaluate))
        cls.evaluate = self._wrap(_EVALUATE, cls.evaluate)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.span_op, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        by_name = defaultdict(lambda: (0, 0.0))   # name -> (calls, self seconds)
        for nid, name in enumerate(self.names):
            pick = a["name"] == nid
            by_name[name] = (int(pick.sum()), float(self_time[pick].sum()))

        def calls(name):
            return by_name[name][0]

        def self_s(name):
            return by_name[name][1]

        def per(total, count, scale=1e6):
            return total * scale / count if count else 0.0

        small = [dur[i] for i, n in self.eig_sizes if n <= 8]
        large = [dur[i] for i, n in self.eig_sizes if n >= 32]
        fw_iters = sum(it for _, it, _ in self.fw)
        fw_time = sum(dur[i] for i, _, _ in self.fw)
        ba_iters = sum(it for _, it in self.best_approx)
        ba_time = sum(dur[i] for i, _ in self.best_approx)
        ba_spans = {i for i, _ in self.best_approx}
        fw_in_ba = sum(dur[i] for i, _, _ in self.fw if self._has_ancestor(i, ba_spans))
        io_self = sum(v[1] for k, v in by_name.items() if k.startswith("io."))
        return {
            "hermitian.eig_hermitian.calls": calls("hermitian.eig_hermitian"),
            "hermitian.eig_hermitian.self_s": self_s("hermitian.eig_hermitian"),
            "hermitian.eig_hermitian.us_per_call_n_le_8": per(sum(small), len(small)),
            "hermitian.eig_hermitian.us_per_call_n_ge_32": per(sum(large), len(large)),
            "hermitian.min_eigpair.calls": calls("hermitian.min_eigpair"),
            "hermitian.min_eigpair.self_s": self_s("hermitian.min_eigpair"),
            "hermitian.as_hermitian.calls": calls("hermitian.as_hermitian"),
            "hermitian.as_hermitian.self_s": self_s("hermitian.as_hermitian"),
            "hermitian.cluster_eigenvalues.self_s": self_s("hermitian.cluster_eigenvalues"),
            "hermitian.abs_hermitian.self_s": self_s("hermitian.abs_hermitian"),
            "algebra.build.self_s": sum(self_s(n) for n in _BUILDS),
            "algebra.basis_bytes": self.basis_bytes,
            "algebra.contains_identity.self_s": self_s("algebra.contains_identity"),
            "algebra.compress.self_s": self_s("algebra.compress"),
            "moment.compress_family.calls": calls("moment.compress_family"),
            "moment.compress_family.self_s": self_s("moment.compress_family"),
            "moment.compress_family.bytes_in": self.compress_bytes,
            "moment.fw.solves": len(self.fw),
            "moment.fw.iterations": fw_iters,
            "moment.fw.iterations_max": max((it for _, it, _ in self.fw), default=0),
            "moment.fw.us_per_iter": per(fw_time, fw_iters),
            "moment.fw.capped_frac": per(sum(c for _, _, c in self.fw), len(self.fw), 1.0),
            "moment.moment_distance.self_s": self_s("moment.moment_distance"),
            "moment.intersects.self_s": self_s("moment.intersects"),
            "minimality.extremal_eigenspaces.self_s": self_s("minimality.extremal_eigenspaces"),
            "minimality.check_minimal.self_s": self_s("minimality.check_minimal"),
            "minimality.is_support_pair.self_s": self_s("minimality.is_support_pair"),
            "minimality.build_certificate.calls": calls("minimality.build_certificate"),
            "minimality.build_certificate.self_s": self_s("minimality.build_certificate"),
            "minimality.certificate.residual_eq_max": self.residual_eq_max,
            "variational.best_approximation.self_s": self_s("variational.best_approximation"),
            "variational.best_approximation.iterations": ba_iters,
            "variational.best_approximation.us_per_iter": per(ba_time, ba_iters),
            "variational.evaluate.self_s": self_s(_EVALUATE),
            "variational.fw_share": per(fw_in_ba, ba_time, 1.0),
            "io.self_s": io_self,
            "cli.main.self_s": self_s("cli.main"),
            "cli.resolve_algebra.self_s": self_s("cli.resolve_algebra"),
        }

    def _has_ancestor(self, idx: int, targets: set[int]) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if p in targets:
                return True
            p = self.parent[p]
        return False
