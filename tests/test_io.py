import json

import numpy as np
import pytest

from bminimal import io as bio
from bminimal.algebra import build_diagonal, build_pauli_diagonal
from bminimal.errors import InvalidPattern
from bminimal.minimality import check_minimal
from bminimal.moment import Subspace
from oracles import rand_hermitian
from suites import MALFORMED

M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)

# Entries whose bits a lossy decoder would change: signed zeros, subnormals,
# and magnitudes near the top of the float range.
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308])

def edge_array(rng, shape):
    """Random complex entries with the EDGE_VALUES mixed into both parts.

    The parts are set one by one: re + 1j * im would turn a -0.0 imaginary
    part into +0.0."""
    parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-5, 5, (2, *shape))
    mask = rng.random((2, *shape)) < 0.5
    parts[mask] = rng.choice(EDGE_VALUES, int(mask.sum()))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


class TestMatrixDocuments:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(60)
        m = rand_hermitian(rng, 4)
        doc = bio.matrix_to_doc(m)
        text = bio.dumps(doc)
        back = bio.matrix_from_doc(json.loads(text))
        assert np.array_equal(back, m)

    def test_round_trip_keeps_every_bit(self):
        rng = np.random.default_rng(62)
        for n in range(1, 9):
            m = edge_array(rng, (n, n))
            back = bio.matrix_from_doc(json.loads(bio.dumps(bio.matrix_to_doc(m))))
            assert_same_bits(back, m)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            bio.matrix_from_doc({"entries": []})

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_rejects_malformed(self, kind):
        doc = MALFORMED[kind](bio.matrix_to_doc(M1), "entries")
        with pytest.raises(ValueError, match="matrix document"):
            bio.matrix_from_doc(doc)

    @pytest.mark.parametrize("n", [1.5, True, "1.0", float("inf"), float("nan")])
    def test_rejects_size_that_is_not_an_integer(self, n):
        # n = 1.5 or true would truncate to the 1 x 1 body's size
        with pytest.raises(ValueError, match="matrix document 'n' must be an integer"):
            bio.matrix_from_doc({"n": n, "entries": [[[1.0, 0.0]]]})

    def test_integral_size_kept(self):
        for n in (1, 1.0, "1"):
            assert bio.matrix_from_doc({"n": n, "entries": [[[2.0, 0.0]]]})[0, 0] == 2.0

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            bio.matrix_from_doc({"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]})

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            bio.matrix_from_doc({"n": 1, "entries": [[[1.0]]]})

    def test_hermitian_from_doc_symmetrizes(self):
        doc = bio.matrix_to_doc(M1)
        assert np.array_equal(bio.hermitian_from_doc(doc), M1)


class TestFrameDocuments:
    def test_round_trip(self):
        s = Subspace.from_span(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        doc = bio.frame_to_doc(s)
        back = bio.frame_from_doc(json.loads(bio.dumps(doc)))
        assert np.allclose(back.frame.conj().T @ back.frame, np.eye(2), atol=1e-12)
        assert back.n == 3 and back.r == 2

    def test_orthonormalizes_spanning_columns(self):
        doc = {"n": 2, "columns": [[[3.0, 0.0], [0.0, 0.0]]]}
        s = bio.frame_from_doc(doc)
        assert np.allclose(np.abs(s.frame.ravel()), [1.0, 0.0])

    def test_round_trip_keeps_every_bit(self, monkeypatch):
        # from_span orthonormalizes; with it replaced by the identity, the
        # subspace holds the decoded columns as they are
        monkeypatch.setattr(Subspace, "from_span", classmethod(lambda cls, v: cls._trusted(v)))
        rng = np.random.default_rng(63)
        for n in range(1, 9):
            cols = edge_array(rng, (n, int(rng.integers(1, n + 1))))
            doc = json.loads(bio.dumps(bio.frame_to_doc(Subspace._trusted(cols))))
            assert_same_bits(bio.frame_from_doc(doc).frame, cols)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_rejects_malformed(self, kind):
        doc = MALFORMED[kind](bio.frame_to_doc(Subspace.from_span(np.eye(3)[:, :2])), "columns")
        with pytest.raises(ValueError, match="frame document"):
            bio.frame_from_doc(doc)

    def test_rejects_bad_column_length(self):
        with pytest.raises(ValueError):
            bio.frame_from_doc({"n": 3, "columns": [[[1.0, 0.0]]]})


class TestAlgebraDocuments:
    def test_diag(self):
        basis = bio.algebra_from_doc({"kind": "diag", "n": 3})
        ref = build_diagonal(3)
        assert basis.dim == 3
        assert all(np.array_equal(a, b) for a, b in zip(basis.support, ref.support))
        assert np.array_equal(basis.table, ref.table)

    def test_pauli(self):
        basis = bio.algebra_from_doc({"kind": "pauli-diag", "q": 2})
        assert basis.dim == 4

    def test_block(self):
        doc = {"kind": "block", "n": 4, "pattern": [[2, "diagonal"], [2, "full"]]}
        assert bio.algebra_from_doc(doc).dim == 6

    def test_custom_round_trip(self):
        basis = build_pauli_diagonal(2)
        doc = {"kind": "custom", "elements": [bio.matrix_to_doc(e) for e in basis.elements]}
        back = bio.algebra_from_doc(json.loads(bio.dumps(doc)))
        assert back.dim == basis.dim
        for a, b in zip(back.elements, basis.elements):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("doc", [
        {"kind": "custom", "elements": 5},
        {"kind": "custom", "elements": [{"n": 1, "entries": [[[None, 0.0]]]}]},
        {"kind": "pauli-diag", "q": [2]},
        {"kind": "diag", "n": [3]},
        {"kind": "diag"},
        {"kind": "block", "pattern": 5},
        {"kind": "block", "pattern": [[2, "diagonal"]], "n": [2]},
        {"kind": "pauli-diag", "q": 1.7},
        {"kind": "pauli-diag", "q": True},
        {"kind": "diag", "n": 2.5},
        {"kind": "diag", "n": True},
        {"kind": "block", "pattern": [[2.5, "diagonal"]]},
        {"kind": "block", "pattern": [[True, "diagonal"]]},
        {"kind": "block", "pattern": [[2, "diagonal"]], "n": 2.5},
    ], ids=["elements", "element", "q", "n", "no_n", "pattern", "block_n", "fractional_q",
            "bool_q", "fractional_n", "bool_n", "fractional_size", "bool_size",
            "fractional_block_n"])
    def test_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            bio.algebra_from_doc(doc)

    def test_integral_values_kept(self):
        assert bio.algebra_from_doc({"kind": "pauli-diag", "q": "2"}).n == 4
        assert bio.algebra_from_doc({"kind": "pauli-diag", "q": 2.0}).n == 4
        assert bio.algebra_from_doc({"kind": "diag", "n": 3.0}).n == 3
        assert bio.algebra_from_doc({"kind": "block", "pattern": [[2.0, "full"]]}).dim == 4

    @pytest.mark.parametrize("doc", [
        {"kind": "pauli-diag", "q": 7},
        {"kind": "pauli-diag", "q": 10**6},
        {"kind": "pauli-diag", "q": 1},
        {"kind": "diag", "n": 4},
        {"kind": "block", "n": 4, "pattern": [[2, "diagonal"], [2, "full"]]},
        {"kind": "custom", "elements": [bio.matrix_to_doc(np.eye(2))]},
    ], ids=["pauli", "huge_pauli", "small_pauli", "diag", "block", "custom"])
    def test_size_checked_before_build(self, monkeypatch, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("the basis was built before its size was checked")

        for name in ("build_diagonal", "build_pauli_diagonal", "build_block", "orthonormalize"):
            monkeypatch.setattr(bio, name, refuse)
        with pytest.raises(ValueError, match="does not match the input size 3"):
            bio.algebra_from_doc(doc, n_hint=3)

    def test_n_hint_fills_missing_n(self):
        assert bio.algebra_from_doc({"kind": "diag"}, n_hint=3).n == 3
        doc = {"kind": "block", "pattern": [[2, "diagonal"], [2, "full"]]}
        with pytest.raises(InvalidPattern):
            bio.algebra_from_doc(doc, n_hint=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bio.algebra_from_doc({"kind": "free-group"})


class TestReportDocuments:
    def test_minimal_report(self):
        report = check_minimal(M1, build_diagonal(3))
        doc = bio.report_to_doc(report)
        assert doc["verdict"] == "minimal"
        assert doc["certificate"]["residual_eq"] <= 1e-8
        assert "timings" not in doc
        timed = bio.report_to_doc(report, timings={"total_s": 0.5})
        assert timed["timings"] == {"total_s": 0.5}

    def test_not_minimal_report_serializes(self):
        report = check_minimal(np.diag([1.0, 0.5]), build_diagonal(2))
        doc = json.loads(bio.dumps(bio.report_to_doc(report)))
        assert doc["verdict"] == "not_minimal"
        assert doc["certificate"] is None
        assert doc["distance"] is None


class TestPointsCsv:
    def test_header_and_rows(self):
        pts = np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]])
        text = bio.points_to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "B_1,B_2,B_3"
        assert lines[1] == "0.5,0.25,0.25"

    def test_floats_round_trip(self):
        rng = np.random.default_rng(61)
        pts = rng.standard_normal((5, 4))
        lines = bio.points_to_csv(pts).strip().split("\n")[1:]
        back = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.array_equal(back, pts)
