import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bminimal import algebra, hermitian
from bminimal import io as bio
from bminimal.cli import main
from bminimal.moment import Subspace
from oracles import rand_hermitian
from suites import MALFORMED, SCALES, constructed_minimal_3x3, support_matrix, twin_pair

IV = 1 / np.sqrt(2)
M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def write_matrix(path, m):
    path.write_text(bio.dumps(bio.matrix_to_doc(m)))
    return str(path)


def write_frame(path, cols):
    s = Subspace.from_span(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))
    path.write_text(bio.dumps(bio.frame_to_doc(s)))
    return str(path)


@pytest.fixture
def m1_file(tmp_path):
    return write_matrix(tmp_path / "m1.json", M1)


def run_bmin(args):
    """``bmin ARGS`` in a new interpreter, under Python's default warning
    filters: what a user sees on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bminimal.cli", *args],
                          env=env, capture_output=True, timeout=120)


class TestCheck:
    def test_minimal_exit_zero(self, m1_file, capsys):
        code = main(["check", "--matrix", m1_file, "--algebra", "diag"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "minimal"
        assert doc["certificate"]["residual_perp"] <= 1e-10

    def test_not_minimal_exit_one(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "d.json", np.diag([1.0, -1.0, 0.0]))
        code = main(["check", "--matrix", path, "--algebra", "diag"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_minimal"

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("a, code, verdict", [
        (M1, 0, "minimal"),
        (np.diag([1.0, -1.0]), 1, "not_minimal"),
    ], ids=["M1", "diag"])
    def test_scale_covariant(self, tmp_path, capsys, a, code, verdict, c):
        path = write_matrix(tmp_path / "scaled.json", c * a)
        assert main(["check", "--matrix", path, "--algebra", "diag"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == verdict
        assert (doc["certificate"] is not None) == (verdict == "minimal")

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["check", "--matrix", str(bad), "--algebra", "diag"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check", "--matrix", str(tmp_path / "nope.json"),
                     "--algebra", "diag"]) == 2

    def test_output_file_carries_timings(self, m1_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["check", "--matrix", m1_file, "--algebra", "diag",
              "--output", str(out)])
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out.read_text())
        assert "timings" not in stdout_doc
        assert file_doc["timings"]["total_s"] >= 0.0
        assert file_doc["verdict"] == stdout_doc["verdict"]

    def test_repeat_after_other_commands(self, m1_file, capsys):
        args = ["check", "--matrix", m1_file, "--algebra", "diag"]
        first_code = main(args)
        first = capsys.readouterr().out
        assert main(["dirderiv", "--matrix", m1_file, "--algebra", "diag",
                     "--w", "1,0,0"]) == 0
        with pytest.raises(SystemExit) as missing:
            main(["check", "--algebra", "diag"])
        assert missing.value.code == 2
        capsys.readouterr()
        assert main(args) == first_code
        assert capsys.readouterr().out == first

    def test_process_matches_in_process(self, m1_file, capsys):
        args = ["check", "--matrix", m1_file, "--algebra", "diag"]
        code = main(args)
        expected = capsys.readouterr().out.encode("utf-8")
        proc = run_bmin(args)
        assert proc.returncode == code
        assert proc.stdout == expected

    def test_deterministic_stdout(self, m1_file, capsys):
        main(["check", "--matrix", m1_file, "--algebra", "diag"])
        first = capsys.readouterr().out
        main(["check", "--matrix", m1_file, "--algebra", "diag"])
        second = capsys.readouterr().out
        assert first == second


class TestCertificate:
    def test_emits_certificate(self, m1_file, capsys):
        code = main(["certificate", "--matrix", m1_file, "--algebra", "diag"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        x = bio.matrix_from_doc(doc["x"])
        assert np.allclose(np.abs(x), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-9)

    def test_refuses_when_not_minimal(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "d.json", np.diag([2.0, 1.0]))
        code = main(["certificate", "--matrix", path, "--algebra", "diag"])
        assert code == 1
        assert "no certificate" in capsys.readouterr().err


class TestMoment:
    def test_deterministic_csv(self, tmp_path, capsys):
        frame = write_frame(tmp_path / "s.json", [[IV, IV, 0], [0, 0, 1]])
        args = ["moment", "--frame", frame, "--algebra", "diag",
                "--samples", "16", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "B_1,B_2,B_3"
        assert len(lines) == 17

    def test_rank_one_rows_identical(self, tmp_path, capsys):
        frame = write_frame(tmp_path / "v.json", [[IV, -IV, 0]])
        main(["moment", "--frame", frame, "--algebra", "diag",
              "--samples", "5", "--seed", "1"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(set(rows)) == 1

    def test_rotated_basis_rows_transform(self, tmp_path, capsys):
        frame = write_frame(tmp_path / "s.json", [[IV, IV, 0], [0, 0, 1]])
        rot = {
            "kind": "custom",
            "n": 3,
            "elements": [
                bio.matrix_to_doc(np.diag([1.0, 0.0, 0.0])),
                bio.matrix_to_doc(np.diag([0.0, IV, -IV])),
                bio.matrix_to_doc(np.diag([0.0, IV, IV])),
            ],
        }
        rot_path = tmp_path / "rot.json"
        rot_path.write_text(bio.dumps(rot))
        main(["moment", "--frame", frame, "--algebra", "diag",
              "--samples", "10", "--seed", "3"])
        base = capsys.readouterr().out
        main(["moment", "--frame", frame, "--algebra", f"custom:{rot_path}",
              "--samples", "10", "--seed", "3"])
        rotated = capsys.readouterr().out
        parse = lambda text: np.array(
            [[float(v) for v in line.split(",")]
             for line in text.strip().split("\n")[1:]]
        )
        c = np.array([[1, 0, 0], [0, IV, -IV], [0, IV, IV]])
        assert np.allclose(parse(rotated), parse(base) @ c.T, atol=1e-10)

    def test_bad_frame_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(bio.dumps({"n": 2, "columns": [[[1.0, 0.0], [0.0, 0.0]],
                                                      [[2.0, 0.0], [0.0, 0.0]]]}))
        assert main(["moment", "--frame", str(bad), "--algebra", "diag"]) == 2

    @pytest.mark.parametrize("flag, value, text", [
        ("--samples", "0", "--samples must be an integer >= 1, got 0"),
        ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
    ], ids=["samples", "seed"])
    def test_bad_count_exit_two(self, tmp_path, capsys, flag, value, text):
        # rank one too, where no sample draws from the seed
        for name, cols in [("s", [[IV, IV, 0], [0, 0, 1]]), ("v", [[IV, -IV, 0]])]:
            frame = write_frame(tmp_path / f"{name}.json", cols)
            assert main(["moment", "--frame", frame, "--algebra", "diag", flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {text}\n"


class TestSupport:
    def test_true_pair(self, tmp_path, capsys):
        v = write_frame(tmp_path / "v.json", [[IV, IV, 0], [0, 0, 1]])
        w = write_frame(tmp_path / "w.json", [[IV, -IV, 0]])
        code = main(["support", "--v-frame", v, "--w-frame", w, "--algebra", "diag"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["support_pair"] is True

    def test_twin_pair(self, tmp_path, capsys):
        # a rank-2 pair in C^8 meeting in one pure point of each moment, and
        # the minimal matrix it supports: both settled by the face polish
        v, w = twin_pair(1)
        args = ["--v-frame", write_frame(tmp_path / "v.json", list(v.T)),
                "--w-frame", write_frame(tmp_path / "w.json", list(w.T)), "--algebra", "pauli:3"]
        assert main(["support", *args]) == 0
        assert json.loads(capsys.readouterr().out) == {"support_pair": True}
        path = write_matrix(tmp_path / "a.json", support_matrix(v, w))
        assert main(["check", "--matrix", path, "--algebra", "pauli:3"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "minimal"

    def test_false_pair(self, tmp_path, capsys):
        v = write_frame(tmp_path / "v.json", [[1, 0]])
        w = write_frame(tmp_path / "w.json", [[0, 1]])
        code = main(["support", "--v-frame", v, "--w-frame", w, "--algebra", "diag"])
        assert code == 1

    def test_frames_of_different_sizes(self, tmp_path, capsys):
        v = write_frame(tmp_path / "v.json", [[1, 0, 0, 0]])
        w = write_frame(tmp_path / "w.json", [[0, 1, 0]])
        code = main(["support", "--v-frame", v, "--w-frame", w, "--algebra", "diag"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "V has 4 rows, W has 3" in lines[0]


class TestSupportUndecided:
    def test_budget_too_small(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        v = write_frame(tmp_path / "v.json", list(q[:, :2].T))
        w = write_frame(tmp_path / "w.json", list(q[:, 2:].T))
        argv = ["support", "--v-frame", v, "--w-frame", w, "--algebra", "diag"]
        assert main([*argv, "--max-iter", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("undecided: ")
        assert lines[0].endswith("the solve stopped at budget after 5 iterations")
        # the default budget settles the same pair
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"support_pair": True}


class TestConstructAndCheck:
    def test_block_example_pipeline(self, tmp_path, capsys):
        v = write_frame(tmp_path / "v.json", [[0.5, 0.5, 0.5, 0.5]])
        w = write_frame(tmp_path / "w.json", [[-0.5, -0.5, 0.5, 0.5]])
        pv = np.full((4, 4), 0.25)
        qw = 0.25 * np.outer([-1, -1, 1, 1], [-1, -1, 1, 1])
        rest = write_matrix(tmp_path / "rest.json", 0.5 * (np.eye(4) - pv - qw))
        code = main(["construct", "--v-frame", v, "--w-frame", w, "--lam", "1.0",
                     "--rest", rest, "--algebra", "block:2d,2f"])
        assert code == 0
        built = bio.matrix_from_doc(json.loads(capsys.readouterr().out))
        expected = 1.0 * (pv - qw) + 0.5 * (np.eye(4) - pv - qw)
        assert np.allclose(built, expected, atol=1e-12)
        m_path = write_matrix(tmp_path / "m.json", built)
        assert main(["check", "--matrix", m_path, "--algebra", "block:2d,2f"]) == 0
        capsys.readouterr()


    @pytest.mark.parametrize("c", SCALES)
    def test_rest_judged_against_lam(self, tmp_path, capsys, c):
        # ||R|| = lam builds c M1 at every scale; ||R|| = 1.5 lam is refused
        # with one error line, also at lam = 1e-12
        v = write_frame(tmp_path / "v.json", [[1.0, 1.0, 0.0]])
        w = write_frame(tmp_path / "w.json", [[1.0, -1.0, 0.0]])
        args = ["construct", "--v-frame", v, "--w-frame", w, "--lam", repr(c), "--algebra", "diag"]
        fits = write_matrix(tmp_path / "fits.json", np.diag([0.0, 0.0, c]))
        assert main([*args, "--rest", fits]) == 0
        built = bio.matrix_from_doc(json.loads(capsys.readouterr().out))
        assert np.allclose(built / c, M1, rtol=0, atol=1e-15)
        large = write_matrix(tmp_path / "large.json", np.diag([0.0, 0.0, 1.5 * c]))
        assert main([*args, "--rest", large]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


    def test_sizes_compared_first(self, tmp_path, capsys):
        v4 = write_frame(tmp_path / "v4.json", [[1.0, 0.0, 0.0, 0.0]])
        w4 = write_frame(tmp_path / "w4.json", [[0.0, 1.0, 0.0, 0.0]])
        w3 = write_frame(tmp_path / "w3.json", [[0.0, 1.0, 0.0]])
        r3 = write_matrix(tmp_path / "r3.json", np.zeros((3, 3)))
        r4 = write_matrix(tmp_path / "r4.json", np.zeros((4, 4)))
        for w, rest, text in [(w4, r3, "R has shape (3, 3), but V and W have 4 rows"),
                              (w3, r4, "frames of different sizes: V has 4 rows, W has 3")]:
            code = main(["construct", "--v-frame", v4, "--w-frame", w, "--lam", "1",
                         "--rest", rest, "--algebra", "diag"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {text}\n"


class TestBestApproxAndDirDeriv:
    def test_best_approx(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "x.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        code = main(["best-approx", "--matrix", path, "--algebra", "diag",
                     "--x0", "1,-1", "--max-iter", "200"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(doc["dist"] - 1.0) <= 0.02
        assert np.linalg.norm(doc["x_star"]) <= 0.05
        assert set(doc) == {"dist", "lower", "x_star", "converged", "iterations"}
        assert doc["converged"] and doc["lower"] <= doc["dist"]

    @pytest.mark.parametrize("seed", [40, 44])
    def test_best_approx_converges_from_a_start(self, tmp_path, capsys, seed):
        # from this start the interval [lower, dist] of these random 3 x 3
        # inputs narrows to --tol ||A0|| well within a 300-step budget
        a = rand_hermitian(np.random.default_rng(seed), 3)
        path = write_matrix(tmp_path / "a.json", a)
        code = main(["best-approx", "--matrix", path, "--algebra", "diag",
                     "--max-iter", "300", "--x0", "0.5,0.5,0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["converged"] and doc["iterations"] <= 50
        norm = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert 0.0 <= doc["dist"] - doc["lower"] <= 1e-6 * norm

    def test_dirderiv_zero_direction(self, m1_file, capsys):
        code = main(["dirderiv", "--matrix", m1_file, "--algebra", "diag",
                     "--w", "0,0,0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_dirderiv_at_zero_matrix(self, tmp_path, capsys):
        # the top eigenspace of A(x) = 0 is all of C^3: the value is max_k w_k
        path = write_matrix(tmp_path / "zero.json", np.zeros((3, 3)))
        code = main(["dirderiv", "--matrix", path, "--algebra", "diag", "--w", "1,0,-2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)

    def test_dirderiv_against_library(self, tmp_path, capsys):
        from bminimal.algebra import build_diagonal
        from bminimal.variational import AffineFamily, directional_derivative

        a = np.array([[1.0, 0.2], [0.2, -1.0]])
        path = write_matrix(tmp_path / "a.json", a)
        main(["dirderiv", "--matrix", path, "--algebra", "diag",
              "--x", "0.3,-0.1", "--w", "1,2"])
        got = json.loads(capsys.readouterr().out)["value"]
        fam = AffineFamily(a, build_diagonal(2))
        assert got == pytest.approx(
            directional_derivative(fam, [0.3, -0.1], [1.0, 2.0]), abs=0
        )


class TestHugeVectors:
    """Finite vectors near the float range: each command prints its result,
    or exactly one error line naming x or w, and no numpy warning reaches
    stderr (in-process a warning fails the run; the process shows what a
    user sees)."""

    @pytest.mark.parametrize("argv, key, expected", [
        (["best-approx", "--x0", "1e308,1e308,0"], "dist", 1.0),
        (["dirderiv", "--x", "1e308,-1e308,0", "--w", "1,0,0"], "value", 1.0),
        (["dirderiv", "--w", "1e308,-1e308,1e308"], "value", 1e308),
    ], ids=["x0", "x", "w"])
    def test_result(self, m1_file, capsys, argv, key, expected):
        args = [argv[0], "--matrix", m1_file, "--algebra", "diag", *argv[1:]]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)[key] == pytest.approx(expected, rel=1e-12)
        proc = run_bmin(args)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == captured.out.encode("utf-8")

    @pytest.mark.parametrize("argv, matrix, algebra, error", [
        (["best-approx", "--x0", "1e308,0"], 1e308 * np.eye(2), "diag", "x is too large"),
        (["dirderiv", "--x", "1e308,0", "--w", "1,0"], 1e308 * np.eye(2), "diag",
         "x is too large"),
        (["dirderiv", "--w", "1.5e308,1.5e308"], np.zeros((2, 2)), "pauli:1",
         "direction w is too large"),
    ], ids=["x0", "x", "w"])
    def test_overflow_refused(self, tmp_path, capsys, argv, matrix, algebra, error):
        path = write_matrix(tmp_path / "a.json", matrix)
        args = [argv[0], "--matrix", path, "--algebra", algebra, *argv[1:]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
        proc = run_bmin(args)
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8") == captured.err


class TestNegativeVectors:
    """A vector whose first entry is negative parses the same with a space
    after its flag as with '='."""

    @pytest.mark.parametrize("command, flag, value, extra", [
        ("dirderiv", "--w", "-1,0.5,0.2", []),
        ("dirderiv", "--x", "-0.3,0.1,0", ["--w", "1,2,0"]),
        ("best-approx", "--x0", "-.5,1,0", ["--max-iter", "20"]),
    ], ids=["w", "x", "x0"])
    def test_space_form_matches_equals_form(self, m1_file, capsys, command, flag, value, extra):
        base = [command, "--matrix", m1_file, "--algebra", "diag", *extra]
        assert main(base + [f"{flag}={value}"]) == 0
        expected = capsys.readouterr().out
        assert main(base + [flag, value]) == 0
        assert capsys.readouterr().out == expected


class TestLogging:
    def test_info_logs_to_stderr(self, m1_file, capsys, monkeypatch):
        monkeypatch.setenv("BMIN_LOG", "info")
        code = main(["check", "--matrix", m1_file, "--algebra", "diag"])
        captured = capsys.readouterr()
        assert code == 0
        assert "verdict minimal" in captured.err
        json.loads(captured.out)  # stdout stays pure JSON

    def test_off_is_silent(self, m1_file, capsys, monkeypatch):
        monkeypatch.setenv("BMIN_LOG", "off")
        main(["check", "--matrix", m1_file, "--algebra", "diag"])
        assert capsys.readouterr().err == ""

    def test_bad_level_exits_two(self, m1_file, capsys, monkeypatch):
        monkeypatch.setenv("BMIN_LOG", "loud")
        assert main(["check", "--matrix", m1_file, "--algebra", "diag"]) == 2
        assert "BMIN_LOG" in capsys.readouterr().err


class TestAlgebraSpecParsing:
    def test_unknown_spec(self, m1_file):
        assert main(["check", "--matrix", m1_file, "--algebra", "toeplitz"]) == 2

    def test_bad_block_spec(self, m1_file):
        assert main(["check", "--matrix", m1_file, "--algebra", "block:xyz"]) == 2

    def test_pauli_dimension_mismatch(self, m1_file):
        # matrix is 3x3, pauli:2 needs n = 4
        assert main(["check", "--matrix", m1_file, "--algebra", "pauli:2"]) == 2

    def test_one_sided_dimension_mismatch(self, tmp_path, capsys):
        # a one-sided matrix has no moment test to catch the size
        path = write_matrix(tmp_path / "d.json", np.diag([1.0, 0.5, 0.0]))
        assert main(["check", "--matrix", path, "--algebra", "pauli:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not match" in captured.err


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestMalformedDocuments:
    """Every document a command reads fails with exit 2 and one error line."""

    @staticmethod
    def argv(route, tmp_path, bad):
        m1 = write_matrix(tmp_path / "m1.json", M1)
        v = write_frame(tmp_path / "v.json", [[0.5, 0.5, 0.5, 0.5]])
        w = write_frame(tmp_path / "w.json", [[-0.5, -0.5, 0.5, 0.5]])
        if route in ("moment", "support"):
            frame = write_doc(tmp_path / "bad.json", bad(bio.frame_to_doc(
                Subspace.from_span(np.eye(3)[:, :2])), "columns"))
            if route == "moment":
                return ["moment", "--frame", frame, "--algebra", "diag"]
            return ["support", "--v-frame", frame, "--w-frame", w, "--algebra", "diag"]
        bad_matrix = bad(bio.matrix_to_doc(M1), "entries")
        matrix = write_doc(tmp_path / "bad.json", bad_matrix)
        if route == "construct":
            return ["construct", "--v-frame", v, "--w-frame", w, "--lam", "1",
                    "--rest", matrix, "--algebra", "block:2d,2f"]
        if route == "custom":
            alg = write_doc(tmp_path / "alg.json", {"kind": "custom", "elements": [
                bio.matrix_to_doc(np.eye(3)), bad_matrix]})
            return ["check", "--matrix", m1, "--algebra", f"custom:{alg}"]
        extra = {"dirderiv": ["--w", "1,0,0"]}.get(route, [])
        return [route, "--matrix", matrix, "--algebra", "diag", *extra]

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("route", ["check", "certificate", "best-approx", "dirderiv",
                                       "moment", "support", "construct", "custom"])
    def test_exit_two_one_line(self, tmp_path, capsys, route, kind):
        code = main(self.argv(route, tmp_path, MALFORMED[kind]))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "document" in lines[0]


class TestNonIntegerSizes:
    """A size or count that is a fraction or a bool is refused, exit 2 and one
    error line, instead of being truncated."""

    def assert_refused(self, capsys, argv, text):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert text in lines[0]

    @pytest.mark.parametrize("n", [1.5, True])
    def test_matrix_n(self, tmp_path, capsys, n):
        # int() would read the size as 1 and answer not_minimal
        path = write_doc(tmp_path / "a.json", {"n": n, "entries": [[[1.0, 0.0]]]})
        self.assert_refused(capsys, ["check", "--matrix", path, "--algebra", "diag"],
                            "must be an integer")

    @pytest.mark.parametrize("doc, text", [
        ({"kind": "pauli-diag", "q": 1.7}, "'q' must be an integer"),
        ({"kind": "pauli-diag", "q": True}, "'q' must be an integer"),
        ({"kind": "block", "pattern": [[2.5, "diagonal"], [1, "full"]]}, "'pattern' must be"),
        ({"kind": "block", "pattern": [[True, "diagonal"], [2, "full"]]}, "'pattern' must be"),
    ], ids=["fractional_q", "bool_q", "fractional_size", "bool_size"])
    def test_algebra_document(self, tmp_path, capsys, doc, text):
        # the block sizes would truncate to 2 + 1 and 1 + 2, the size of M1
        m1 = write_matrix(tmp_path / "m1.json", M1)
        alg = write_doc(tmp_path / "alg.json", doc)
        self.assert_refused(capsys, ["check", "--matrix", m1, "--algebra", f"custom:{alg}"], text)


class TestAlgebraSizeFirst:
    def test_pauli_not_built_for_wrong_size(self, m1_file, capsys, monkeypatch):
        def refuse(q):
            raise AssertionError(f"built a pauli:{q} basis")

        monkeypatch.setattr(bio, "build_pauli_diagonal", refuse)
        assert main(["check", "--matrix", m1_file, "--algebra", "pauli:7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "does not match the input size 3" in lines[0]


class TestValidationCounts:
    """Calls of the one validation pass per command route, basis build
    included: the command line adds none in front of the library's own."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        real = hermitian._as_hermitian_stack

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for mod in (hermitian, algebra):
            monkeypatch.setattr(mod, "_as_hermitian_stack", counting)
        return calls

    def run(self, capsys, count, argv):
        count.clear()
        main(argv)
        capsys.readouterr()
        return len(count)

    def test_routes(self, tmp_path, capsys, count):
        minimal = write_matrix(tmp_path / "a.json", constructed_minimal_3x3(2001))
        one_sided = write_matrix(tmp_path / "d.json", np.diag([1.0, 0.5, 0.0]))
        alg = write_doc(tmp_path / "alg.json", {"kind": "custom", "elements": [
            bio.matrix_to_doc(np.diag(e)) for e in np.eye(3)]})
        # A in check_minimal's eigensolve, which the certificate reuses; a
        # builder's basis is filled from its support and needs no pass
        assert self.run(capsys, count, ["check", "--matrix", minimal, "--algebra", "diag"]) == 1
        assert self.run(capsys, count, ["check", "--matrix", one_sided, "--algebra", "diag"]) == 1
        # three custom elements by orthonormalize, then the basis stack, then A
        assert self.run(capsys, count, ["check", "--matrix", minimal,
                                        "--algebra", f"custom:{alg}"]) == 5
        # A in AffineFamily; A(x) and the compressed direction are built by
        # the package and decomposed without a pass
        assert self.run(capsys, count, ["dirderiv", "--matrix", minimal, "--algebra", "diag",
                                        "--w", "1,0,0"]) == 1
        # R in the eigensolve that also gives ||R||
        v = write_frame(tmp_path / "v.json", [[0.5, 0.5, 0.5, 0.5]])
        w = write_frame(tmp_path / "w.json", [[-0.5, -0.5, 0.5, 0.5]])
        pv = np.full((4, 4), 0.25)
        qw = 0.25 * np.outer([-1, -1, 1, 1], [-1, -1, 1, 1])
        rest = write_matrix(tmp_path / "rest.json", 0.5 * (np.eye(4) - pv - qw))
        assert self.run(capsys, count, ["construct", "--v-frame", v, "--w-frame", w,
                                        "--lam", "1.0", "--rest", rest,
                                        "--algebra", "block:2d,2f"]) == 1


class TestUnreadFlags:
    """Each subcommand accepts only the flags it reads: any other is a usage
    error, exit 2, before a document is opened."""

    @pytest.mark.parametrize("command, flag", [
        *[(c, "--seed") for c in ("check", "certificate", "support", "construct",
                                  "best-approx", "dirderiv")],
        *[(c, f) for c in ("moment", "dirderiv") for f in ("--tol", "--gap-tol", "--max-iter")],
        ("best-approx", "--gap-tol"),
    ])
    def test_refused(self, tmp_path, capsys, command, flag):
        m1 = write_matrix(tmp_path / "m1.json", M1)
        v = write_frame(tmp_path / "v.json", [[IV, IV, 0]])
        w = write_frame(tmp_path / "w.json", [[IV, -IV, 0]])
        argv = {
            "check": ["--matrix", m1],
            "certificate": ["--matrix", m1],
            "support": ["--v-frame", v, "--w-frame", w],
            "construct": ["--v-frame", v, "--w-frame", w, "--lam", "1"],
            "best-approx": ["--matrix", m1, "--max-iter", "5"],
            "dirderiv": ["--matrix", m1, "--w", "1,0,0"],
            "moment": ["--frame", v, "--samples", "2"],
        }[command]
        argv = [command, *argv, "--algebra", "diag"]
        assert main(argv) in (0, 1)
        capsys.readouterr()
        with pytest.raises(SystemExit) as refused:
            main([*argv, flag, "1"])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} 1" in err


class TestNonFiniteValues:
    """A NaN or infinite tolerance, ``--lam`` or vector entry is refused with
    exit 2 and one error line, before any output."""

    def assert_refused(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--tol", "--gap-tol"])
    def test_tolerance(self, tmp_path, capsys, flag, value):
        # diag(1, -1) lies in the algebra, so it is not minimal; an infinite
        # --tol would call it minimal with a certificate that is not one
        a = write_matrix(tmp_path / "a.json", np.diag([1.0, -1.0]))
        argv = ["check", "--matrix", a, "--algebra", "diag"]
        assert main(argv) == 1
        capsys.readouterr()
        self.assert_refused(capsys, [*argv, flag, value])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag, name", [
        ("best-approx", "--x0", "x"),
        ("dirderiv", "--x", "x"),
        ("dirderiv", "--w", "direction w"),
    ], ids=["x0", "x", "w"])
    def test_vector(self, m1_file, capsys, command, flag, name, value):
        # the refusal names the vector; no numpy warning reaches stderr
        argv = [command, "--matrix", m1_file, "--algebra", "diag", flag, f"0,{value},0"]
        if flag != "--w":
            argv += ["--w", "1,0,0"] if command == "dirderiv" else ["--max-iter", "5"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {name} must be finite: entry 1 is {value}\n"

    def test_vector_length(self, m1_file, capsys):
        code = main(["dirderiv", "--matrix", m1_file, "--algebra", "diag", "--w", "1,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --w has 2 entries, expected 3\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_lam(self, tmp_path, capsys, value):
        v = write_frame(tmp_path / "v.json", [[0.5, 0.5, 0.5, 0.5]])
        w = write_frame(tmp_path / "w.json", [[-0.5, -0.5, 0.5, 0.5]])
        self.assert_refused(capsys, ["construct", "--v-frame", v, "--w-frame", w,
                                     "--lam", value, "--algebra", "block:2d,2f"])
