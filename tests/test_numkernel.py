"""Kernel-level tests: least squares, moments, order statistics.

Oracle strategy: pinv_solve is checked against an independently coded
eigendecomposition route (normal equations diagonalised with eigh) on
well-conditioned problems and against numpy's lstsq plus a residual /
norm optimality argument on rank-deficient ones.  Rank recovery to 1e-8
is the pinned tolerance for exact-recovery constructions; hand-computed
cases are asserted much tighter.  The truncation rule is pinned on
designs built from known singular values.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from outreg import (average_ranks, columnwise_median, percentile, pinv_solve,
                    sample_covariance, sample_mean)
from outreg import numkernel
from outreg.evalharness.cli import main
from outreg.numkernel import _GRAM_MIN_RATIO
from outreg.regress import DEFAULT_NODE_GRID

ROOT = Path(__file__).resolve().parent.parent


def eig_pinv_solve(H, Y, rel_tol=1e-12):
    """Independent minimum-norm LS oracle via eigh on the normal equations."""
    G = H.T @ H
    lam, V = np.linalg.eigh(G)
    keep = lam > rel_tol * lam.max()
    V = V[:, keep]
    return V @ ((V.T @ (H.T @ Y)) / lam[keep][:, None])


def brute_force_ranks(values):
    """Independent rank oracle: r_i = #smaller + (#equal + 1) / 2."""
    v = np.asarray(values, dtype=float)
    out = np.empty(v.size)
    for i, x in enumerate(v):
        out[i] = np.sum(v < x) + (np.sum(v == x) + 1) / 2.0
    return out


class TestPinvSolve:
    def test_identity_design_returns_targets(self):
        Y = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(pinv_solve(np.eye(3), Y), Y)

    def test_hand_case_overdetermined(self):
        """H=[[1,0],[0,1],[1,1]], Y=[1,2,3] solves exactly to (1,2)."""
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Y = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(pinv_solve(H, Y), [[1.0], [2.0]],
                                   rtol=0, atol=1e-12)

    def test_exact_recovery_random_full_rank(self):
        """100 random H @ B_true constructions recover B_true to 1e-8."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            H = rng.normal(size=(50, 10))
            B_true = rng.normal(size=(10, 2))
            B = pinv_solve(H, H @ B_true)
            np.testing.assert_allclose(B, B_true, rtol=0, atol=1e-8)

    def test_agrees_with_eig_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H = rng.normal(size=(30, 8))
            Y = rng.normal(size=(30, 3))
            np.testing.assert_allclose(pinv_solve(H, Y), eig_pinv_solve(H, Y),
                                       rtol=0, atol=1e-9)

    def test_duplicated_columns_minimum_norm_split(self):
        """Rank-1 design [[1,1],[2,2]], y=(3,6): coefficient splits evenly."""
        H = np.array([[1.0, 1.0], [2.0, 2.0]])
        B = pinv_solve(H, np.array([[3.0], [6.0]]))
        np.testing.assert_allclose(B, [[1.5], [1.5]], rtol=0, atol=1e-12)

    def test_rank_deficient_matches_lstsq_minimum_norm(self):
        """20 random rank-deficient designs match numpy's minimum-norm LS."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            base = rng.normal(size=(25, 4))
            H = np.hstack([base, base[:, :2]])  # rank 4 in 6 columns
            Y = rng.normal(size=(25, 1))
            B = pinv_solve(H, Y)
            expected = np.linalg.lstsq(H, Y, rcond=None)[0]
            np.testing.assert_allclose(B, expected, rtol=0, atol=1e-8)

    def test_residual_optimality_against_random_candidates(self):
        """No random B beats the fitted residual (up to 1e-8 slack)."""
        rng = np.random.default_rng(17)
        H = rng.normal(size=(40, 6))
        Y = rng.normal(size=(40, 2))
        B = pinv_solve(H, Y)
        best = np.linalg.norm(H @ B - Y)
        for _ in range(100):
            other = B + rng.normal(size=B.shape)
            assert best <= np.linalg.norm(H @ other - Y) + 1e-8

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            pinv_solve(np.eye(3), np.ones((2, 1)))

    def test_nonpositive_rel_tol_rejected(self):
        with pytest.raises(ValueError, match="rel_tol"):
            pinv_solve(np.eye(2), np.ones((2, 1)), rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [1.0, 2.0, np.inf, np.nan])
    def test_rel_tol_not_below_one_rejected(self, rel_tol):
        """A cutoff at or above the largest singular value would drop
        every direction, which the solver does not do for the largest."""
        with pytest.raises(ValueError, match="rel_tol"):
            pinv_solve(np.eye(3), np.ones((3, 1)), rel_tol=rel_tol)

    def test_nonfinite_design_rejected(self):
        H = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            pinv_solve(H, np.ones((2, 1)))


class TestTruncationBoundary:
    """Singular values ``s <= rel_tol * s[0]`` are dropped, larger ones kept."""

    S = np.array([1.0, 0.5, 1e-3, 1e-6, 1.2e-10, 0.8e-10, 1e-14])

    @pytest.mark.parametrize("seed", range(5))
    def test_kept_and_dropped_directions(self, seed):
        """H = U diag(s) Vt with known orthonormal U and V: the target
        U[:, k] solves to Vt[k] / s[k] when s[k] > 1e-10 and to zero
        otherwise.  Rounding in H tilts the singular vectors by about
        eps / gap, so both checks are scaled by the smallest kept value:
        a kept 0.8e-10 direction would give s_min_kept * |B| of about 1.5."""
        rng = np.random.default_rng(seed)
        n, p = 12, self.S.size
        U = np.linalg.qr(rng.standard_normal((n, p)))[0]
        Vt = np.linalg.qr(rng.standard_normal((p, p)))[0].T
        B = pinv_solve(U @ np.diag(self.S) @ Vt, U)
        kept = self.S > 1e-10
        s_min_kept = self.S[kept].min()
        for k in np.flatnonzero(kept):
            np.testing.assert_allclose(B[:, k] * self.S[k], Vt[k],
                                       rtol=0, atol=1e-5)
        for k in np.flatnonzero(~kept):
            assert np.abs(B[:, k]).max() * s_min_kept < 1e-5

    @pytest.mark.parametrize("diagonal, expected", [
        ([1.0, 1e-10], [1.0, 0.0]),
        ([2.0, 2e-10], [0.5, 0.0]),
        ([4.0, 3.0, 4e-10], [0.25, 1.0 / 3.0, 0.0]),
        ([1.0, 1e-10 * (1 + 2**-50)], [1.0, 1.0 / (1e-10 * (1 + 2**-50))]),
    ])
    def test_value_on_the_boundary_is_dropped(self, diagonal, expected):
        """A diagonal design's singular values are exact, so one placed
        exactly at rel_tol * s[0] is dropped and one just above is kept."""
        B = pinv_solve(np.diag(diagonal), np.ones((len(diagonal), 1)))
        np.testing.assert_allclose(B[:, 0], expected, rtol=1e-15, atol=0)

    def test_all_zero_design_gives_zeros(self):
        B = pinv_solve(np.zeros((4, 3)), np.ones((4, 2)))
        np.testing.assert_array_equal(B, np.zeros((3, 2)))

    def test_target_without_columns_gives_empty_solution(self):
        B = pinv_solve(np.ones((4, 3)), np.ones((4, 0)))
        assert B.shape == (3, 0)


@pytest.fixture
def lstsq_designs(monkeypatch):
    """The design shape of every ``np.linalg.lstsq`` call made in the test."""
    shapes = []
    solve = np.linalg.lstsq

    def counting(a, b, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return shapes


def sigmoid_design(rng, n, p):
    """An ELM hidden layer on n rows of 4 inputs in [-1, 1]."""
    X = rng.uniform(-1.0, 1.0, size=(n, 4))
    W = rng.uniform(-1.0, 1.0, size=(p, 4))
    b = rng.uniform(0.0, 1.0, size=p)
    return 1.0 / (1.0 + np.exp(-(X @ W.T + b))), X


def known_spectrum(rng, n, S):
    """U diag(S) Vt with random orthonormal U (n, p) and V (p, p)."""
    U = np.linalg.qr(rng.standard_normal((n, S.size)))[0]
    Vt = np.linalg.qr(rng.standard_normal((S.size, S.size)))[0].T
    return U @ np.diag(S) @ Vt


class TestSolveRouting:
    """Which designs skip xGELSD, and what the QR path gives where it runs.

    The QR path runs on designs with no more columns than rows, however
    few, when both bounds on the condition number clear the cutoff.  A
    wide design makes one xGELSD call on the design per target column,
    and a target without columns makes none."""

    @pytest.mark.parametrize("n, p", [(399, 150), (319, 40)])
    def test_well_conditioned_design_skips_xgelsd(self, lstsq_designs, n, p):
        rng = np.random.default_rng(n + p)
        H, _ = sigmoid_design(rng, n, p)
        Y = rng.standard_normal((n, 2))
        B = pinv_solve(H, Y)
        assert lstsq_designs == []
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0,
                                   atol=1e-8 * np.abs(oracle).max())

    def test_rank_deficient_design_goes_to_xgelsd_on_its_r_factor(
            self, lstsq_designs, monkeypatch):
        """Copied columns give R a zero diagonal entry, up to rounding, so
        the design is sent on before R is inverted."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal((60, 16))
        H = np.hstack([base, base[:, :4]])
        Y = rng.standard_normal((60, 1))
        inversions = []
        invert = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: inversions.append(1) or invert(a))
        B = pinv_solve(H, Y)
        assert lstsq_designs == [(20, 20)]
        assert inversions == []
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0, atol=1e-10)

    def test_values_below_the_cutoff_send_a_design_to_xgelsd(self,
                                                             lstsq_designs):
        """Full rank, but two singular values fall below 1e-10 * s[0]: the
        solution drops their directions, as the pseudoinverse does."""
        rng = np.random.default_rng(5)
        S = np.r_[np.logspace(0.0, -8.0, 18), 1e-12, 1e-14]
        H = known_spectrum(rng, 60, S)
        Y = rng.standard_normal((60, 1))
        B = pinv_solve(H, Y)
        assert lstsq_designs == [(20, 20)]
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0,
                                   atol=1e-6 * np.abs(oracle).max())

    def test_a_tiny_singular_value_behind_a_unit_diagonal_goes_to_xgelsd(
            self, lstsq_designs):
        """R = I minus the strictly upper ones, at 40 columns, has every
        |r_ii| = 1 but singular values from 24.6 down to 2.7e-12: only the
        bound through inv(R) sees that the last one is below the cutoff."""
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.standard_normal((60, 40)))[0]
        H = Q @ (np.eye(40) - np.triu(np.ones((40, 40)), 1))
        Y = rng.standard_normal((60, 1))
        B = pinv_solve(H, Y)
        assert lstsq_designs == [(40, 40)]
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0,
                                   atol=1e-8 * np.abs(oracle).max())

    @pytest.mark.parametrize("diagonal", [
        [1.0, 1e-10], [2.0, 2e-10], [4.0, 3.0, 4e-10]])
    def test_truncation_boundary_diagonals_go_to_xgelsd(self, lstsq_designs,
                                                        diagonal):
        pinv_solve(np.diag(diagonal), np.ones((len(diagonal), 1)))
        assert lstsq_designs == [(len(diagonal),) * 2]

    def test_a_diagonal_just_above_the_cutoff_takes_the_qr_route(
            self, lstsq_designs):
        """Both condition bounds are tight on a diagonal: at 1e-10 (1 + 2^-50)
        the QR route's bound reads 1 - 2^-50, so it solves the design
        itself and keeps the value's direction."""
        diagonal = [1.0, 1e-10 * (1 + 2**-50)]
        B = pinv_solve(np.diag(diagonal), np.ones((2, 1)))
        assert lstsq_designs == []
        np.testing.assert_array_equal(B[:, 0], [1.0, 1.0 / diagonal[1]])

    @pytest.mark.parametrize("n, p, m", [
        (10, 20, 1),                    # wide: more columns than rows
        (40, 20, 0),                    # a target without columns
    ])
    def test_other_designs_make_one_xgelsd_call_on_the_design(
            self, lstsq_designs, n, p, m):
        rng = np.random.default_rng(n * p)
        H = rng.standard_normal((n, p))
        Y = rng.standard_normal((n, m))
        B = pinv_solve(H, Y)
        assert lstsq_designs == [(n, p)] * m
        assert B.shape == (p, m)

    def test_each_target_column_is_solved_as_if_alone(self):
        rng = np.random.default_rng(9)
        H, _ = sigmoid_design(rng, 200, 40)
        Y = rng.standard_normal((200, 3))
        B = pinv_solve(H, Y)
        for j in range(3):
            np.testing.assert_array_equal(B[:, j:j + 1],
                                          pinv_solve(H, Y[:, j:j + 1]))

    @pytest.mark.parametrize("p", DEFAULT_NODE_GRID)
    def test_agrees_with_xgelsd_within_the_condition_number(self, lstsq_designs,
                                                            p):
        """On a 399-row sigmoid layer at every node count of the default
        grid, the solution is within eps * k of xGELSD's, relative, where
        k is the condition number: the scale at which either backward
        stable solve can move it.  No node count goes to xGELSD."""
        rng = np.random.default_rng(p)
        H, X = sigmoid_design(rng, 399, p)
        y = (np.sin(2.0 * X[:, 0] + X[:, 1]) + 0.3 * np.cos(2.0 * X[:, 2]))[:, None]
        expected = np.linalg.lstsq(H, y, rcond=1e-10)[0]
        lstsq_designs.clear()
        B = pinv_solve(H, y)
        assert lstsq_designs == []
        s = np.linalg.svd(H, compute_uv=False)
        bound = np.finfo(float).eps * s[0] / s[-1] * np.linalg.norm(expected)
        assert np.linalg.norm(B - expected) <= bound

    def test_protocol_train_shaped_run_calls_xgelsd_only_below_the_crossover(
            self, lstsq_designs, tmp_path):
        """``outreg run`` on a 570-row record (399 training rows), one
        sigmoid trial of 100 members, 5-fold CV over 10 to 150 nodes: no
        crossover sends narrow designs to xGELSD any more, and the guards
        clear every fit, the five 10-node CV fits and the 5-column linear
        baseline included, so xGELSD is never called."""
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import inputs
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        manifest = inputs.write_river(inputs.river_record(1, 570, 3),
                                      tmp_path, "river", False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "activations": ["sigmoid"], "trials": 1, "members_per_trial": 100,
            "gate_percentiles": [99.0, 95.0], "master_seed": 1,
            "cv": {"folds": 5, "candidate_node_counts": [10, 20, 40, 70, 100, 150],
                   "seed": 1}}))
        assert main(["run", "--manifest", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["node_counts"] == {"sigmoid": 150}
        assert lstsq_designs == []


HIDDEN_ACTIVATIONS = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "softplus": lambda z: np.log1p(np.exp(z)),
    "radial-basis": lambda z: np.exp(-z * z),
}


def hidden_layer(rng, n, p, kind):
    """An ELM hidden layer of the textbook ``kind`` on n rows of 4 inputs
    in [-1, 1], with a smooth target of them."""
    X = rng.uniform(-1.0, 1.0, size=(n, 4))
    W = rng.uniform(-1.0, 1.0, size=(p, 4))
    b = rng.uniform(0.0, 1.0, size=p)
    y = np.sin(2.0 * X[:, 0] + X[:, 1]) + 0.3 * np.cos(2.0 * X[:, 2])
    return HIDDEN_ACTIVATIONS[kind](X @ W.T + b), y[:, None]


@pytest.fixture
def routes(monkeypatch, lstsq_designs):
    """The calls of each route made in the test, one entry per member of a
    stack: ``gram`` holds the design shape of each Gram route attempt and
    whether its guard cleared, ``qr`` the shape of each ``np.linalg.qr``
    input and ``lstsq`` each xGELSD design."""
    log = {"gram": [], "qr": [], "lstsq": lstsq_designs}
    gram, factor = numkernel._gram_solve, np.linalg.qr

    def gram_counting(H, Y, rel_tol):
        cleared, B = gram(H, Y, rel_tol)
        log["gram"].extend((H.shape[1:], bool(c)) for c in cleared)
        return cleared, B

    def qr_counting(a, *args, **kwargs):
        shape = np.shape(a)
        log["qr"].extend([shape[-2:]] * (shape[0] if len(shape) == 3 else 1))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(numkernel, "_gram_solve", gram_counting)
    monkeypatch.setattr(np.linalg, "qr", qr_counting)
    return log


def clear(routes):
    for calls in routes.values():
        calls.clear()


class TestGramRoute:
    """Designs with at least ``_GRAM_MIN_RATIO`` rows per column, however
    few their columns, are solved from their Gram matrix when its guard
    clears, with neither xGELSD nor a QR factorisation; the others take
    the QR route or xGELSD as before."""

    @pytest.mark.parametrize("n, p", [(2000, 50), (319, 40)])
    @pytest.mark.parametrize("kind", list(HIDDEN_ACTIVATIONS))
    def test_tall_design_skips_xgelsd_and_qr(self, routes, kind, n, p):
        """The solution is within eps * k * (||x|| + k ||r|| / s[0]) of
        xGELSD's x, where r is its residual and k = s[0] / s[-1]: the
        first-order sensitivity of the least-squares problem, at which
        either backward stable solve can move it.  The second term is
        needed on the radial-basis layers, where k is a few hundred and
        the two terms are of one size, for the QR route as for this one;
        uncorrected semi-normal equations exceed the bound 2-1000 times."""
        H, y = hidden_layer(np.random.default_rng(n + p), n, p, kind)
        expected = np.linalg.lstsq(H, y, rcond=1e-10)[0]
        clear(routes)
        B = pinv_solve(H, y)
        assert routes == {"gram": [((n, p), True)], "qr": [], "lstsq": []}
        s = np.linalg.svd(H, compute_uv=False)
        k = s[0] / s[-1]
        residual = np.linalg.norm(y - H @ expected)
        bound = np.finfo(float).eps * k * (np.linalg.norm(expected)
                                           + k * residual / s[0])
        assert np.linalg.norm(B - expected) <= bound

    def test_copied_columns_go_to_xgelsd_on_the_r_factor(self, routes):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((2000, 40))
        H = np.hstack([base, base[:, :10]])
        Y = rng.standard_normal((2000, 1))
        B = pinv_solve(H, Y)
        assert routes == {"gram": [((2000, 50), False)], "qr": [(2000, 51)],
                          "lstsq": [(50, 50)]}
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0, atol=1e-10)

    def test_a_design_its_cholesky_diagonal_fails_is_not_inverted_twice(
            self, routes, monkeypatch):
        """A 2000x300 sigmoid layer on 4 inputs: sum 1 / r_ii^2 alone puts
        rho far above 1/2, so the Gram route sends it on without inverting
        R, and the only inverse taken is the QR route's inv(R_H)."""
        inverted = []
        invert = numkernel._triangular_inverse
        monkeypatch.setattr(numkernel, "_triangular_inverse",
                            lambda R: inverted.append(R.shape[-2:]) or invert(R))
        H, y = hidden_layer(np.random.default_rng(17), 2000, 300, "sigmoid")
        B = pinv_solve(H, y)
        assert routes == {"gram": [((2000, 300), False)], "qr": [(2000, 301)],
                          "lstsq": []}
        assert inverted.count((300, 300)) == 1
        expected = np.linalg.lstsq(H, y, rcond=1e-10)[0]
        np.testing.assert_allclose(H @ B, H @ expected, rtol=0, atol=1e-8)

    def test_condition_number_1e7_fails_the_guard_and_takes_the_qr_route(
            self, routes):
        """k = 1e7 puts rho near k^2 (n + p) u, about 3, over the guard,
        while the QR route's bounds clear it."""
        H = known_spectrum(np.random.default_rng(13), 200, np.logspace(0.0, -7.0, 20))
        Y = np.random.default_rng(14).standard_normal((200, 1))
        clear(routes)
        B = pinv_solve(H, Y)
        assert routes == {"gram": [((200, 20), False)], "qr": [(200, 21)],
                          "lstsq": []}
        oracle = np.linalg.pinv(H, rcond=1e-10) @ Y
        np.testing.assert_allclose(B, oracle, rtol=0,
                                   atol=1e-6 * np.abs(oracle).max())

    def test_each_target_column_is_solved_as_if_alone(self, routes):
        """Joint and lone solves agree bitwise, whether the lone column is a
        strided view of the joint target or a contiguous copy; the joint
        solve runs the route once per column."""
        rng = np.random.default_rng(15)
        H, _ = hidden_layer(rng, 2000, 50, "sigmoid")
        Y = rng.standard_normal((2000, 3))
        B = pinv_solve(H, Y)
        for j in range(3):
            np.testing.assert_array_equal(B[:, j:j + 1],
                                          pinv_solve(H, Y[:, j:j + 1]))
            np.testing.assert_array_equal(B[:, j:j + 1], pinv_solve(H, Y[:, [j]]))
        assert routes["gram"] == [((2000, 50), True)] * 9
        assert routes["qr"] == routes["lstsq"] == []

    def test_protocol_train_shaped_run_forms_no_gram_for_its_member_fits(
            self, routes, tmp_path):
        """The run of ``TestSolveRouting``'s protocol-train test: its CV
        fits at 10, 20, 40 and 70 nodes on 319-320 rows and its 5-column
        linear baseline on 399 rows take the Gram route; the CV fits at 100
        and 150 nodes and the 100 member fits at 399x150, under
        ``_GRAM_MIN_RATIO`` rows per column, go straight to the QR route,
        so none of them pays for a Gram."""
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import inputs
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        manifest = inputs.write_river(inputs.river_record(1, 570, 3),
                                      tmp_path, "river", False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "activations": ["sigmoid"], "trials": 1, "members_per_trial": 100,
            "gate_percentiles": [99.0, 95.0], "master_seed": 1,
            "cv": {"folds": 5, "candidate_node_counts": [10, 20, 40, 70, 100, 150],
                   "seed": 1}}))
        assert main(["run", "--manifest", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        assert sorted(p for (_, p), _ in routes["gram"]) == (
            [5] + [10] * 5 + [20] * 5 + [40] * 5 + [70] * 5)
        assert all(cleared and n >= _GRAM_MIN_RATIO * p
                   for (n, p), cleared in routes["gram"])
        assert routes["qr"].count((399, 151)) == 100
        assert routes["lstsq"] == []


def mixed_stack(rng, n, p):
    """Five (n, p) designs: a sigmoid layer, copied columns, two singular
    values below the cutoff, R = I minus the strict upper ones (every
    |r_ii| = 1, but a smallest singular value 1e-13 of the largest at 40
    columns) and a known spectrum at condition number 1e7."""
    sigmoid, _ = sigmoid_design(rng, n, p)
    base = rng.standard_normal((n, p - 8))
    copied = np.hstack([base, base[:, :8]])
    below = known_spectrum(rng, n, np.r_[np.logspace(0.0, -8.0, p - 2), 1e-12, 1e-14])
    Q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    unit = Q @ (np.eye(p) - np.triu(np.ones((p, p)), 1))
    kappa = known_spectrum(rng, n, np.logspace(0.0, -7.0, p))
    return np.stack([sigmoid, copied, below, unit, kappa])


class TestStackedSolve:
    """A stack of designs is solved with each member's own guards: each
    member's solution is bitwise its lone solve, and only the members that
    fail a route go on to the next one."""

    @pytest.mark.parametrize("n, cleared", [
        (60, []),                                   # straight to the QR route
        (200, [True, False, False, False, False])])  # the Gram route first
    def test_members_are_solved_as_if_alone(self, routes, n, cleared):
        """The sigmoid layer takes the first route it meets; the design at
        condition number 1e7 fails the Gram guard and takes the QR route;
        the other three fail every guard, and xGELSD sees each of them
        once, on its R factor."""
        rng = np.random.default_rng(n)
        H = mixed_stack(rng, n, 40)
        Y = rng.standard_normal((5, n, 1))
        clear(routes)
        B = pinv_solve(H, Y)
        assert B.shape == (5, 40, 1)
        assert routes["gram"] == [((n, 40), c) for c in cleared]
        assert routes["qr"] == [(n, 41)] * (5 - sum(cleared))
        assert routes["lstsq"] == [(40, 40)] * 3
        for i in range(5):
            np.testing.assert_array_equal(B[i], pinv_solve(H[i], Y[i]))

    @pytest.mark.parametrize("n", [60, 200, 30])   # 30: wide, xGELSD only
    def test_each_target_column_is_solved_as_if_alone(self, n):
        rng = np.random.default_rng(n + 1)
        H = mixed_stack(rng, n, 40) if n >= 40 else rng.standard_normal((5, n, 40))
        Y = rng.standard_normal((5, n, 3))
        B = pinv_solve(H, Y)
        for j in range(3):
            np.testing.assert_array_equal(B[:, :, j:j + 1],
                                          pinv_solve(H, Y[:, :, j:j + 1]))
            for i in range(5):
                np.testing.assert_array_equal(B[i, :, j:j + 1],
                                              pinv_solve(H[i], Y[i, :, j:j + 1]))

    def test_member_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="members"):
            pinv_solve(np.ones((3, 4, 2)), np.ones((2, 4, 1)))


class TestMoments:
    def test_mean_two_point_midpoint(self):
        np.testing.assert_array_equal(
            sample_mean([[0.0, 0.0], [2.0, 4.0]]), [1.0, 2.0])

    def test_mean_single_row(self):
        np.testing.assert_array_equal(sample_mean([[3.0, -1.0]]), [3.0, -1.0])

    def test_covariance_hand_case(self):
        """Rows (0,0),(1,1) with divisor N-1 give all entries 0.5."""
        C = sample_covariance([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(C, [[0.5, 0.5], [0.5, 0.5]],
                                   rtol=0, atol=1e-15)

    def test_covariance_constant_column_is_zero(self):
        C = sample_covariance([[1.0, 2.0], [1.0, 5.0], [1.0, 8.0]])
        np.testing.assert_array_equal(C[0], [0.0, 0.0])
        np.testing.assert_array_equal(C[:, 0], [0.0, 0.0])

    def test_covariance_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 6))
        C = sample_covariance(X)
        np.testing.assert_array_equal(C, C.T)

    def test_covariance_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            C = sample_covariance(rng.normal(size=(20, 5)))
            lam = np.linalg.eigvalsh(C)
            assert lam.min() >= -1e-10 * np.trace(C)

    def test_covariance_near_identity_for_standardized_columns(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal(size=(10000, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        np.testing.assert_allclose(sample_covariance(X), np.eye(3),
                                   rtol=0, atol=0.1)

    def test_covariance_rejects_single_row(self):
        with pytest.raises(ValueError, match="two rows"):
            sample_covariance([[1.0, 2.0]])


class TestPercentile:
    def test_median_of_odd_count(self):
        assert percentile([1, 2, 3, 4, 5], 50.0) == 3.0

    def test_q100_is_maximum(self):
        assert percentile([1, 2, 3, 4], 100.0) == 4.0

    def test_interpolated_quarter(self):
        """{10,20} at q=25: position 0.25, value 10 + 0.25*10 = 12.5."""
        assert percentile([10.0, 20.0], 25.0) == 12.5

    def test_monotone_in_q(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=37)
        qs = np.linspace(0, 100, 23)
        values = [percentile(v, q) for q in qs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)


class TestColumnwiseMedian:
    def test_robust_to_extreme(self):
        np.testing.assert_array_equal(
            columnwise_median([[1.0], [2.0], [100.0]]), [2.0])

    def test_even_count_midpoint(self):
        np.testing.assert_array_equal(columnwise_median([[1.0], [3.0]]), [2.0])

    def test_two_columns(self):
        X = [[0.0, 5.0], [2.0, 7.0], [4.0, 9.0]]
        np.testing.assert_array_equal(columnwise_median(X), [2.0, 7.0])

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(15, 4))
        m = columnwise_median(X)
        for _ in range(5):
            np.testing.assert_array_equal(
                columnwise_median(X[rng.permutation(15)]), m)


class TestAverageRanks:
    def test_strictly_increasing(self):
        np.testing.assert_array_equal(average_ranks([10, 20, 30]), [1, 2, 3])

    def test_tie_pair_averaged(self):
        np.testing.assert_array_equal(average_ranks([5, 5, 9]), [1.5, 1.5, 3])

    def test_full_tie(self):
        np.testing.assert_array_equal(average_ranks([7, 7, 7, 7]),
                                      [2.5, 2.5, 2.5, 2.5])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            v = rng.integers(0, 8, size=rng.integers(1, 40)).astype(float)
            np.testing.assert_array_equal(average_ranks(v), brute_force_ranks(v))

    def test_rank_sum_identity(self):
        """Ranks always sum to n(n+1)/2, ties included."""
        rng = np.random.default_rng(31)
        for _ in range(25):
            v = rng.integers(0, 5, size=rng.integers(1, 30)).astype(float)
            assert average_ranks(v).sum() == v.size * (v.size + 1) / 2


@pytest.mark.parametrize("call, message", [
    (lambda: pinv_solve(np.zeros((0, 2)), np.zeros((0, 1))),
     "design must have at least one row"),
    (lambda: pinv_solve(np.zeros((3, 0)), np.zeros((3, 1))),
     "design must have at least one column"),
    (lambda: sample_mean(np.zeros((0, 2))), "sample_mean requires at least one row"),
    (lambda: columnwise_median(np.zeros((0, 2))),
     "columnwise_median requires at least one row"),
    (lambda: average_ranks([]), "average_ranks of an empty sequence is undefined"),
], ids=["pinv-solve-no-rows", "pinv-solve-no-columns", "sample-mean-empty",
        "columnwise-median-empty", "average-ranks-empty"])
def test_empty_input_is_refused_by_its_own_check(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
