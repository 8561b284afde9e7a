"""Kernel-level tests: least squares, moments, order statistics.

Oracle strategy: pinv_solve is checked against an independently coded
eigendecomposition route (normal equations diagonalised with eigh) on
well-conditioned problems and against numpy's lstsq plus a residual /
norm optimality argument on rank-deficient ones.  Rank recovery to 1e-8
is the pinned tolerance for exact-recovery constructions; hand-computed
cases are asserted much tighter.  The truncation rule is pinned on
designs built from known singular values.
"""

import numpy as np
import pytest

from outreg import (average_ranks, columnwise_median, percentile, pinv_solve,
                    sample_covariance, sample_mean)


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
