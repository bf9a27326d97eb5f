import re

import numpy as np
import pytest

from decentrack.topology import (
    MixingMatrix,
    as_mixing,
    build_topology,
    matrix_csv,
    spectral_stats,
    validate_mixing,
)


def ring_circulant_rho(n: int) -> float:
    # independent closed form: eigenvalues of the 1/3-weighted ring are
    # (1 + 2 cos(2 pi k / n)) / 3
    eigs = np.array([(1 + 2 * np.cos(2 * np.pi * k / n)) / 3 for k in range(n)])
    eigs = np.sort(eigs)[::-1]
    return 1.0 - max(abs(eigs[1]), abs(eigs[-1]))


class TestBuildTopology:
    def test_ring_16_rows(self):
        W = build_topology("ring", 16)
        for row in W.weights:
            nz = row[row > 0]
            assert len(nz) == 3
            assert np.all(nz == 1 / 3)

    def test_ring_3_is_complete(self):
        W = build_topology("ring", 3)
        assert np.all(W.weights == 1 / 3)

    def test_torus_4x8(self):
        W = build_topology("torus", 32, grid=(4, 8))
        for row in W.weights:
            nz = row[row > 0]
            assert len(nz) == 5
            assert np.all(nz == 1 / 5)

    def test_torus_default_grid_most_square(self):
        W = build_topology("torus", 36)
        assert np.count_nonzero(W.weights[0]) == 5

    def test_dyck_rows_and_regularity(self):
        W = build_topology("dyck", 32)
        for i, row in enumerate(W.weights):
            nz = row[row > 0]
            assert len(nz) == 4
            assert np.all(nz == 1 / 4)
            assert W.degree(i) == 3

    @pytest.mark.parametrize(
        "kind,n,grid",
        [("ring", 2, None), ("dyck", 16, None), ("torus", 6, (2, 3)), ("torus", 12, (3, 5))],
    )
    def test_invalid_sizes_rejected(self, kind, n, grid):
        with pytest.raises(ValueError):
            build_topology(kind, n, grid)

    @pytest.mark.parametrize("n", [-1, 0, 8])
    def test_torus_below_nine_agents_rejected(self, n):
        with pytest.raises(ValueError, match=f"torus topology requires n >= 9, got n={n}"):
            build_topology("torus", n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("star", 8)

    def test_neighbors_symmetric_to_weights(self):
        W = build_topology("torus", 32, grid=(4, 8))
        for i in range(W.n):
            for j in W.neighbors(i):
                assert W.weights[i, j] > 0
                assert i in W.neighbors(j)


class TestSpectralStats:
    def test_uniform_matrix(self):
        n = 6
        stats = spectral_stats(as_mixing(np.full((n, n), 1 / n)))
        assert abs(stats.lambda2) < 1e-12
        assert abs(stats.rho - 1.0) < 1e-12

    def test_identity_flagged_by_zero_gap(self):
        stats = spectral_stats(as_mixing(np.eye(5)))
        assert stats.lambda2 == pytest.approx(1.0)
        assert stats.rho == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_ring_matches_circulant_closed_form(self, n):
        stats = spectral_stats(build_topology("ring", n))
        assert stats.rho == pytest.approx(ring_circulant_rho(n), abs=1e-10)

    def test_positive_gap_all_topologies(self):
        for W in (
            build_topology("ring", 16),
            build_topology("dyck", 32),
            build_topology("torus", 32, grid=(4, 8)),
        ):
            assert spectral_stats(W).rho > 0

    def test_follows_reassigned_weights(self):
        W = build_topology("ring", 16)
        assert spectral_stats(W).rho == pytest.approx(ring_circulant_rho(16), abs=1e-12)
        lazy = (np.eye(16) + W.weights) / 2
        W.weights = lazy
        stats = spectral_stats(W)
        assert stats == spectral_stats(as_mixing(lazy))
        assert stats.rho == pytest.approx(ring_circulant_rho(16) / 2, abs=1e-12)
        assert stats.rho == pytest.approx(0.0254, abs=1e-4)


class TestValidateMixing:
    def test_uniform_2x2_compliant(self):
        assert validate_mixing(np.array([[0.5, 0.5], [0.5, 0.5]])).ok

    def test_column_sum_violation(self):
        report = validate_mixing(np.array([[0.6, 0.4], [0.5, 0.5]]))
        assert any("column sums" in v for v in report.violations)

    def test_negativity_violation(self):
        report = validate_mixing(np.array([[1.2, -0.2], [-0.2, 1.2]]))
        assert any("negative weight" in v for v in report.violations)

    def test_identity_disconnected(self):
        report = validate_mixing(np.eye(4))
        assert any("not connected" in v for v in report.violations)

    def test_asymmetry_reported(self):
        report = validate_mixing(np.array([[0.5, 0.5], [0.5 + 1e-16, 0.5 - 1e-16]]))
        assert any("not symmetric" in v for v in report.violations)

    def test_connectivity_of_large_rings(self):
        ring = build_topology("ring", 1024)
        assert validate_mixing(ring).ok
        half = build_topology("ring", 512).weights
        split = np.zeros((1024, 1024))
        split[:512, :512] = split[512:, 512:] = half
        report = validate_mixing(split)
        assert report.violations == ["graph induced by positive weights is not connected"]

    def test_builtins_compliant(self):
        for W in (
            build_topology("ring", 64),
            build_topology("dyck", 32),
            build_topology("torus", 32, grid=(4, 8)),
        ):
            assert validate_mixing(W).ok

    def test_empty_matrix_reported(self):
        report = validate_mixing(np.zeros((0, 0)))
        assert report.violations == ["matrix has no agents: shape (0, 0)"]

    def test_all_nan_reported_as_non_finite(self):
        # nan > tol is False, so the sum checks alone would pass this matrix
        report = validate_mixing(np.full((3, 3), np.nan))
        assert report.violations[0] == "non-finite weight at (0, 0): nan"
        assert not any("not symmetric" in v for v in report.violations)

    def test_single_inf_weight_reported(self):
        w = np.full((3, 3), 1 / 3)
        w[1, 2] = np.inf
        report = validate_mixing(w)
        assert report.violations[0] == "non-finite weight at (1, 2): inf"


class TestAsMixing:
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_rejected_with_shape(self, shape):
        with pytest.raises(ValueError, match=f"square, got shape {re.escape(str(shape))}"):
            as_mixing(np.full(shape, 0.5))


class TestInvariants:
    @pytest.mark.parametrize(
        "W",
        [
            build_topology("ring", 16),
            build_topology("dyck", 32),
            build_topology("torus", 32, grid=(4, 8)),
        ],
        ids=["ring", "dyck", "torus"],
    )
    def test_doubly_stochastic(self, W):
        assert np.max(np.abs(W.weights.sum(axis=1) - 1)) <= 1e-12
        assert np.max(np.abs(W.weights.sum(axis=0) - 1)) <= 1e-12
        assert np.array_equal(W.weights, W.weights.T)

    def test_mixing_preserves_mean(self):
        W = build_topology("dyck", 32)
        X = np.random.default_rng(0).standard_normal((32, 7))
        assert np.max(np.abs((W.weights @ X).mean(axis=0) - X.mean(axis=0))) <= 1e-12


class TestMatrixCsv:
    def test_round_trip(self):
        W = build_topology("ring", 8)
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in matrix_csv(W).strip().splitlines()]
        )
        assert np.array_equal(parsed, W.weights)
