"""Spectral and renormalized-adjacency convolutions vs their message forms."""

import numpy as np
import pytest

from mpnnkit.spectral import (
    GCN_TOLERANCE,
    SPECTRAL_TOLERANCE,
    GcnLayer,
    SpectralLayer,
    gcn_as_mpnn,
    gcn_dense,
    laplacian_eigenvectors,
    normalized_laplacian,
    random_binary_graph,
    random_weighted_graph,
    run_spectral_checks,
    spectral_as_mpnn,
    spectral_layer_dense,
)
from mpnnkit.tensor import ContractError


def path3():
    return np.array([[0.0, 1.0, 0.0],
                     [1.0, 0.0, 1.0],
                     [0.0, 1.0, 0.0]])


class TestLaplacian:
    def test_symmetric_and_orthonormal_eigenvectors(self, rng):
        W = random_weighted_graph(rng, 6)
        L = normalized_laplacian(W)
        np.testing.assert_allclose(L, L.T, atol=1e-12)
        V = laplacian_eigenvectors(W)
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            normalized_laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_zero_degree_rejected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0  # node 2 isolated
        with pytest.raises(ContractError):
            normalized_laplacian(W)

    def test_sign_convention_deterministic(self, rng):
        W = random_weighted_graph(rng, 5)
        V1 = laplacian_eigenvectors(W)
        V2 = laplacian_eigenvectors(W.copy())
        np.testing.assert_array_equal(V1, V2)
        for col in range(5):
            nz = np.flatnonzero(np.abs(V1[:, col]) > 1e-12)
            assert V1[nz[0], col] > 0


class TestSpectralLayer:
    def test_identity_filters_pass_signal_through(self, rng):
        n, d = 4, 3
        W = random_weighted_graph(rng, n)
        F = np.zeros((d, d, n))
        for i in range(d):
            F[i, i] = 1.0
        layer = SpectralLayer(W=W, F=F, sigma="identity")
        x = rng.normal(size=(n, d))
        np.testing.assert_allclose(spectral_layer_dense(x, layer), x, atol=1e-10)

    def test_zero_filters(self, rng):
        W = random_weighted_graph(rng, 3)
        layer = SpectralLayer(W=W, F=np.zeros((2, 2, 3)), sigma="relu")
        x = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(spectral_layer_dense(x, layer),
                                      np.zeros((3, 2)))

    def test_single_node_both_forms(self, rng):
        W = np.array([[1.0]])  # self-weight keeps the degree positive
        F = rng.normal(size=(2, 3, 1))
        layer = SpectralLayer(W=W, F=F, sigma="identity")
        x = rng.normal(size=(1, 2))
        dense = spectral_layer_dense(x, layer)
        mpnn = spectral_as_mpnn(x, layer)
        np.testing.assert_allclose(dense, mpnn, atol=1e-12)
        # V = [[1]], so y_j = sum_i F[i, j, 0] * x_i.
        want = np.array([[sum(F[i, j, 0] * x[0, i] for i in range(2))
                          for j in range(3)]])
        np.testing.assert_allclose(dense, want, atol=1e-12)

    def test_scalar_channels_reduce_to_scalar_field(self, rng):
        W = random_weighted_graph(rng, 4)
        layer = SpectralLayer(W=W, F=rng.normal(size=(1, 1, 4)), sigma="identity")
        x = rng.normal(size=(4, 1))
        V = layer.eigenvectors
        Lt = V @ np.diag(layer.F[0, 0]) @ V.T  # (N, N) scalar field
        want = (Lt @ x[:, 0]).reshape(4, 1)
        np.testing.assert_allclose(spectral_as_mpnn(x, layer), want, atol=1e-12)

    def test_equivalence_on_random_graphs(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            layer = SpectralLayer(W=random_weighted_graph(rng, n),
                                  F=rng.normal(size=(d1, d2, n)), sigma="relu")
            x = rng.normal(size=(n, d1))
            np.testing.assert_allclose(spectral_layer_dense(x, layer),
                                       spectral_as_mpnn(x, layer), atol=SPECTRAL_TOLERANCE)


class TestGcn:
    def test_disconnected_nodes_identity(self):
        layer = GcnLayer(A=np.zeros((2, 2)), W=np.eye(3), sigma="identity")
        H = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_allclose(gcn_as_mpnn(H, layer), H, atol=1e-14)

    def test_single_edge_cross_coefficient(self):
        layer = GcnLayer(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         W=np.eye(1), sigma="identity")
        H = np.array([[1.0], [0.0]])
        # Degrees are 2 after self-loops: output_0 = h_0/2 + h_1/2.
        out = gcn_as_mpnn(H, layer)
        np.testing.assert_allclose(out, [[0.5], [0.5]], atol=1e-14)

    def test_coefficients_symmetric(self, rng):
        A = random_binary_graph(rng, 6)
        layer = GcnLayer(A=A, W=np.eye(2))
        At, deg = layer.A_tilde, layer.degrees
        C = At / np.sqrt(np.outer(deg, deg))
        np.testing.assert_allclose(C, C.T, atol=1e-14)

    def test_equivalence_on_random_graphs(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            layer = GcnLayer(A=random_binary_graph(rng, n),
                             W=rng.normal(size=(d, d2)), sigma="relu")
            H = rng.normal(size=(n, d))
            np.testing.assert_allclose(gcn_dense(H, layer),
                                       gcn_as_mpnn(H, layer), atol=GCN_TOLERANCE)


class TestCheckSuite:
    def test_full_run_is_tight_and_deterministic(self):
        r1 = run_spectral_checks(seed=7, n_graphs=30)
        r2 = run_spectral_checks(seed=7, n_graphs=30)
        assert r1 == r2
        assert r1["max_spectral_deviation"] < SPECTRAL_TOLERANCE
        assert r1["max_gcn_deviation"] < GCN_TOLERANCE
        assert r1["graphs"] == 30
        assert r1["spectral_passed"] and r1["gcn_passed"] and r1["passed"]

    def test_a_deviation_past_its_tolerance_fails_the_suite(self, monkeypatch):
        # the suite gives each layer's verdict, and its own from both
        import mpnnkit.spectral as spectral
        exact = spectral.gcn_as_mpnn
        monkeypatch.setattr(spectral, "gcn_as_mpnn",
                            lambda H, layer: exact(H, layer) + 2 * GCN_TOLERANCE)
        result = run_spectral_checks(seed=7, n_graphs=3)
        assert result["spectral_passed"]
        assert not result["gcn_passed"] and not result["passed"]
        assert result["gcn_tolerance"] == GCN_TOLERANCE
