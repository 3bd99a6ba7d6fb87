"""Laplacian graph convolutions recast as message passing, checked numerically.

Two rewrites are implemented twice each, once in the dense matrix form and
once in the per-edge message form, so the equivalence can be verified by
direct comparison rather than by trusting either derivation:

* A spectral filter layer with per-channel-pair diagonal parameters F_ij on
  the eigenbasis of the symmetric normalized Laplacian.
* The simplified convolution with renormalized self-loop adjacency
  (H' = sigma(Dt^{-1/2} At Dt^{-1/2} H W)), whose message form uses scalar
  edge coefficients c_vw = At_vw / sqrt(deg v * deg w).

Everything here is plain numpy; nothing participates in training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import ContractError

__all__ = [
    "SpectralLayer",
    "GcnLayer",
    "normalized_laplacian",
    "laplacian_eigenvectors",
    "spectral_layer_dense",
    "spectral_as_mpnn",
    "gcn_dense",
    "gcn_as_mpnn",
    "random_weighted_graph",
    "random_binary_graph",
    "SPECTRAL_TOLERANCE",
    "GCN_TOLERANCE",
    "run_spectral_checks",
]

ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


def _check_symmetric(W: np.ndarray, what: str) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ContractError(f"{what} must be square")
    if not np.allclose(W, W.T, atol=1e-12):
        raise ContractError(f"{what} must be symmetric")
    return W


def normalized_laplacian(W: np.ndarray) -> np.ndarray:
    """L = I - D^{-1/2} W D^{-1/2}; requires every weighted degree positive."""
    W = _check_symmetric(W, "adjacency")
    deg = W.sum(axis=1)
    if np.any(deg <= 0):
        raise ContractError("normalized Laplacian needs positive degrees")
    dinv = 1.0 / np.sqrt(deg)
    return np.eye(W.shape[0]) - (dinv[:, None] * W) * dinv[None, :]


def laplacian_eigenvectors(W: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of L, columns by ascending eigenvalue.

    Sign convention: the first component of each column that exceeds 1e-12
    in magnitude is made positive, so repeated runs agree bit for bit.
    The equivalence results are basis-independent; the convention only
    pins down test fixtures.
    """
    L = normalized_laplacian(W)
    _, V = np.linalg.eigh(L)
    V = V.copy()
    for col in range(V.shape[1]):
        nz = np.flatnonzero(np.abs(V[:, col]) > 1e-12)
        if nz.size and V[nz[0], col] < 0:
            V[:, col] = -V[:, col]
    return V


@dataclass(frozen=True)
class SpectralLayer:
    """Filter bank on the Laplacian eigenbasis.

    ``F`` holds the diagonal of each filter: F[i, j] is the length-N
    diagonal of the matrix mapping input channel i to output channel j.
    """

    W: np.ndarray           # (N, N) symmetric weighted adjacency
    F: np.ndarray           # (d1, d2, N) filter diagonals
    sigma: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "W", _check_symmetric(self.W, "adjacency"))
        F = np.asarray(self.F, dtype=np.float64)
        if F.ndim != 3 or F.shape[2] != self.W.shape[0]:
            raise ContractError("filter diagonals must have shape (d1, d2, N)")
        object.__setattr__(self, "F", F)
        if self.sigma not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.sigma!r}")

    @property
    def eigenvectors(self) -> np.ndarray:
        return laplacian_eigenvectors(self.W)


def spectral_layer_dense(x: np.ndarray, layer: SpectralLayer) -> np.ndarray:
    """y_j = sigma(sum_i V diag(F_ij) V^T x_i), straight from the formula."""
    x = np.asarray(x, dtype=np.float64)
    d1, d2, N = layer.F.shape
    if x.shape != (N, d1):
        raise ContractError(f"signal must have shape ({N}, {d1})")
    V = layer.eigenvectors
    y = np.zeros((N, d2))
    for j in range(d2):
        for i in range(d1):
            y[:, j] += V @ (layer.F[i, j] * (V.T @ x[:, i]))
    return ACTIVATIONS[layer.sigma](y)


def spectral_as_mpnn(x: np.ndarray, layer: SpectralLayer) -> np.ndarray:
    """Same layer as one message passing step with dense edge matrices.

    The pairwise matrix Lt[v, w] has entries (V diag(F_ij) V^T)_{vw}; node v
    receives m_v = sum_w Lt[v, w]^T x_w and the update applies sigma.
    """
    x = np.asarray(x, dtype=np.float64)
    d1, d2, N = layer.F.shape
    if x.shape != (N, d1):
        raise ContractError(f"signal must have shape ({N}, {d1})")
    V = layer.eigenvectors
    # Lt[v, w, i, j] = sum_u V[v, u] F[i, j, u] V[w, u]
    Lt = np.einsum("vu,iju,wu->vwij", V, layer.F, V)
    y = np.zeros((N, d2))
    for v in range(N):
        m_v = np.zeros(d2)
        for w in range(N):
            m_v += Lt[v, w].T @ x[w]
        y[v] = m_v
    return ACTIVATIONS[layer.sigma](y)


@dataclass(frozen=True)
class GcnLayer:
    """Self-loop-renormalized convolution weights over a binary adjacency."""

    A: np.ndarray           # (N, N) symmetric, zero diagonal
    W: np.ndarray           # (D, D') layer weights
    sigma: str = "relu"

    def __post_init__(self):
        A = _check_symmetric(self.A, "adjacency")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.float64))
        if self.sigma not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.sigma!r}")

    @property
    def A_tilde(self) -> np.ndarray:
        return self.A + np.eye(self.A.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return self.A_tilde.sum(axis=1)


def gcn_dense(H: np.ndarray, layer: GcnLayer) -> np.ndarray:
    """sigma(Dt^{-1/2} At Dt^{-1/2} H W), the matrix form."""
    H = np.asarray(H, dtype=np.float64)
    dinv = 1.0 / np.sqrt(layer.degrees)
    norm = (dinv[:, None] * layer.A_tilde) * dinv[None, :]
    return ACTIVATIONS[layer.sigma](norm @ H @ layer.W)


def gcn_as_mpnn(H: np.ndarray, layer: GcnLayer) -> np.ndarray:
    """Per-edge form: m_v = sum_w c_vw h_w with c_vw = At_vw/sqrt(deg v deg w),
    then sigma(W^T m_v) per node."""
    H = np.asarray(H, dtype=np.float64)
    At = layer.A_tilde
    deg = layer.degrees
    N = At.shape[0]
    out = np.zeros((N, layer.W.shape[1]))
    for v in range(N):
        m_v = np.zeros(H.shape[1])
        for w in range(N):
            if At[v, w] != 0.0:
                c_vw = At[v, w] / np.sqrt(deg[v] * deg[w])
                m_v += c_vw * H[w]
        out[v] = layer.W.T @ m_v
    return ACTIVATIONS[layer.sigma](out)


# ---------------------------------------------------------------------------
# Random instances and the verification suite
# ---------------------------------------------------------------------------


def random_weighted_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric nonnegative weights, zero diagonal, no zero-degree nodes."""
    mask = rng.random((n, n)) < 0.5
    weights = rng.uniform(0.2, 2.0, (n, n))
    W = np.triu(mask * weights, k=1)
    W = W + W.T
    for v in range(n):
        if W[v].sum() == 0:
            w = (v + 1 + int(rng.integers(0, n - 1))) % n
            weight = rng.uniform(0.2, 2.0)
            W[v, w] = W[w, v] = weight
    return W


def random_binary_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    mask = np.triu(rng.random((n, n)) < 0.5, k=1).astype(float)
    return mask + mask.T


# random graphs of the checks have 2 to CHECK_MAX_NODES nodes and 1 to
# CHECK_MAX_CHANNELS channels per layer side
CHECK_MAX_NODES = 8
CHECK_MAX_CHANNELS = 4
# most absolute deviation of each message form from its dense form
SPECTRAL_TOLERANCE = 1e-8
GCN_TOLERANCE = 1e-10


def _check_graph_count(n_graphs: int) -> None:
    # every check sweep's guard: a sweep over no graphs checks nothing and must not pass
    if n_graphs < 1:
        raise ContractError(f"a check sweep needs at least one graph, got {n_graphs}")


def run_spectral_checks(seed: int = 0, n_graphs: int = 100) -> dict:
    """Compare both rewrites against their dense forms on random graphs.

    Returns the maximum absolute deviations observed, each with its
    tolerance and verdict, and ``passed`` when both are within theirs.
    """
    _check_graph_count(n_graphs)
    rng = np.random.default_rng(seed)
    worst_spectral = 0.0
    worst_gcn = 0.0
    for _ in range(n_graphs):
        n = int(rng.integers(2, CHECK_MAX_NODES + 1))
        d1 = int(rng.integers(1, CHECK_MAX_CHANNELS + 1))
        d2 = int(rng.integers(1, CHECK_MAX_CHANNELS + 1))
        spec = SpectralLayer(W=random_weighted_graph(rng, n),
                             F=rng.normal(size=(d1, d2, n)),
                             sigma="relu")
        x = rng.normal(size=(n, d1))
        dev = np.abs(spectral_layer_dense(x, spec)
                     - spectral_as_mpnn(x, spec)).max()
        worst_spectral = max(worst_spectral, float(dev))

        dd = int(rng.integers(1, CHECK_MAX_CHANNELS + 1))
        gcn = GcnLayer(A=random_binary_graph(rng, n),
                       W=rng.normal(size=(d1, dd)), sigma="relu")
        H = rng.normal(size=(n, d1))
        dev = np.abs(gcn_dense(H, gcn) - gcn_as_mpnn(H, gcn)).max()
        worst_gcn = max(worst_gcn, float(dev))
    result = {"graphs": n_graphs,
              "max_spectral_deviation": worst_spectral,
              "spectral_tolerance": SPECTRAL_TOLERANCE,
              "spectral_passed": worst_spectral < SPECTRAL_TOLERANCE,
              "max_gcn_deviation": worst_gcn,
              "gcn_tolerance": GCN_TOLERANCE,
              "gcn_passed": worst_gcn < GCN_TOLERANCE}
    return dict(result, passed=result["spectral_passed"] and result["gcn_passed"])
