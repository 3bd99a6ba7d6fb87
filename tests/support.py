"""Shared test oracles and random-graph helpers, imported by the test modules
(the fixtures are in ``conftest.py``; a module of its own keeps the import
unambiguous when another test directory has a ``conftest.py`` too).

The central gradient oracle lives here: central finite differences with a
fixed step, compared against reverse-mode gradients with a relative
tolerance and an absolute floor for near-zero entries. Tests freeze expected
values from these oracles rather than from the implementation under test.
"""

import numpy as np

from mpnnkit import tensor as T
from mpnnkit.engine import is_bias

FD_STEP = 1e-3
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-8


def finite_difference_grad(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def grads_close(analytic: np.ndarray, numeric: np.ndarray,
                rel_tol: float = FD_REL_TOL, abs_floor: float = FD_ABS_FLOOR) -> bool:
    """Entrywise: pass if |a - n| <= floor, or relative error < rel_tol."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        return False
    diff = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    ok = (diff <= abs_floor) | (diff / np.where(scale == 0, 1.0, scale) < rel_tol)
    return bool(np.all(ok))


def assert_grads_close(analytic, numeric, label: str = "",
                       rel_tol: float = FD_REL_TOL, abs_floor: float = FD_ABS_FLOOR):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape, f"{label}: shape {a.shape} vs {n.shape}"
    if not grads_close(a, n, rel_tol, abs_floor):
        diff = np.abs(a - n)
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        raise AssertionError(
            f"{label}: gradient mismatch at {worst}: "
            f"analytic={a[worst]!r} numeric={n[worst]!r} |diff|={diff[worst]:.3e}"
        )


def check_grad_against_fd(build_loss, params: dict, label: str = "",
                          rel_tol: float = FD_REL_TOL, step: float = FD_STEP):
    """End-to-end gradient check for a dict of named parameter tensors.

    ``build_loss`` maps {name: Tensor} to a scalar Tensor. Reverse-mode
    gradients of one call are compared against central differences over every
    entry of every parameter.
    """
    loss = build_loss(params)
    T.backward(loss)
    analytic = {k: p.grad.copy() for k, p in params.items()}
    for k, p in params.items():
        def f_of(x, _k=k, _p=p):
            saved = _p.data.copy()
            _p.data[...] = x
            try:
                with T.no_grad():
                    return build_loss(params).item()
            finally:
                _p.data[...] = saved
        numeric = finite_difference_grad(f_of, p.data.copy(), step=step)
        assert_grads_close(analytic[k], numeric, label=f"{label}:{k}", rel_tol=rel_tol)


def jitter_biases(params, rng, scale=0.3):
    """Nudge zero-initialized biases so relu units are generically active.

    Zero biases can leave an entire hidden layer dead at initialization,
    which makes a gradient check vacuous (the true gradient of everything
    upstream is zero). Tests that do FD checks call this first.
    """
    for name, p in params.items():
        if is_bias(name):
            p.data[...] = rng.uniform(-scale, scale, size=p.data.shape)


def random_encoded(rng, n=5, d_in=4, representation="chemical", alphabet=4,
                   edge_prob=0.6, ensure_connected=False):
    """Random EncodedGraph for engine tests, built without the molecule layer."""
    from mpnnkit.molgraph import EncodedGraph

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    if ensure_connected:
        linked = {0}
        for i in range(1, n):
            j = int(rng.integers(0, i))
            if (j, i) not in pairs:
                pairs.append((j, i))
            linked.add(i)
        pairs = sorted(set(pairs))
    src = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.intp)
    dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.intp)
    m = len(pairs)
    if representation == "raw_distance":
        half = np.column_stack([rng.uniform(0.5, 6.0, m),
                                rng.integers(0, 2, (m, 4)).astype(float)])
        feats = np.concatenate([half, half], axis=0) if m else np.zeros((0, 5))
    else:
        half = rng.integers(0, alphabet, m)
        feats = np.concatenate([half, half]).astype(np.intp)
    return EncodedGraph(
        node_features=rng.normal(size=(n, d_in)),
        edge_src=src,
        edge_dst=dst,
        edge_features=feats,
        representation=representation,
    )
