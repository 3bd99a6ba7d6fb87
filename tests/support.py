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


def node_products(h: T.Tensor, stack: T.Tensor, width: int, muls: int = 0) -> T.Tensor:
    """Every node's products with a label stack, (n * L, k, width) rows, one
    per (node, label) pair, from ``T._product`` as ``T.label_message``
    makes them, taped with the rule that op applies to its U: the stack's
    gradient ``(g_U^T h)^T`` and h's g_U times the stack transposed.
    ``stack`` is (k, q, L * width); ``muls`` is the count to report."""
    n, k, q = h.data.shape
    units = stack.data.shape[2] // width if width else 0
    rows = h.data.transpose(1, 0, 2)

    def rule(g):
        g_u = g.reshape(n, units, k, width).transpose(0, 2, 1, 3).reshape(n, k, units * width)
        return ((g_u.transpose(1, 2, 0) @ rows).transpose(0, 2, 1)
                if stack.requires_grad else None,
                T._product(g_u, np.ascontiguousarray(stack.data.transpose(0, 2, 1)))
                if h.requires_grad else None)

    u = T._product(h.data, stack.data).reshape(n, k, units, width).transpose(0, 2, 1, 3)
    return T._result(u.reshape(n * units, k, width), (stack, h), rule, muls)


def per_channel_label_messages(h: T.Tensor, stacks, src, dst, labels) -> T.Tensor:
    """Both channels' label messages, each composed on its own and joined
    side by side as the update reads them: per channel, the node products
    with its own (k, q, L * q) stack (``node_products``), a gather of each
    edge's (source, label) row and a scatter onto its destination. It
    counts each channel's products at the pairs its edges read.

    This is how each channel was computed before one op sent both, with
    its bits: the oracle of ``T.label_message``'s halves, bit for bit, and
    of its multiply count, the two channels' added. ``labels`` are each
    edge's place among the stacks' labels."""
    n, k, q = h.data.shape
    units = stacks[0].data.shape[2] // q
    pairs = T.segments(np.asarray(src) * units + labels, n * units)
    if not pairs.index.size:
        return T.Tensor(np.zeros((n, k, 2 * q)))
    near = T.segments(dst, n)
    return T.concat([T.scatter_sum_rows(T.gather_rows(
        node_products(h, stack, q, pairs.widths[0] * k * q * q), pairs), near)
        for stack in stacks], axis=2)


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
    m = len(pairs)
    if representation == "raw_distance":
        feats = np.column_stack([rng.uniform(0.5, 6.0, m),
                                 rng.integers(0, 2, (m, 4)).astype(float)])
    else:
        feats = rng.integers(0, alphabet, m).astype(np.intp)
    return EncodedGraph(
        node_features=rng.normal(size=(n, d_in)),
        pair_i=np.array([p[0] for p in pairs], dtype=np.intp),
        pair_j=np.array([p[1] for p in pairs], dtype=np.intp),
        pair_features=feats,
        representation=representation,
    )


def oracle_featurize_atom(a, include_partial_charge=False) -> np.ndarray:
    """One atom's feature row, written field by field into a zero vector:
    the per-atom formula ``encode`` used before it built a molecule's
    matrix as one array. The oracle for ``featurize_atom`` and ``encode``'s
    node features."""
    from mpnnkit.molgraph import ATOM_FEATURE_WIDTH, ELEMENTS, HYBRIDIZATIONS
    from mpnnkit.tensor import ContractError

    v = np.zeros(ATOM_FEATURE_WIDTH + (1 if include_partial_charge else 0))
    v[list(ELEMENTS).index(a.element)] = 1.0
    v[5] = float(a.atomic_number)
    v[6] = float(a.acceptor)
    v[7] = float(a.donor)
    v[8] = float(a.aromatic)
    if a.hybridization is not None:
        v[9 + HYBRIDIZATIONS.index(a.hybridization)] = 1.0
    v[12] = float(a.hydrogen_count)
    if include_partial_charge:
        if a.partial_charge is None:
            raise ContractError("partial charge requested but absent on atom")
        v[13] = a.partial_charge
    return v


def oracle_encode(g, representation, include_partial_charge=False,
                  virtual_edges=False):
    """``encode`` as it was written before its feature matrix became one
    array and its pair list one per atom count: a stack of per-atom rows,
    and ``np.triu_indices`` afresh for every molecule. Returns the
    ``EncodedGraph``."""
    from mpnnkit.molgraph import (ATOM_FEATURE_WIDTH, BOND_LABELS, BOND_TYPES,
                                  VIRTUAL_LABEL, EncodedGraph, bin_distance)

    node_features = (
        np.stack([oracle_featurize_atom(a, include_partial_charge) for a in g.atoms])
        if g.atoms else np.zeros((0, ATOM_FEATURE_WIDTH + bool(include_partial_charge)))
    )
    if representation == "chemical":
        pairs = [(b.i, b.j) for b in g.bonds]
        labels = [BOND_LABELS[b.bond_type] for b in g.bonds]
        if virtual_edges:
            bonded = set(pairs) | {(j, i) for i, j in pairs}
            free = [(i, j) for i in range(g.n_atoms)
                    for j in range(i + 1, g.n_atoms) if (i, j) not in bonded]
            pairs += free
            labels += [VIRTUAL_LABEL] * len(free)
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        features = np.array(labels, dtype=np.intp)
    else:
        pos = g.positions().reshape(g.n_atoms, 3)
        i, j = np.triu_indices(len(pos), k=1)
        d = pos[i] - pos[j]
        dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        labels = np.full((g.n_atoms, g.n_atoms), -1, dtype=np.intp)
        bi, bj = [b.i for b in g.bonds], [b.j for b in g.bonds]
        labels[bi, bj] = labels[bj, bi] = [BOND_LABELS[b.bond_type] for b in g.bonds]
        bond = labels[i, j]
        free = bond < 0
        if representation == "distance_bins":
            features = bond
            features[free] = len(BOND_TYPES) + bin_distance(dist[free])
        else:
            features = np.zeros((len(dist), 5))
            features[:, 0] = dist
            features[~free, 1 + bond[~free]] = 1.0
    return EncodedGraph(node_features=node_features, pair_i=i, pair_j=j,
                        pair_features=features, representation=representation,
                        virtual_edges=virtual_edges and representation == "chemical")
