"""Loop-based plain-numpy re-derivation of the propagation and readouts.

This is the oracle the vectorized engine is tested against. It walks edges
one at a time and follows the update formulas literally, sharing nothing
with the implementation under test except the parameter dictionary (read as
raw arrays). Intentionally slow and simple. Message and GRU weights hold
one matrix per tower along their first axis; tower t reads them at ``[t]``.
"""

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def weight(p, name, tower=None):
    """The raw array of parameter ``name``, or its matrix for one tower."""
    return p[name].data if tower is None else p[name].data[tower]


def mlp2(x, p, prefix, tower=None):
    w = lambda name: weight(p, f"{prefix}_{name}", tower)
    h = np.maximum(x @ w("w1") + w("b1"), 0.0)
    return h @ w("w2") + w("b2")


def edge_vector(eg, cfg, e_idx):
    if eg.representation == "raw_distance":
        return eg.edge_features[e_idx]
    v = np.zeros(cfg.edge_width)
    v[int(eg.edge_features[e_idx])] = 1.0
    return v


def one_message(h_far, h_near, eg, cfg, p, prefix, e_idx, tower):
    """Message of one tower along one directed edge, computed from the far
    state."""
    w = lambda name: weight(p, f"{prefix}_{name}", tower)
    if cfg.message_fn == "matmul":
        label = int(eg.edge_features[e_idx])
        return h_far @ w(f"A{label}")
    e = edge_vector(eg, cfg, e_idx)
    if cfg.message_fn == "edge_network":
        mat = mlp2(e, p, f"{prefix}_en", tower)
        d = h_far.shape[0]
        return mat.reshape(d, d) @ h_far
    if cfg.message_fn == "pair_message":
        return mlp2(np.concatenate([h_far, h_near, e]), p, f"{prefix}_pm", tower)
    hterm = h_far @ w("dtnn_wcf") + w("dtnn_b1")
    eterm = e @ w("dtnn_wdf") + w("dtnn_b2")
    return np.tanh((hterm * eterm) @ w("dtnn_wfc"))


def gru(x, h, p, prefix, tower=None):
    w = lambda name: weight(p, f"{prefix}_{name}", tower)
    z = sigmoid(x @ w("wz") + h @ w("uz"))
    r = sigmoid(x @ w("wr") + h @ w("ur"))
    hbar = np.tanh(x @ w("wh") + (r * h) @ w("uh"))
    return (1.0 - z) * h + z * hbar


def naive_propagate(eg, p, cfg, steps=None):
    """Returns (h_T, h_0, master_T, master_0) as plain arrays."""
    n = eg.n_atoms
    d = cfg.d
    h = np.zeros((n, d))
    h[:, :eg.node_features.shape[1]] = eg.node_features
    h0 = h.copy()
    k = cfg.towers_k
    dt = d // k
    T = cfg.T if steps is None else steps
    master0 = p["master_h0"].data.copy() if cfg.d_master else None
    master = master0.copy() if cfg.d_master else None

    for _ in range(T):
        new_h = np.zeros_like(h)
        for t in range(k):
            lo, hi = t * dt, (t + 1) * dt
            hs = h[:, lo:hi]
            m_in = np.zeros((n, dt))
            m_out = np.zeros((n, dt))
            for e in range(eg.n_edges):
                s, v = int(eg.edge_src[e]), int(eg.edge_dst[e])
                # Edge s->v delivers an in-channel message to v (from s's
                # state) and an out-channel message to s (from v's state).
                m_in[v] += one_message(hs[s], hs[v], eg, cfg, p, "msg_in", e, t)
                m_out[s] += one_message(hs[v], hs[s], eg, cfg, p, "msg_out", e, t)
            if cfg.d_master:
                m_in += master @ p["m2n_in"].data
                m_out += master @ p["m2n_out"].data
            if cfg.update_fn == "gru":
                for v in range(n):
                    new_h[v, lo:hi] = gru(np.concatenate([m_in[v], m_out[v]]),
                                          hs[v], p, "gru", t)
            else:
                new_h[:, lo:hi] = hs + m_in + m_out
        if cfg.d_master:
            mm_in = h.sum(axis=0) @ p["n2m_in"].data
            mm_out = h.sum(axis=0) @ p["n2m_out"].data
            if cfg.update_fn == "gru":
                master = gru(np.concatenate([mm_in, mm_out]), master, p, "master_gru")
            else:
                master = master + mm_in + mm_out
        if k > 1:
            new_h = new_h @ p["mix_w"].data + p["mix_b"].data
        h = new_h
    return h, h0, master, master0


def naive_readout(h, h0, master, master0, p, cfg):
    if cfg.readout in ("ggnn", "dtnn_sum"):
        if master is not None and cfg.master_in_readout:
            h = np.vstack([h, master.reshape(1, -1)])
            h0 = np.vstack([h0, master0.reshape(1, -1)])
        if cfg.readout == "ggnn":
            out = np.zeros(cfg.n_targets)
            for v in range(h.shape[0]):
                gate = sigmoid(mlp2(np.concatenate([h[v], h0[v]]), p, "ro_i"))
                out += gate * mlp2(h[v], p, "ro_j")
            return out
        out = np.zeros(cfg.n_targets)
        for v in range(h.shape[0]):
            out += mlp2(h[v], p, "ro_nn")
        return out
    dq = cfg.d
    mem = np.concatenate([h, h0], axis=1) @ p["s2s_proj"].data
    if master is not None and cfg.master_in_readout:
        row = np.concatenate([master.ravel(), master0.ravel()])
        mem = np.vstack([mem, row @ p["s2s_master_proj"].data])
    q = np.zeros(dq)
    q_star = np.zeros(2 * dq)
    for _ in range(cfg.set2set_M):
        q = gru(q_star, q, p, "s2s_gru")
        scores = mem @ q
        a = np.exp(scores - scores.max())
        a /= a.sum()
        r = a @ mem
        q_star = np.concatenate([q, r])
    return mlp2(q_star, p, "s2s_out")


def naive_forward(eg, p, cfg):
    h, h0, master, master0 = naive_propagate(eg, p, cfg)
    return naive_readout(h, h0, master, master0, p, cfg)
