"""Acceptance suite: nine go/no-go criteria, one test and one printed
pass/fail line each (run with -s to see the lines as they complete).

Criteria 1-7 and 9 are checked mechanically at the stated tolerances.
Criterion 8 records that full-scale published numbers (3M steps, 110k
training molecules, 50-trial searches) are out of desk reach; it verifies
that the full protocol is still expressible so a long run only needs data
and compute, not code changes.
"""

import time

import numpy as np

from mpnnkit.checks import (
    GRADIENT_TOLERANCE,
    INVARIANCE_TOLERANCE,
    bench_towers,
    run_gradient_checks,
    run_invariance_checks,
)
from mpnnkit.cli import build_parser
from mpnnkit.engine import ModelConfig
from mpnnkit.model import prepare_graph
from mpnnkit.molgraph import (
    DISTANCE_BINS_ALPHABET,
    NUM_DISTANCE_BINS,
    Atom,
    MolecularGraph,
    edge_alphabet_size,
    encode,
)
from mpnnkit.spectral import GCN_TOLERANCE, SPECTRAL_TOLERANCE, run_spectral_checks
from mpnnkit.synthetic import generate_synthetic
from mpnnkit.training import (
    SearchSpace,
    TrainConfig,
    error_ratio,
    evaluate,
    split_indices,
    targets_matrix,
    train_run,
)


def check(criterion: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {description}: {detail} -> {status}")
    assert passed, f"criterion {criterion} ({description}): {detail}"


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    result = run_gradient_checks(seed=0)
    elapsed = time.monotonic() - start
    err = result["max_rel_err"]
    n_params = sum(c["params_checked"] for c in result["checks"])
    check(1, "end-to-end gradients vs central finite differences",
          err < GRADIENT_TOLERANCE and elapsed < 60.0,
          f"max rel err {err:.3e} < {GRADIENT_TOLERANCE:.0e} over "
          f"{n_params} parameters in {len(result['checks'])} configs, "
          f"{elapsed:.1f}s < 60s")


def test_criterion_2_permutation_invariance():
    start = time.monotonic()
    result = run_invariance_checks(seed=0, n_graphs=100)
    elapsed = time.monotonic() - start
    dev = result["max_deviation"]
    check(2, "outputs invariant to node relabeling",
          dev < INVARIANCE_TOLERANCE and elapsed < 120.0,
          f"max deviation {dev:.3e} < {INVARIANCE_TOLERANCE:.0e} across "
          f"{len(result['combos'])} (message, readout, towers) configs x "
          f"100 graphs, {elapsed:.1f}s < 120s")


def test_criterion_3_graph_convolution_equivalence():
    start = time.monotonic()
    result = run_spectral_checks(seed=0, n_graphs=100)
    elapsed = time.monotonic() - start
    spec, gcn = result["max_spectral_deviation"], result["max_gcn_deviation"]
    check(3, "spectral and convolutional layers as message passing",
          spec < SPECTRAL_TOLERANCE and gcn < GCN_TOLERANCE and elapsed < 30.0,
          f"spectral dev {spec:.3e} < {SPECTRAL_TOLERANCE:.0e}, normalized-adjacency dev "
          f"{gcn:.3e} < {GCN_TOLERANCE:.0e} on {result['graphs']} graphs, "
          f"{elapsed:.1f}s < 30s")


def _two_atom_graph(distance: float) -> MolecularGraph:
    return MolecularGraph(
        atoms=(Atom("C", position=(0.0, 0.0, 0.0)),
               Atom("C", position=(distance, 0.0, 0.0))),
        bonds=())


def test_criterion_4_distance_bin_contract():
    alphabet = edge_alphabet_size("distance_bins")
    in_range = True
    for g in generate_synthetic(25, seed=3):
        labels = encode(g, "distance_bins").pair_features
        in_range &= bool(np.all((labels >= 0) & (labels < alphabet)))
    at_2 = int(encode(_two_atom_graph(2.0), "distance_bins").pair_features[0])
    at_6 = int(encode(_two_atom_graph(6.0), "distance_bins").pair_features[0])
    check(4, "distance-bin edge alphabet",
          alphabet == 14 and DISTANCE_BINS_ALPHABET == 4 + NUM_DISTANCE_BINS
          and in_range and at_2 == 5 and at_6 == 13,
          f"alphabet 4 bond symbols + {NUM_DISTANCE_BINS} bins = {alphabet}, "
          f"all encoded labels in [0, {alphabet}), boundary 2.0 A -> label "
          f"{at_2} (second bin), 6.0 A -> label {at_6} (top bin)")


def test_criterion_5_towers_multiply_count():
    result = bench_towers(d=200, n=9, k=8, T=1, seed=0)
    ratio = result["multiply_ratio"]
    counts = result["message_multiplies"]
    wall = result["wall_clock_ratio"]
    check(5, "towers message-phase cost",
          ratio <= 0.15,
          f"k=8 multiplies {counts[8]} / k=1 multiplies {counts[1]} = "
          f"{ratio:.4f} <= 0.15 (theory 0.125); wall-clock ratio {wall:.2f} "
          f"(informational: small per-tower arrays are overhead-bound here)")


def test_criterion_6_learning_smoke():
    graphs = generate_synthetic(60, seed=11)
    train, valid, test = graphs[:50], graphs[50:55], graphs[55:]
    cfg = ModelConfig(message_fn="edge_network", readout="set2set", T=3,
                      d=32, n_targets=1, edge_repr="raw_distance",
                      set2set_M=3)
    tc = TrainConfig(total_steps=2000, batch_size=20, init_lr=5e-4,
                     decay_start_fraction=0.5, decay_factor=1.0, seed=0,
                     targets=0, eval_every=500)
    start = time.monotonic()
    result = train_run(train, valid, test, cfg, tc)
    # the best checkpoint's error on the whole training split
    final_mse, final_mae = evaluate(
        [prepare_graph(g, result.model_cfg) for g in train],
        result.stats.normalize(targets_matrix(train, tc.target_indices)),
        result.params, result.model_cfg, result.stats)
    elapsed = time.monotonic() - start
    initial_mse = result.history[0]["train_mse"]
    mse_ratio = final_mse / initial_mse
    mae = float(final_mae[0])
    check(6, "degree-sum learning smoke (edge network + set2set, T=3, d=32)",
          mse_ratio < 0.05 and mae < 0.1 and elapsed < 600.0,
          f"train MSE {initial_mse:.4f} -> "
          f"{final_mse:.6f} (ratio {mse_ratio:.5f} < 0.05), "
          f"final train MAE {mae:.4f} < 0.1 target units, "
          f"2000 steps in {elapsed:.0f}s < 600s")


def test_criterion_7_error_ratio_arithmetic():
    homo = error_ratio(0.04257, "homo")
    omega = error_ratio(1.9, "omega")
    check(7, "stored MAE to error-ratio arithmetic",
          abs(homo - 0.99) <= 0.005 and abs(omega - 0.19) < 1e-9,
          f"0.04257 / 0.043 = {homo:.4f} (0.99 +/- 0.005), "
          f"1.9 / 10.0 = {omega:.4f} (0.19)")


def test_criterion_8_full_scale_protocol_preserved():
    # the published numbers need ~3M steps over ~110k molecules with
    # 50-trial searches per target; that compute is out of scope, but the
    # exact protocol must be expressible without code changes
    full = TrainConfig(total_steps=3_000_000, batch_size=20, init_lr=2e-4,
                       decay_start_fraction=0.5, decay_factor=0.1, seed=0)
    tr, va, te = split_indices(130462, seed=0)
    space = SearchSpace()
    args = build_parser().parse_args(
        ["train", "--data", "qm9.jsonl", "--manifest", "m.json",
         "--out-dir", "out", "--steps", "3000000"])
    check(8, "full-scale protocol expressible (results not desk-reproducible)",
          full.total_steps == 3_000_000 and args.steps == 3_000_000
          and (len(tr), len(va), len(te)) == (110462, 10000, 10000)
          and space.t_range == (3, 8) and space.m_range == (1, 12)
          and space.lr_range == (1e-5, 5e-4)
          and space.decay_start_range == (0.1, 0.9)
          and space.decay_factor_range == (0.01, 1.0)
          and full.batch_size == 20,
          "desk runs cannot reproduce published full-dataset accuracy; "
          "--steps 3000000, the 110462/10000/10000 split, batch 20, and "
          "the documented search ranges reproduce the full protocol given "
          "data and compute")


def test_criterion_9_run_log_determinism(tmp_path):
    graphs = generate_synthetic(20, seed=4)
    tr, va, te = graphs[:12], graphs[12:16], graphs[16:]
    cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                      n_targets=1, edge_repr="chemical")

    def run(name, seed):
        path = tmp_path / f"{name}.jsonl"
        train_run(tr, va, te, cfg,
                  TrainConfig(total_steps=40, batch_size=4, init_lr=5e-4,
                              decay_factor=1.0, seed=seed, targets=0,
                              eval_every=10),
                  log_path=str(path))
        return path.read_bytes()

    same_a, same_b = run("a", seed=7), run("b", seed=7)
    other = run("c", seed=8)
    check(9, "bitwise-identical run logs for identical seed and config",
          same_a == same_b and same_a != other,
          f"two seed-7 runs agree byte for byte ({len(same_a)} bytes); "
          f"a seed-8 run differs")
