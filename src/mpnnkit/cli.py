"""Command-line interface.

Subcommands:
  prepare       XYZ files or a synthetic generator -> dataset + split manifest
  train         one training run -> run log, checkpoint, report, metadata
  evaluate      checkpoint + dataset split -> per-target MAE / error-ratio CSV
  search        random hyperparameter search over independent trials
  bench-towers  multiply counts and wall clock with/without towers
  verify        gradient, invariance, batching, and graph-convolution check
                suites

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

from .engine import ModelConfig, param_shapes
from .model import prepare_graph
from .qm9 import (
    apply_split_manifest,
    file_sha256,
    load_bond_file,
    parse_qm9_records,
    read_dataset,
    read_split_manifest,
    record_to_graph,
    write_dataset,
    write_split_manifest,
)
from .synthetic import generate_synthetic
from .tensor import ContractError, _atomic_write, _read_json, load_params
from .training import (
    CHEMICAL_ACCURACY,
    SearchSpace,
    TargetStats,
    TrainConfig,
    error_ratio,
    evaluate,
    random_search,
    split_indices,
    targets_matrix,
    train_run,
    write_report_csv,
)

META_SCHEMA = "mpnnkit/run/v1"

# CLI spellings -> internal names
MESSAGES = {"matmul": "matmul", "edgenet": "edge_network",
            "pair": "pair_message", "dtnn": "dtnn"}
READOUTS = {"ggnn": "ggnn", "set2set": "set2set", "dtnnsum": "dtnn_sum"}
EDGE_REPRS = {"chemical": "chemical", "bins": "distance_bins",
              "raw": "raw_distance"}
UPDATES = {"gru": "gru", "dtnn-residual": "dtnn_residual"}


def _parse_targets(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"targets must be 'all' or an index, got {text!r}") from None


def _parse_messages(text: str) -> tuple[str, ...]:
    names = text.split(",")
    unknown = [m for m in names if m not in MESSAGES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown message function(s) {unknown}; choose from {sorted(MESSAGES)}")
    return tuple(MESSAGES[m] for m in names)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model")
    group.add_argument("--message", choices=sorted(MESSAGES),
                       default="edgenet", help="message function")
    group.add_argument("--readout", choices=sorted(READOUTS),
                       default="set2set", help="readout function")
    group.add_argument("--edge-repr", choices=sorted(EDGE_REPRS),
                       default="chemical", help="edge representation")
    group.add_argument("--update", choices=sorted(UPDATES), default="gru",
                       help="vertex update function")
    group.add_argument("--dim", type=int, default=32,
                       help="node state width d")
    group.add_argument("--t", type=int, default=3,
                       help="number of message passing steps T")
    group.add_argument("--set2set-m", type=int, default=3,
                       help="set2set processing steps M")
    group.add_argument("--towers", type=int, default=1, metavar="K",
                       help="split the state into K towers")
    group.add_argument("--virtual-edges", action="store_true",
                       help="connect non-bonded pairs with a virtual label")
    group.add_argument("--master-node", type=int, default=0, metavar="DIM",
                       help="attach a latent master node of this width")
    group.add_argument("--master-in-readout",
                       action=argparse.BooleanOptionalAction, default=True,
                       help="include the master state in the readout")
    group.add_argument("--include-charges", action="store_true",
                       help="append the partial charge to atom features")


def _model_config(args, explicit_hydrogens: bool) -> ModelConfig:
    return ModelConfig(
        message_fn=MESSAGES[args.message],
        update_fn=UPDATES[args.update],
        readout=READOUTS[args.readout],
        T=args.t,
        d=args.dim,
        towers_k=args.towers,
        d_master=args.master_node,
        set2set_M=args.set2set_m,
        edge_repr=EDGE_REPRS[args.edge_repr],
        explicit_hydrogens=explicit_hydrogens,
        virtual_edges=args.virtual_edges,
        include_partial_charge=args.include_charges,
        master_in_readout=args.master_in_readout,
    )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("training")
    group.add_argument("--steps", type=int, default=10000,
                       help="total optimization steps")
    group.add_argument("--batch-size", type=int, default=20)
    group.add_argument("--lr", type=float, default=1e-4,
                       help="initial learning rate")
    group.add_argument("--decay-start", type=float, default=0.5,
                       help="fraction of steps before the linear decay")
    group.add_argument("--decay-factor", type=float, default=0.1,
                       help="final lr as a fraction of the initial lr")
    group.add_argument("--targets", type=_parse_targets, default="all",
                       help="'all' or one target index to train")
    group.add_argument("--eval-every", type=int, default=1000,
                       help="validation cadence in steps")


def _train_config(args) -> TrainConfig:
    return TrainConfig(total_steps=args.steps, batch_size=args.batch_size,
                       init_lr=args.lr, decay_start_fraction=args.decay_start,
                       decay_factor=args.decay_factor, seed=args.seed,
                       targets=args.targets, eval_every=args.eval_every)


def _config_from(cls, meta: dict, block: str):
    """``cls`` built from ``meta[block]`` once every field is present and
    every value has the JSON type of its field (an int may stand for a
    float, a boolean for neither). A missing field is refused, not filled
    with its default: the run was trained with the value it had."""
    fields = meta[block]
    if not isinstance(fields, dict):
        raise ContractError(f"field {block!r} is not a JSON object")
    for field in dataclasses.fields(cls):
        if field.name not in fields:
            raise ContractError(f"{block} field {field.name!r} is missing")
    kinds = typing.get_type_hints(cls)  # an unknown field fails in cls() below
    for key, value in fields.items():
        kind = kinds.get(key, object)
        if kind is float:
            kind = (int, float)
        if (not isinstance(value, kind)
                or type(value) is bool and kind not in (bool, object)):
            raise ContractError(f"{block} field {key!r} has the wrong type: "
                                f"{value!r}")
    return cls(**fields)


def _load_splits(args):
    graphs, header = read_dataset(args.data)
    manifest = read_split_manifest(args.manifest)
    train, valid, test = apply_split_manifest(graphs, manifest,
                                              file_sha256(args.data),
                                              path=args.manifest)
    return graphs, header, manifest, (train, valid, test)


def _print_report(mae_per_target: dict[str, float]) -> None:
    print(f"{'target':<8}{'mae':>14}{'accuracy':>12}{'ratio':>8}")
    for name, mae in mae_per_target.items():
        print(f"{name:<8}{mae:>14.6f}{CHEMICAL_ACCURACY[name]:>12.4f}"
              f"{error_ratio(mae, name):>8.2f}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    if (args.xyz is None) == (args.synthetic is None):
        raise ContractError("prepare needs exactly one of --xyz or --synthetic")
    if args.synthetic is not None:
        graphs = generate_synthetic(args.synthetic, seed=args.seed)
    else:
        records = []
        for path in args.xyz:
            if os.path.isdir(path):
                names = sorted(f for f in os.listdir(path)
                               if f.endswith(".xyz"))
                paths = [os.path.join(path, f) for f in names]
            else:
                paths = [path]
            for p in paths:
                with open(p) as f:
                    records.extend(parse_qm9_records(f.read(), path=p))
        bonds = None
        if args.bond_file:
            if len(records) != 1:
                raise ContractError("--bond-file applies to a single record, "
                                    f"got {len(records)}")
            bonds = load_bond_file(args.bond_file)
        graphs = [record_to_graph(r, explicit_hydrogens=args.explicit_h,
                                  bonds=bonds) for r in records]
    n = len(graphs)
    default_size = min(10000, max(1, n // 10))
    valid_size = default_size if args.valid_size is None else args.valid_size
    test_size = default_size if args.test_size is None else args.test_size
    # rejected split sizes must leave no dataset behind
    split_indices(n, args.seed, valid_size, test_size)
    write_dataset(args.out, graphs)
    digest = file_sha256(args.out)
    manifest_path = args.manifest or args.out + ".manifest.json"
    write_split_manifest(manifest_path, n, seed=args.seed,
                         valid_size=valid_size, test_size=test_size,
                         dataset_hash=digest)
    print(f"dataset: {args.out} ({n} molecules, sha256 {digest[:12]})")
    print(f"manifest: {manifest_path} "
          f"(train {n - valid_size - test_size}, valid {valid_size}, "
          f"test {test_size}, seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    _, header, _, (train, valid, test) = _load_splits(args)
    cfg = _model_config(args, explicit_hydrogens=header["explicit_hydrogens"])
    tc = _train_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, "run.jsonl")
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    result = train_run(train, valid, test, cfg, tc, log_path=log_path,
                       checkpoint_path=ckpt_path)

    report_path = os.path.join(args.out_dir, "report.csv")
    write_report_csv(report_path, result.test_mae_per_target)
    meta = {
        "schema": META_SCHEMA,
        "model": dataclasses.asdict(result.model_cfg),
        "train": dataclasses.asdict(result.train_cfg),
        "dataset_sha256": file_sha256(args.data),
        "manifest_sha256": file_sha256(args.manifest),
        "stats": result.stats.to_dict(),
        "best_step": result.best_step,
    }
    meta_path = os.path.join(args.out_dir, "meta.json")
    _atomic_write(meta_path, json.dumps(meta, sort_keys=True, indent=2))

    print(f"run log: {log_path}")
    print(f"checkpoint: {ckpt_path} (best step {result.best_step}, "
          f"valid MAE {result.best_valid_mae:.6f})")
    print("test results:")
    _print_report(result.test_mae_per_target)
    return 0


def _check_checkpoint(path: str, params: dict, cfg: ModelConfig) -> None:
    """Refuse a checkpoint whose parameter names or shapes are not the
    model config's, naming the first parameter that differs."""
    expected = dict(param_shapes(cfg))
    where = f"{path}: checkpoint does not match the model config"
    missing = [name for name in expected if name not in params]
    if missing:
        raise ContractError(f"{where}: it lacks parameter {missing[0]!r}")
    unexpected = [name for name in params if name not in expected]
    if unexpected:
        raise ContractError(f"{where}: parameter {unexpected[0]!r} is not in the model")
    for name, shape in expected.items():
        if params[name].data.shape != shape:
            raise ContractError(f"{where}: parameter {name!r} has shape "
                                f"{params[name].data.shape}, the model needs {shape}")


def cmd_evaluate(args) -> int:
    meta = _read_json(args.meta)
    if not isinstance(meta, dict):
        raise ContractError(f"{args.meta}: metadata is not a JSON object")
    if meta.get("schema") != META_SCHEMA:
        raise ContractError(f"unknown metadata schema {meta.get('schema')!r}")
    try:
        cfg = _config_from(ModelConfig, meta, "model")
        train_cfg = _config_from(TrainConfig, meta, "train")
        stats = TargetStats.from_dict(meta["stats"])
        trained_on = ((args.data, meta["dataset_sha256"]),
                      (args.manifest, meta["manifest_sha256"]))
    except (KeyError, TypeError) as exc:
        raise ContractError(f"{args.meta}: missing or unknown field: {exc}") from None
    except ContractError as exc:
        raise ContractError(f"{args.meta}: {exc}") from None
    for path, digest in trained_on:
        if file_sha256(path) != digest:
            raise ContractError(f"{path} is not the file this run was trained with")
    indices, names = train_cfg.target_indices, train_cfg.target_names
    if list(stats.names) != names:
        raise ContractError(f"{args.meta}: stats do not match the trained targets")
    _, _, _, (train, valid, test) = _load_splits(args)
    params = load_params(args.checkpoint)
    _check_checkpoint(args.checkpoint, params, cfg)

    part = {"train": train, "valid": valid, "test": test}[args.split]

    egs = [prepare_graph(g, cfg) for g in part]
    _, mae = evaluate(egs, stats.normalize(targets_matrix(part, indices)),
                      params, cfg, stats)
    mae_per_target = {n: float(m) for n, m in zip(names, mae)}
    write_report_csv(args.out, mae_per_target)
    print(f"evaluated {len(part)} molecules from the {args.split} split")
    _print_report(mae_per_target)
    print(f"report: {args.out}")
    return 0


def cmd_search(args) -> int:
    _, header, _, (train, valid, test) = _load_splits(args)
    cfg = _model_config(args, explicit_hydrogens=header["explicit_hydrogens"])
    tc = _train_config(args)
    space = SearchSpace(message_fns=args.search_messages)
    result = random_search(space, args.trials, train, valid, test, cfg, tc,
                           seed=args.seed, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "search.json")
    payload = {
        "best_index": result.best_index,
        # a failed trial has no validation MAE: null, not Infinity
        "trials": [dict(dataclasses.asdict(t), best_valid_mae=None) if t.failed
                   else dataclasses.asdict(t) for t in result.trials],
    }
    _atomic_write(out_path, json.dumps(payload, sort_keys=True, indent=2))

    n_failed = sum(t.failed for t in result.trials)
    print(f"{len(result.trials)} trials, {n_failed} failed; "
          f"best is #{result.best_index} "
          f"(valid MAE {result.best.best_valid_mae:.6f})")
    print(f"best hyperparameters: {json.dumps(result.best.sampled, sort_keys=True)}")
    print("best trial test results:")
    _print_report(result.best.test_mae_per_target)
    print(f"results: {out_path}")
    return 0


def cmd_bench_towers(args) -> int:
    from .checks import bench_towers
    result = bench_towers(d=args.d, n=args.n, k=args.towers, T=args.t,
                          seed=args.seed)
    counts = result["message_multiplies"]
    times = result["seconds"]
    # the wall clock depends on BLAS's thread count, which this variable
    # fixes when the process starts
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    blas = ("OPENBLAS_NUM_THREADS unset: BLAS default threads" if threads is None
            else f"OPENBLAS_NUM_THREADS={threads}")
    print(f"message-phase multiplies (d={args.d}, n={args.n}, T={args.t}):")
    print(f"  k=1: {counts[1]}")
    print(f"  k={args.towers}: {counts[args.towers]}")
    print(f"  ratio: {result['multiply_ratio']:.4f} (theory {1 / args.towers:.4f})")
    print(f"wall clock per forward: k=1 {times[1] * 1e3:.2f} ms, "
          f"k={args.towers} {times[args.towers] * 1e3:.2f} ms "
          f"(ratio {result['wall_clock_ratio']:.2f}, {blas}; informational, "
          f"dominated by array sizes on this hardware)")
    return 0


def cmd_verify(args) -> int:
    from .checks import (
        BATCH_TOLERANCE,
        GRADIENT_TOLERANCE,
        INVARIANCE_TOLERANCE,
        run_batch_checks,
        run_gradient_checks,
        run_invariance_checks,
        run_spectral_checks,
    )
    failures = 0

    def report(label: str, value: float, tol: float) -> None:
        nonlocal failures
        ok = value < tol
        failures += not ok
        print(f"{label}: max deviation {value:.3e} "
              f"(tolerance {tol:.0e}) {'PASS' if ok else 'FAIL'}")

    if args.suite in ("all", "gradients"):
        result = run_gradient_checks(seed=args.seed)
        for check in result["checks"]:
            print(f"  gradient {check['label']}: rel err "
                  f"{check['max_rel_err']:.3e} "
                  f"({check['params_checked']} parameters)")
        report("gradients", result["max_rel_err"], GRADIENT_TOLERANCE)
    if args.suite in ("all", "invariance"):
        result = run_invariance_checks(seed=args.seed, n_graphs=args.graphs)
        report(f"invariance ({result['n_graphs']} graphs x "
               f"{len(result['combos'])} configs)",
               result["max_deviation"], INVARIANCE_TOLERANCE)
    if args.suite in ("all", "batching"):
        result = run_batch_checks(seed=args.seed, n_graphs=args.graphs)
        report(f"batching ({len(result['combos'])} configs, union rows vs "
               f"one graph at a time)",
               result["max_deviation"], BATCH_TOLERANCE)
    if args.suite in ("all", "spectral"):
        result = run_spectral_checks(seed=args.seed, n_graphs=args.graphs)
        report(f"spectral filter equivalence ({result['graphs']} graphs)",
               result["max_spectral_deviation"], 1e-8)
        report("graph convolution equivalence",
               result["max_gcn_deviation"], 1e-10)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpnnkit",
        description="Message passing neural networks for molecular properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a dataset file + split manifest")
    p.add_argument("--xyz", nargs="+", help="XYZ files or directories")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="generate N synthetic molecules instead of parsing")
    p.add_argument("--bond-file", help="JSON list of [i, j, order] for a "
                                       "single-record input")
    p.add_argument("--explicit-h", action="store_true",
                   help="keep hydrogens as graph nodes")
    p.add_argument("--out", required=True, help="dataset output path")
    p.add_argument("--manifest", help="manifest path "
                                      "(default: OUT.manifest.json)")
    p.add_argument("--valid-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--meta", required=True,
                   help="meta.json written by train")
    p.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="random hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--search-messages", type=_parse_messages, default="edgenet",
                   help="comma-separated message functions to sample")
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench-towers", help="towers cost instrumentation")
    p.add_argument("--d", type=int, default=200, help="node state width")
    p.add_argument("--n", type=int, default=9, help="nodes in the graph")
    p.add_argument("--towers", type=int, default=8, metavar="K")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench_towers)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", "gradients", "invariance", "batching",
                            "spectral"))
    p.add_argument("--graphs", type=int, default=100,
                   help="graphs per invariance/batching/spectral sweep")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
