"""Message passing neural networks for molecular property prediction.

A self-contained toolkit: a float64 reverse-mode autodiff core, molecular
graph featurization, the message passing engine (message functions, GRU
updates, towers, master node), order-invariant readouts, numerical bridges
showing spectral/convolutional graph layers are message passing instances,
and a training harness with random hyperparameter search.
"""

from .engine import ModelConfig, init_params, param_shapes, propagate
from .model import model_forward, predict_batch, prepare_graph
from .molgraph import (
    TARGET_NAMES,
    Atom,
    Bond,
    EncodedGraph,
    MolecularGraph,
    disjoint_union,
    encode,
    featurize_atom,
)
from .qm9 import (
    Qm9Record,
    infer_bonds,
    parse_qm9_records,
    parse_qm9_xyz,
    read_dataset,
    record_to_graph,
    write_dataset,
)
from .readout import apply_readout
from .spectral import run_spectral_checks
from .synthetic import generate_synthetic
from .tensor import (
    ContractError,
    DimensionError,
    NumericError,
    Tensor,
    backward,
    load_params,
    no_grad,
    save_params,
)
from .training import (
    CHEMICAL_ACCURACY,
    Adam,
    SearchSpace,
    TargetStats,
    TrainConfig,
    error_ratio,
    random_search,
    split_dataset,
    train_run,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Atom",
    "Bond",
    "CHEMICAL_ACCURACY",
    "ContractError",
    "DimensionError",
    "EncodedGraph",
    "ModelConfig",
    "MolecularGraph",
    "NumericError",
    "Qm9Record",
    "SearchSpace",
    "TARGET_NAMES",
    "TargetStats",
    "Tensor",
    "TrainConfig",
    "apply_readout",
    "backward",
    "disjoint_union",
    "encode",
    "error_ratio",
    "featurize_atom",
    "generate_synthetic",
    "infer_bonds",
    "init_params",
    "load_params",
    "model_forward",
    "no_grad",
    "param_shapes",
    "parse_qm9_records",
    "parse_qm9_xyz",
    "predict_batch",
    "prepare_graph",
    "propagate",
    "random_search",
    "read_dataset",
    "record_to_graph",
    "run_spectral_checks",
    "save_params",
    "split_dataset",
    "train_run",
    "write_dataset",
    "__version__",
]
