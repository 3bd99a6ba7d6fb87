"""The benchmark's workloads and the seeded generator of their inputs.

Every workload draws its molecules from ``synthetic.generate_synthetic``
with the benchmark's seed, uses T=3, target 0 and a constant learning rate
of 5e-4, and runs as a closed loop from one process: the next train step or
eval chunk starts only when the previous one has returned. The program sees
only the dataset files the harness writes with ``qm9.write_dataset``.

Step counts scale with ``--seconds``: a run makes ``TRAIN_STEPS_PER_S *
seconds`` timed train steps and ``eval_passes_per_s * seconds`` passes over
the held-out set. The rates were sized on a 2-core Xeon (numpy 2.4.6,
OpenBLAS pinned to one thread) so that at 25 s every workload times at
least 100 train steps, which leaves at least ten samples above the p90.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from mpnnkit.engine import ModelConfig
from mpnnkit.molgraph import Atom, Bond, MolecularGraph
from mpnnkit.synthetic import generate_synthetic, synthetic_targets

__all__ = ["Workload", "WORKLOADS", "POOL_SIZE", "HELD_OUT_SIZE",
           "TARGET", "LEARNING_RATE", "EVAL_CHUNK", "WARMUP_STEPS",
           "TRAIN_STEPS_PER_S",
           "expand_hydrogens", "make_inputs", "traffic"]

POOL_SIZE = 252
HELD_OUT_SIZE = 126      # two eval chunks
OVERSAMPLE = 8           # molecules generated per molecule kept
TARGET = 0
LEARNING_RATE = 5e-4
EVAL_CHUNK = 64          # as training._evaluate and cli.cmd_evaluate chunk
WARMUP_STEPS = 3
TRAIN_STEPS_PER_S = 4.8  # the batch sizes below are chosen to fit this rate
CH_BOND_LENGTH = 1.09    # angstrom
LARGE_GRAPH_NODES = 18   # QM9's explicit-H regime starts about here


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                     # one line, also in BENCHMARK.json
    model: ModelConfig
    batch_size: int
    eval_passes_per_s: float

    @property
    def explicit_hydrogens(self) -> bool:
        return self.model.explicit_hydrogens

    def train_steps(self, seconds: float) -> int:
        return max(4, round(seconds * TRAIN_STEPS_PER_S))

    def eval_passes(self, seconds: float) -> int:
        return max(1, round(seconds * self.eval_passes_per_s))


WORKLOADS = {w.name: w for w in (
    # Implicit-H molecules (3-9 atoms, mean about 6, about 34 directed
    # edges under raw_distance) with the criterion-6 config. Per-op Python
    # overhead dominates: a step records about 3300 tape entries of roughly
    # 50 us each. Batching (one graph per batch) and the cost of the per-op
    # finiteness checks show up here.
    Workload(
        name="small-edgenet",
        why="tiny implicit-H graphs, edge network + set2set at d=32: "
            "per-op Python overhead dominates, so batching and per-op "
            "check cost show up here",
        model=ModelConfig(message_fn="edge_network", readout="set2set", T=3,
                          d=32, set2set_M=3, n_targets=1,
                          edge_repr="raw_distance"),
        batch_size=20, eval_passes_per_s=0.48),
    # Each molecule expanded into explicit hydrogens (at most 29 atoms, at
    # most 9 heavy), a complete graph under raw_distance with mean about 14
    # atoms and 200 directed edges. Array work on the per-edge d x d
    # matrices dominates. Edge-network dedupe, the factored message and the
    # memory bound show up here; batching should move little. This is
    # QM9's explicit-H size regime, which the synthetic set never reaches
    # on its own. The batch is 6, not 20: at 20 a step takes about 0.5 s
    # here and the run could not time 100 steps within its budget. The
    # per-graph work is the same, because a batch is a loop over graphs.
    Workload(
        name="dense-explicit-h",
        why="explicit-H complete graphs (mean ~14 atoms, ~200 edges), edge "
            "network + ggnn at d=32: per-edge d x d matrix work and memory "
            "dominate",
        model=ModelConfig(message_fn="edge_network", readout="ggnn", T=3,
                          d=32, n_targets=1, edge_repr="raw_distance",
                          explicit_hydrogens=True),
        batch_size=6, eval_passes_per_s=0.2),
    # Implicit-H molecules with virtual edges (complete heavy-atom graphs,
    # 5 chemical labels), matmul message + dtnn_sum at d=128 with 8 towers.
    # At the same graph sizes as small-edgenet the towers path multiplies
    # the op count: k slices, k per-label message groups, k GRUs and a mix
    # per step, about 890 tape entries per graph. Towers as a batch axis
    # shows up only here; it also covers the per-label matmul and the
    # dtnn_sum readout. The batch is 5 for the same budget reason as above.
    Workload(
        name="towers-matmul",
        why="implicit-H graphs with virtual edges, matmul message + "
            "dtnn_sum, d=128 with 8 towers: the towers path multiplies the "
            "op count",
        model=ModelConfig(message_fn="matmul", readout="dtnn_sum", T=3,
                          d=128, towers_k=8, n_targets=1,
                          edge_repr="chemical", virtual_edges=True),
        batch_size=5, eval_passes_per_s=0.24),
)}


def expand_hydrogens(g: MolecularGraph,
                     rng: np.random.Generator) -> MolecularGraph:
    """The same molecule with each implicit hydrogen as its own atom.

    Each hydrogen sits one C-H bond length from its heavy atom in a random
    direction and is joined to it by a single bond. Targets are recomputed
    on the expanded graph so they stay closed-form functions of it.
    """
    atoms = [replace(a, hydrogen_count=0) for a in g.atoms]
    bonds = list(g.bonds)
    for k, heavy in enumerate(g.atoms):
        for _ in range(heavy.hydrogen_count):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            pos = np.asarray(heavy.position) + CH_BOND_LENGTH * direction
            atoms.append(Atom(element="H", position=tuple(pos)))
            bonds.append(Bond(k, len(atoms) - 1, "single",
                              distance=CH_BOND_LENGTH))
    positions = np.array([a.position for a in atoms])
    targets = synthetic_targets(atoms, bonds, positions)
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds),
                          explicit_hydrogens=True, targets=targets).validate()


def _nodes(g: MolecularGraph, explicit_hydrogens: bool) -> int:
    """Atoms the program will see for ``g``."""
    hydrogens = sum(a.hydrogen_count for a in g.atoms)
    return g.n_atoms + (hydrogens if explicit_hydrogens else 0)


def make_inputs(w: Workload, seed: int) -> tuple[list[MolecularGraph],
                                                 list[MolecularGraph]]:
    """(train pool, held-out set), the same for the same seed.

    ``OVERSAMPLE`` times as many molecules as needed are generated and
    sorted by the atom count the program will see; every ``OVERSAMPLE``-th
    is kept, and every third kept one goes to the held-out set. Both sets
    then follow the size distribution of the large sample, so the size mix
    barely moves between seeds while the molecules themselves change. Drawn
    plainly, the held-out set's mean edge count moved by about 7% from seed
    to seed, and eval time with it by up to 40%.
    """
    candidates = generate_synthetic(OVERSAMPLE * (POOL_SIZE + HELD_OUT_SIZE),
                                    seed)
    by_size = sorted(range(len(candidates)), key=lambda i: (
        _nodes(candidates[i], w.explicit_hydrogens), i))
    kept = by_size[OVERSAMPLE // 2::OVERSAMPLE]
    held = set(kept[1::3])
    # back in generation order, so batches and eval chunks mix sizes
    pool = [candidates[i] for i in sorted(kept) if i not in held]
    held_out = [candidates[i] for i in sorted(held)]
    if w.explicit_hydrogens:
        rng = np.random.default_rng([seed, 1])
        pool = [expand_hydrogens(g, rng) for g in pool]
        held_out = [expand_hydrogens(g, rng) for g in held_out]
    return pool, held_out


def _directed_edges(g: MolecularGraph, cfg: ModelConfig) -> int:
    # raw_distance and virtual edges both make the atom graph complete
    n = g.n_atoms
    if cfg.edge_repr != "chemical" or cfg.virtual_edges:
        return n * (n - 1)
    return 2 * len(g.bonds)


def traffic(w: Workload, graphs: list[MolecularGraph]) -> dict:
    """Size statistics of the inputs a workload feeds the program."""
    atoms = np.array([g.n_atoms for g in graphs])
    edges = np.array([_directed_edges(g, w.model) for g in graphs])
    return {
        "graphs": len(graphs),
        "mean_atoms": float(atoms.mean()),
        "max_atoms": int(atoms.max()),
        "mean_directed_edges": float(edges.mean()),
        f"share_ge_{LARGE_GRAPH_NODES}_nodes":
            float((atoms >= LARGE_GRAPH_NODES).mean()),
    }
