"""Synthetic molecule generator with analytically exact targets.

Useful for desk-scale training runs and acceptance tests: every produced
graph respects element valences and all 13 targets are closed-form
functions of the graph, so ground truth carries no label noise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .molgraph import Atom, Bond, MolecularGraph, pair_distances
from .tensor import ContractError

__all__ = ["SYNTHETIC_TARGET_DESCRIPTIONS", "generate_synthetic", "synthetic_targets"]

VALENCE = {"C": 4, "N": 3, "O": 2}
BOND_ORDER = {"single": 1, "double": 2, "triple": 3}

SYNTHETIC_TARGET_DESCRIPTIONS = (
    "degree sum (2 x bond count, counting bond order once)",
    "number of double bonds",
    "mean pairwise distance between atoms",
    "atom count",
    "sum of atomic numbers",
    "total implicit hydrogen count",
    "maximum node degree",
    "independent cycle count (edges - atoms + 1)",
    "sum of squared node degrees",
    "mean node degree",
    "carbon count",
    "heteroatom count",
    "sum of bond orders",
)


def synthetic_targets(atoms, bonds, positions: np.ndarray) -> tuple[float, ...]:
    """The 13 closed-form targets for a generated molecule."""
    n = len(atoms)
    degree = np.zeros(n)
    for b in bonds:
        degree[b.i] += 1
        degree[b.j] += 1
    mean_dist = float(np.mean(pair_distances(positions)[2])) if n > 1 else 0.0
    n_double = sum(1 for b in bonds if b.bond_type == "double")
    return (
        float(degree.sum()),
        float(n_double),
        mean_dist,
        float(n),
        float(sum(a.atomic_number for a in atoms)),
        float(sum(a.hydrogen_count for a in atoms)),
        float(degree.max()) if n else 0.0,
        float(len(bonds) - n + 1),
        float((degree ** 2).sum()),
        float(degree.mean()) if n else 0.0,
        float(sum(1 for a in atoms if a.element == "C")),
        float(sum(1 for a in atoms if a.element not in ("C", "H"))),
        float(sum(BOND_ORDER[b.bond_type] for b in bonds)),
    )


def _one_molecule(rng: np.random.Generator) -> MolecularGraph:
    n = int(rng.integers(3, 10))
    elements = [str(rng.choice(["C", "C", "C", "N", "O"])) for _ in range(n)]
    free = [VALENCE[e] for e in elements]

    # random tree: each new atom bonds to an earlier one with free valence
    positions = np.zeros((n, 3))
    edges: list[tuple[int, int, str]] = []
    for i in range(1, n):
        candidates = [j for j in range(i) if free[j] >= 1]
        parent = int(rng.choice(candidates))
        double = (free[parent] >= 2 and free[i] >= 2 and rng.random() < 0.25)
        if double and i < n - 1:
            # a double bond must not use up the last attachment point for
            # the atoms still to come
            remaining = sum(free[:i]) + free[i] - 4
            double = remaining >= 1
        order = "double" if double else "single"
        edges.append((parent, i, order))
        used = BOND_ORDER[order]
        free[parent] -= used
        free[i] -= used
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        positions[i] = positions[parent] + 1.5 * direction + rng.normal(scale=0.05, size=3)

    # occasionally close one ring
    if n >= 4 and rng.random() < 0.4:
        existing = {(min(a, b), max(a, b)) for a, b, _ in edges}
        open_pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                      if free[i] >= 1 and free[j] >= 1
                      and (i, j) not in existing]
        if open_pairs:
            i, j = open_pairs[int(rng.integers(len(open_pairs)))]
            edges.append((i, j, "single"))
            free[i] -= 1
            free[j] -= 1

    in_double = set()
    for a, b, order in edges:
        if order == "double":
            in_double.update((a, b))
    atoms = tuple(
        Atom(element=e, hybridization=("sp2" if k in in_double else "sp3"),
             hydrogen_count=free[k],
             position=tuple(positions[k]))
        for k, e in enumerate(elements)
    )
    # every edge has a < b
    pi, pj, pd = pair_distances(positions)
    dist = np.zeros((n, n))
    dist[pi, pj] = pd
    bonds = tuple(Bond(i=a, j=b, bond_type=order, distance=float(dist[a, b]))
                  for a, b, order in edges)
    targets = synthetic_targets(atoms, bonds, positions)
    return MolecularGraph(atoms=atoms, bonds=bonds, targets=targets).validate()


def generate_synthetic(count: int, seed: int) -> list[MolecularGraph]:
    """``count`` random valence-respecting molecules with exact targets."""
    if count < 1:
        raise ContractError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return [_one_molecule(rng) for _ in range(count)]
