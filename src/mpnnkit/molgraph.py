"""Molecular graphs and their encodings as message passing inputs.

A molecule is a list of atoms plus undirected bonds. Three edge encodings
are supported:

* ``chemical``: edges exist only where bonds do; each edge carries a
  discrete label (single/double/triple/aromatic). With ``virtual_edges``
  every unbonded pair is an edge too, with ``VIRTUAL_LABEL``.
* ``distance_bins``: fully connected; bonded pairs keep their bond label,
  unbonded pairs get 4 + a distance bin, giving an alphabet of 14 symbols.
* ``raw_distance``: fully connected; each edge carries the 5-vector
  [distance, one-hot(4) bond type], all-zero one-hot for unbonded pairs.

Both distance encodings enumerate atom pairs through ``pair_distances``,
which fixes the pair order (i < j, row-major) and the distance formula;
bond perception (``qm9.infer_bonds``) and the synthetic mean-distance
target use it too.

A molecule holds only chemical bonds. The paper's two model-only graph
elements live elsewhere: virtual edges are part of the ``chemical``
encoding, and the latent master node is one state row per graph in the
propagation engine, with the width ``ModelConfig.d_master``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .tensor import ContractError

__all__ = [
    "Atom",
    "Bond",
    "MolecularGraph",
    "EncodedGraph",
    "UnsupportedElementError",
    "ELEMENTS",
    "HEAVY_ELEMENTS",
    "BOND_TYPES",
    "BOND_LABELS",
    "VIRTUAL_LABEL",
    "HYBRIDIZATIONS",
    "TARGET_NAMES",
    "EDGE_REPRS",
    "ATOM_FEATURE_WIDTH",
    "NUM_DISTANCE_BINS",
    "DISTANCE_BINS_ALPHABET",
    "featurize_atom",
    "bin_distance",
    "pair_distances",
    "encode",
    "disjoint_union",
    "edge_alphabet_size",
    "edge_feature_width",
]


class UnsupportedElementError(ValueError):
    """Element symbol outside the supported set {H, C, N, O, F}."""


ELEMENTS = {"H": 1, "C": 6, "N": 7, "O": 8, "F": 9}
HEAVY_ELEMENTS = frozenset(e for e in ELEMENTS if e != "H")

BOND_TYPES = ("single", "double", "triple", "aromatic")
BOND_LABELS = {t: i for i, t in enumerate(BOND_TYPES)}
VIRTUAL_LABEL = 4

HYBRIDIZATIONS = ("sp", "sp2", "sp3")

# Fixed property order used by targets vectors, reports, and the CLI.
TARGET_NAMES = ("mu", "alpha", "homo", "lumo", "gap", "r2", "zpve",
                "u0", "u", "h", "g", "cv", "omega")

EDGE_REPRS = ("chemical", "distance_bins", "raw_distance")

# one-hot(5) element + atomic number + acceptor + donor + aromatic
# + one-hot-or-zero(3) hybridization + hydrogen count
ATOM_FEATURE_WIDTH = 13

NUM_DISTANCE_BINS = 10
DISTANCE_BINS_ALPHABET = len(BOND_TYPES) + NUM_DISTANCE_BINS  # 14


def _is_number(value) -> bool:
    """An int or a float; a boolean is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Exact JSON types. ``issuperset`` over a ``map`` checks a list without
# building a set of its types.
_DICT, _LIST, _NUMBER = frozenset({dict}), frozenset({list}), frozenset({int, float})


def _is_list_of(value, kinds: frozenset) -> bool:
    """A list whose items all have one of ``kinds`` as their exact type."""
    return type(value) is list and kinds.issuperset(map(type, value))


# The atom and bond fields ``MolecularGraph.to_dict`` writes.
_ATOM_FIELDS = frozenset({"element", "acceptor", "donor", "aromatic",
                          "hybridization", "hydrogen_count", "partial_charge"})
_BOND_FIELDS = frozenset({"i", "j", "type", "distance"})
_RECORD_FIELDS = frozenset({"atoms", "bonds", "positions", "targets",
                            "explicit_hydrogens"})


def _check_fields(entries: list, known: frozenset, kind: str) -> None:
    """Refuse an entry with a field outside ``known``, such as a misspelled
    one, that would otherwise be dropped in favour of the default."""
    if known.issuperset(chain.from_iterable(entries)):
        return
    idx, extra = next((idx, entry.keys() - known) for idx, entry in enumerate(entries)
                      if not known.issuperset(entry))
    raise ContractError(f"{kind} {idx} has unknown field {min(extra)!r}")


@dataclass(frozen=True)
class Atom:
    element: str
    acceptor: bool = False
    donor: bool = False
    aromatic: bool = False
    hybridization: Optional[str] = None  # sp, sp2, sp3, or None
    hydrogen_count: int = 0
    position: Optional[tuple[float, float, float]] = None
    partial_charge: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.element, str) or self.element not in ELEMENTS:
            raise UnsupportedElementError(f"unsupported element {self.element!r}")
        if (type(self.acceptor) is not bool or type(self.donor) is not bool
                or type(self.aromatic) is not bool):
            raise ContractError("atom fields 'acceptor', 'donor' and 'aromatic' "
                                "must be booleans, got "
                                f"{(self.acceptor, self.donor, self.aromatic)!r}")
        if self.hybridization is not None and self.hybridization not in HYBRIDIZATIONS:
            raise ContractError(f"unknown hybridization {self.hybridization!r}")
        if type(self.hydrogen_count) is not int or self.hydrogen_count < 0:
            raise ContractError("atom field 'hydrogen_count' must be a nonnegative "
                                f"integer, got {self.hydrogen_count!r}")
        if self.partial_charge is not None and not _is_number(self.partial_charge):
            raise ContractError("atom field 'partial_charge' must be a number, "
                                f"got {self.partial_charge!r}")
        if self.position is not None:
            object.__setattr__(self, "position", tuple(float(c) for c in self.position))
            if len(self.position) != 3:
                raise ContractError("position must be a 3-vector")

    @property
    def atomic_number(self) -> int:
        return ELEMENTS[self.element]


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    bond_type: str
    distance: Optional[float] = None

    def __post_init__(self):
        if self.bond_type not in BOND_TYPES:
            raise ContractError(f"unknown bond type {self.bond_type!r}")
        if type(self.i) is not int or type(self.j) is not int:
            raise ContractError("bond fields 'i' and 'j' must be integers, got "
                                f"({self.i!r}, {self.j!r})")
        if self.distance is not None and not _is_number(self.distance):
            raise ContractError("bond field 'distance' must be a number, got "
                                f"{self.distance!r}")
        if self.i == self.j:
            raise ContractError("bond endpoints must be distinct")
        if self.i < 0 or self.j < 0:
            raise ContractError("bond endpoints must be nonnegative node ids")
        if self.distance is not None and self.distance < 0:
            raise ContractError("bond distance must be nonnegative")


@dataclass(frozen=True)
class MolecularGraph:
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    explicit_hydrogens: bool = False
    targets: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        if type(self.explicit_hydrogens) is not bool:
            raise ContractError("field 'explicit_hydrogens' must be a boolean, got "
                                f"{self.explicit_hydrogens!r}")
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def positions(self) -> np.ndarray:
        """Stacked atom coordinates; raises when any are missing."""
        if any(a.position is None for a in self.atoms):
            raise ContractError("graph has atoms without positions")
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def validate(self) -> "MolecularGraph":
        n = self.n_atoms
        seen: set[frozenset[int]] = set()
        for b in self.bonds:
            if b.i >= n or b.j >= n:
                raise ContractError(f"bond ({b.i},{b.j}) references a missing node")
            key = frozenset((b.i, b.j))
            if key in seen:
                raise ContractError(f"duplicate bond between {b.i} and {b.j}")
            seen.add(key)
        if self.heavy_atom_count() > 9:
            raise ContractError("more than 9 heavy atoms")
        if self.explicit_hydrogens:
            if self.n_atoms > 29:
                raise ContractError("more than 29 explicit-hydrogen nodes")
            if any(a.hydrogen_count for a in self.atoms):
                raise ContractError("hydrogen_count must be 0 with explicit hydrogens")
        if self.targets is not None and len(self.targets) != len(TARGET_NAMES):
            raise ContractError(f"targets must have {len(TARGET_NAMES)} entries")
        return self

    # -- serialization (one JSON object per molecule) -----------------------

    def to_dict(self) -> dict:
        atoms = []
        for a in self.atoms:
            entry = {
                "element": a.element,
                "acceptor": a.acceptor,
                "donor": a.donor,
                "aromatic": a.aromatic,
                "hybridization": a.hybridization,
                "hydrogen_count": a.hydrogen_count,
            }
            if a.partial_charge is not None:
                entry["partial_charge"] = a.partial_charge
            atoms.append(entry)
        bonds = []
        for b in self.bonds:
            entry = {"i": b.i, "j": b.j, "type": b.bond_type}
            if b.distance is not None:
                entry["distance"] = b.distance
            bonds.append(entry)
        have_pos = all(a.position is not None for a in self.atoms) and self.atoms
        return {
            "atoms": atoms,
            "bonds": bonds,
            "positions": [list(a.position) for a in self.atoms] if have_pos else None,
            "targets": list(self.targets) if self.targets is not None else None,
            "explicit_hydrogens": self.explicit_hydrogens,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MolecularGraph":
        """The molecule ``to_dict`` wrote. A missing field raises KeyError,
        one of the wrong JSON type, or a record, atom or bond field
        ``to_dict`` does not write, ContractError (``Atom``, ``Bond`` and the
        molecule check their own fields)."""
        extra = obj.keys() - _RECORD_FIELDS
        if extra:
            raise ContractError(f"record has unknown field {min(extra)!r}")
        for key in ("atoms", "bonds"):
            if not _is_list_of(obj[key], _DICT):
                raise ContractError(f"field {key!r} is not a list of JSON objects")
        _check_fields(obj["atoms"], _ATOM_FIELDS, "atom")
        _check_fields(obj["bonds"], _BOND_FIELDS, "bond")
        # Atom and MolecularGraph turn any real number into a float; in
        # JSON only int and float are numbers.
        positions = obj.get("positions")
        if positions is not None and not (
                _is_list_of(positions, _LIST) and len(positions) == len(obj["atoms"])
                and _NUMBER.issuperset(map(type, chain.from_iterable(positions)))):
            raise ContractError("field 'positions' is not one list of numbers per atom")
        targets = obj.get("targets")
        if targets is not None and not _is_list_of(targets, _NUMBER):
            raise ContractError("field 'targets' is not a list of numbers")
        atoms = tuple(
            Atom(element=entry["element"],
                 acceptor=entry.get("acceptor", False),
                 donor=entry.get("donor", False),
                 aromatic=entry.get("aromatic", False),
                 hybridization=entry.get("hybridization"),
                 hydrogen_count=entry.get("hydrogen_count", 0),
                 position=None if positions is None else positions[idx],
                 partial_charge=entry.get("partial_charge"))
            for idx, entry in enumerate(obj["atoms"]))
        bonds = tuple(Bond(i=e["i"], j=e["j"], bond_type=e["type"],
                           distance=e.get("distance"))
                      for e in obj["bonds"])
        return cls(atoms=atoms, bonds=bonds,
                   explicit_hydrogens=obj.get("explicit_hydrogens", False),
                   targets=targets).validate()


@dataclass(frozen=True)
class EncodedGraph:
    """A molecule flattened into arrays the propagation engine consumes.

    Edges are directed and cover both orientations of every undirected pair,
    with the same features (the edge network builds one matrix per pair and
    refuses a graph whose orientations differ). ``edge_features`` is an int
    label array for discrete representations and an (m, 5) float array for
    raw_distance.

    ``disjoint_union`` packs several encoded graphs into one; its
    ``node_graph`` names the member graph of every node. A lone molecule
    leaves it None and counts as one graph.
    """

    node_features: np.ndarray          # (n, d_in) float64
    edge_src: np.ndarray               # (m,) int source node per directed edge
    edge_dst: np.ndarray               # (m,) int destination node
    edge_features: np.ndarray          # (m,) int labels or (m, 5) float
    representation: str
    node_graph: Optional[np.ndarray] = None   # (n,) member graph per node
    n_graphs: int = 1

    @property
    def n_atoms(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_src.shape[0]


def disjoint_union(egs: Sequence[EncodedGraph]) -> EncodedGraph:
    """Several encoded graphs as one graph with no edges between members.

    Node and edge arrays are concatenated in order, and each member's edge
    endpoints are shifted by the number of nodes before it. Every operation
    of the engine and the readouts acts row by row, or sums rows per member
    graph, so member i's outputs are the ones it gets alone.
    """
    if not egs:
        raise ContractError("union of no graphs")
    first = egs[0]
    for eg in egs:
        if eg.node_graph is not None:
            raise ContractError("graphs in a union must not be unions")
        if eg.representation != first.representation:
            raise ContractError("graphs in a union must share edge representation")
    atoms = np.array([eg.n_atoms for eg in egs])
    edges = np.array([eg.n_edges for eg in egs])
    shift = np.repeat(np.cumsum(atoms) - atoms, edges)
    with_edges = [eg.edge_features for eg in egs if eg.n_edges] or [first.edge_features]
    return EncodedGraph(
        node_features=np.concatenate([eg.node_features for eg in egs], axis=0),
        edge_src=np.concatenate([eg.edge_src for eg in egs]).astype(np.intp) + shift,
        edge_dst=np.concatenate([eg.edge_dst for eg in egs]).astype(np.intp) + shift,
        edge_features=np.concatenate(with_edges, axis=0),
        representation=first.representation,
        node_graph=np.repeat(np.arange(len(egs)), atoms),
        n_graphs=len(egs),
    )


def featurize_atom(a: Atom, include_partial_charge: bool = False) -> np.ndarray:
    """Fixed-width atom feature vector.

    Layout: one-hot(5) element, atomic number, acceptor, donor, aromatic,
    one-hot(3) hybridization (all zero when unset), hydrogen count, and the
    partial charge appended only when requested.
    """
    if a.element not in ELEMENTS:
        raise UnsupportedElementError(f"unsupported element {a.element!r}")
    width = ATOM_FEATURE_WIDTH + (1 if include_partial_charge else 0)
    v = np.zeros(width)
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


def bin_distance(dist):
    """Distance bin: [0,2) -> 0, eight 0.5-wide bins over [2,6) -> 1..8,
    [6,inf) -> 9. Boundary points belong to the upper bin.

    Takes a float (returns an int) or an array (returns an intp array of
    the same shape); negative or non-finite distances are rejected.
    """
    d = np.asarray(dist, dtype=np.float64)
    if (d < 0).any():
        raise ContractError("distance must be nonnegative")
    if not np.isfinite(d).all():
        raise ContractError("distance must be finite")
    bins = (1 + (np.clip(d, 1.5, 6.0) - 2.0) // 0.5).astype(np.intp)
    return int(bins) if bins.ndim == 0 else bins


def pair_distances(positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every atom pair i < j and its distance, as arrays (i, j, dist).

    Pairs come in row-major order: (0, 1), (0, 2), ..., (1, 2), ... .
    Each distance is the square root of a stacked 1x3 @ 3x1 product, which
    equals the per-pair ``np.linalg.norm(pos[i] - pos[j])`` bit for bit
    (the tests compare the two); ``norm(axis=1)``, ``einsum`` and a plain
    sum of squares round about one pair in eight differently.
    """
    pos = np.asarray(positions, dtype=np.float64)
    pos = pos.reshape(len(pos), 3)
    i, j = np.triu_indices(len(pos), k=1)
    d = pos[i] - pos[j]
    return i, j, np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def edge_alphabet_size(representation: str, virtual_edges: bool = False) -> int:
    """Number of discrete edge labels a model must allocate matrices for."""
    if representation == "chemical":
        return len(BOND_TYPES) + (1 if virtual_edges else 0)
    if representation == "distance_bins":
        return DISTANCE_BINS_ALPHABET
    raise ContractError(f"representation {representation!r} has no discrete alphabet")


def edge_feature_width(representation: str, virtual_edges: bool = False) -> int:
    """Width of the continuous edge vector (one-hot width for discrete labels)."""
    if representation == "raw_distance":
        return 5
    return edge_alphabet_size(representation, virtual_edges)


def encode(g: MolecularGraph, representation: str,
           include_partial_charge: bool = False,
           virtual_edges: bool = False) -> EncodedGraph:
    """Flatten a molecule into node features plus a directed edge list.

    ``virtual_edges`` appends every unbonded pair to the ``chemical`` edges,
    after the bonds and in row-major order, with ``VIRTUAL_LABEL``. The
    distance representations are complete graphs already and ignore it.
    """
    if representation not in EDGE_REPRS:
        raise ContractError(f"unknown edge representation {representation!r}")
    node_features = (
        np.stack([featurize_atom(a, include_partial_charge) for a in g.atoms])
        if g.atoms else np.zeros((0, ATOM_FEATURE_WIDTH + bool(include_partial_charge)))
    )
    if representation == "chemical":
        pairs = [(b.i, b.j) for b in g.bonds]
        labels = [BOND_LABELS[b.bond_type] for b in g.bonds]
        if virtual_edges:
            # a set beats an n x n label matrix up to QM9's 9 heavy atoms
            bonded = set(pairs) | {(j, i) for i, j in pairs}
            free = [(i, j) for i in range(g.n_atoms)
                    for j in range(i + 1, g.n_atoms) if (i, j) not in bonded]
            pairs += free
            labels += [VIRTUAL_LABEL] * len(free)
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        features = np.array(labels, dtype=np.intp)
    else:
        i, j, dist = pair_distances(g.positions())
        # bond label per atom pair, -1 where there is none
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

    # Both orientations of every undirected pair, features duplicated.
    return EncodedGraph(
        node_features=node_features,
        edge_src=np.concatenate([i, j]),
        edge_dst=np.concatenate([j, i]),
        edge_features=np.concatenate([features, features]),
        representation=representation,
    )
