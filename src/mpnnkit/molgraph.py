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
target use it too. The pair list is made once per atom count and shared,
read-only.

``Atom``, ``Bond`` and ``MolecularGraph`` are frozen, slotted records: a
dataset holds one of each per atom and bond, so none carries an instance
dict. Assigning to one of their fields raises ``FrozenInstanceError``;
assigning to a name that is not a field raises CPython 3.11's
``TypeError`` (from ``super()`` in the frozen ``__setattr__``, which names
the class before ``slots`` copied it). Either way nothing is written.
``encode`` builds a molecule's node features as one array, and
``featurize_atom`` is the same function applied to one atom, so the
feature layout is written once.

A molecule holds only chemical bonds. The paper's two model-only graph
elements live elsewhere: virtual edges are part of the ``chemical``
encoding, and the latent master node is one state row per graph in the
propagation engine, with the width ``ModelConfig.d_master``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .tensor import ContractError, _check_object, _integers, _is_number, _list_of, _of_type

__all__ = [
    "Atom",
    "Bond",
    "MolecularGraph",
    "EncodedGraph",
    "UnsupportedElementError",
    "ELEMENTS",
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
    "edge_alphabet_size",
    "edge_feature_width",
]


class UnsupportedElementError(ValueError):
    """Element symbol outside the supported set {H, C, N, O, F}."""


ELEMENTS = {"H": 1, "C": 6, "N": 7, "O": 8, "F": 9}

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


# The atom and bond fields ``MolecularGraph.to_dict`` writes, and the check
# of each record field. Atom and MolecularGraph turn any real number into a
# float; in JSON only int and float are numbers.
_ATOM_FIELDS = frozenset({"element", "acceptor", "donor", "aromatic",
                          "hybridization", "hydrogen_count", "partial_charge"})
_BOND_FIELDS = frozenset({"i", "j", "type", "distance"})
_OBJECTS, _LISTS, _NUMBERS = _list_of(dict), _list_of(list), _list_of(int, float)
_RECORD_CHECKS = {"atoms": _OBJECTS, "bonds": _OBJECTS,
                  "positions": lambda value: value is None or _LISTS(value),
                  "targets": lambda value: value is None or _NUMBERS(value),
                  "explicit_hydrogens": _of_type(bool)}


def _check_fields(entries: list, known: frozenset, kind: str) -> None:
    """Refuse an entry with a field outside ``known``, such as a misspelled
    one, that would otherwise be dropped in favour of the default."""
    if known.issuperset(chain.from_iterable(entries)):
        return
    idx, extra = next((idx, entry.keys() - known) for idx, entry in enumerate(entries)
                      if not known.issuperset(entry))
    raise ContractError(f"{kind} {idx} has unknown field {min(extra)!r}")


@dataclass(frozen=True, slots=True)
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
            object.__setattr__(self, "position", tuple(map(float, self.position)))
            if len(self.position) != 3:
                raise ContractError("position must be a 3-vector")

    @property
    def atomic_number(self) -> int:
        return ELEMENTS[self.element]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        """The molecule ``to_dict`` wrote. A record, atom or bond that lacks
        a field ``to_dict`` always writes or holds one it never writes, or a
        value of the wrong JSON type, raises ContractError (``Atom``,
        ``Bond`` and the molecule check their own fields)."""
        _check_object(obj, _RECORD_CHECKS, "record")
        _check_fields(obj["atoms"], _ATOM_FIELDS, "atom")
        _check_fields(obj["bonds"], _BOND_FIELDS, "bond")
        positions, targets = obj["positions"], obj["targets"]
        if positions is not None and not (
                len(positions) == len(obj["atoms"])
                and _NUMBERS(list(chain.from_iterable(positions)))):
            raise ContractError("field 'positions' is not one list of numbers per atom")
        try:
            atoms = tuple(
                Atom(element=entry["element"],
                     acceptor=entry["acceptor"],
                     donor=entry["donor"],
                     aromatic=entry["aromatic"],
                     hybridization=entry["hybridization"],
                     hydrogen_count=entry["hydrogen_count"],
                     position=None if positions is None else positions[idx],
                     partial_charge=entry.get("partial_charge"))
                for idx, entry in enumerate(obj["atoms"]))
            bonds = tuple(Bond(i=e["i"], j=e["j"], bond_type=e["type"],
                               distance=e.get("distance"))
                          for e in obj["bonds"])
        except KeyError as exc:
            # a field to_dict always writes; no atom field is a bond field
            field = exc.args[0]
            kind = "bond" if field in _BOND_FIELDS else "atom"
            idx = next(idx for idx, entry in enumerate(obj[kind + "s"]) if field not in entry)
            raise ContractError(f"{kind} {idx} is missing field {field!r}") from None
        return cls(atoms=atoms, bonds=bonds, explicit_hydrogens=obj["explicit_hydrogens"],
                   targets=targets).validate()


@dataclass(frozen=True, eq=False)
class EncodedGraph:
    """A molecule flattened into arrays the propagation engine consumes.

    Each undirected pair of nodes joined by an edge is held once, as
    ``pair_i[p]``, ``pair_j[p]`` and ``pair_features[p]``, in the order
    ``encode`` builds them; no pair has a direction. ``engine.layout``
    sends a message each way along every pair, so the graph has
    ``n_edges`` = 2P directed edges, P the pair count. ``pair_features``
    is an int label array for discrete representations and a (P, 5) float
    array for raw_distance. The constructor checks that the arrays agree
    in length, that the ends, and the labels outside raw_distance, are
    integers, and that both ends of every pair are nodes (ContractError):
    a float would truncate to another node or label, a bool read as 0 and
    1. ``virtual_edges`` says that ``encode`` appended the unbonded pairs
    to a ``chemical`` graph's bonds; it is False for the distance
    representations, which are complete graphs either way.

    An encoded graph is always one molecule. A batch of them runs as one
    graph only inside ``engine.layout``, which takes the member graphs and
    joins them, each member's pair ends shifted by the nodes before it.

    A graph's arrays are read-only once it is built, and two graphs are
    equal only if they are the same object (the hash is the identity too).
    So a graph's identity stands for its content: ``model.predict_batch``
    keeps a batch's packing by the identity of its graphs, and an edit in
    place fails (ValueError) instead of leaving a kept packing stale. An
    array that views another's writable memory is copied first, since
    that memory could still be written through its owner.
    """

    node_features: np.ndarray          # (n, d_in) float64
    pair_i: np.ndarray                 # (P,) int one end of each undirected pair
    pair_j: np.ndarray                 # (P,) int the other end
    pair_features: np.ndarray          # (P,) int labels or (P, 5) float
    representation: str
    virtual_edges: bool = False

    def __post_init__(self):
        self._check_pairs()
        self._freeze()

    def __setstate__(self, state):
        # unpickling sets the fields without __init__
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self) -> None:
        for name in ("node_features", "pair_i", "pair_j", "pair_features"):
            arr = getattr(self, name)
            if arr.base is not None and arr.flags.writeable:
                arr = arr.copy()
                object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    def _check_pairs(self) -> None:
        i, j, features = self.pair_i, self.pair_j, self.pair_features
        p = i.shape[0]
        if i.shape != (p,) or j.shape != (p,) or features.shape[:1] != (p,):
            raise ContractError(f"pair arrays disagree: {i.shape} and {j.shape} ends, "
                                f"{features.shape} features")
        _integers(i, "pair ends")
        _integers(j, "pair ends")
        if self.representation != "raw_distance":
            _integers(features, "pair labels")
        if p and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= self.n_atoms):
            raise ContractError(f"pair end outside the {self.n_atoms} nodes")

    @property
    def n_atoms(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        """The directed edges the engine sends along, two per pair."""
        return 2 * self.pair_i.shape[0]

    @cached_property
    def max_degree(self) -> int:
        """The most pairs any node is an end of, and so the most directed
        edges it has in or out, 0 with no pairs; counted on first use and
        kept."""
        ends = np.concatenate([self.pair_i, self.pair_j])
        return int(np.bincount(ends).max()) if ends.size else 0


# The column of each element's one and of each hybridization's. An atom
# without a hybridization writes its one into the hydrogen-count column,
# which the counts then overwrite, so its three columns stay zero.
_ELEMENT_COLUMN = {e: k for k, e in enumerate(ELEMENTS)}
_HYBRIDIZATION_COLUMN = {None: 12, **{h: 9 + k for k, h in enumerate(HYBRIDIZATIONS)}}


def _atom_features(atoms: Sequence[Atom], include_partial_charge: bool) -> np.ndarray:
    """The (n, width) feature matrix of ``atoms``, one row per atom, built
    as one array: the one-hots set through index arrays, the other columns
    from one list per field."""
    n = len(atoms)
    x = np.zeros((n, ATOM_FEATURE_WIDTH + bool(include_partial_charge)))
    if not n:
        return x
    rows = np.arange(n)
    x[rows, [_ELEMENT_COLUMN[a.element] for a in atoms]] = 1.0
    x[rows, [_HYBRIDIZATION_COLUMN[a.hybridization] for a in atoms]] = 1.0
    x[:, 5:9] = [(ELEMENTS[a.element], a.acceptor, a.donor, a.aromatic) for a in atoms]
    x[:, 12] = [a.hydrogen_count for a in atoms]
    if include_partial_charge:
        charges = [a.partial_charge for a in atoms]
        if None in charges:
            raise ContractError("partial charge requested but absent on atom")
        x[:, 13] = charges
    return x


def featurize_atom(a: Atom, include_partial_charge: bool = False) -> np.ndarray:
    """Fixed-width atom feature vector: row 0 of ``encode``'s feature
    matrix for a molecule of this one atom.

    Layout: one-hot(5) element, atomic number, acceptor, donor, aromatic,
    one-hot(3) hybridization (all zero when unset), hydrogen count, and the
    partial charge appended only when requested.
    """
    return _atom_features((a,), include_partial_charge)[0]


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


@lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-major i < j pair list of ``n`` atoms, made once per atom
    count. Every caller shares the arrays, so they are read-only."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_distances(positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every atom pair i < j and its distance, as arrays (i, j, dist).

    Pairs come in row-major order: (0, 1), (0, 2), ..., (1, 2), ... .
    ``i`` and ``j`` are made once per atom count and shared, so they are
    read-only; the last 64 atom counts are kept.
    Each distance is the square root of a stacked 1x3 @ 3x1 product, which
    equals the per-pair ``np.linalg.norm(pos[i] - pos[j])`` bit for bit
    (the tests compare the two); ``norm(axis=1)``, ``einsum`` and a plain
    sum of squares round about one pair in eight differently.
    """
    pos = np.asarray(positions, dtype=np.float64)
    pos = pos.reshape(len(pos), 3)
    i, j = _pair_index(len(pos))
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
    """Flatten a molecule into node features plus its undirected pairs.

    The node features are one (n, ``ATOM_FEATURE_WIDTH`` [+1]) array, its
    rows laid out as ``featurize_atom`` describes; a missing partial charge
    is refused when one is asked for. The distance representations take
    their pairs from ``pair_distances``.

    ``virtual_edges`` appends every unbonded pair to the ``chemical`` edges,
    after the bonds and in row-major order, with ``VIRTUAL_LABEL``. The
    distance representations are complete graphs already and ignore it.
    """
    if representation not in EDGE_REPRS:
        raise ContractError(f"unknown edge representation {representation!r}")
    node_features = _atom_features(g.atoms, include_partial_charge)
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

    # the graph's own copies of the pairs: the distance branch's are the
    # shared, cached list
    return EncodedGraph(node_features=node_features, pair_i=np.array(i), pair_j=np.array(j),
                        pair_features=features, representation=representation,
                        virtual_edges=virtual_edges and representation == "chemical")
