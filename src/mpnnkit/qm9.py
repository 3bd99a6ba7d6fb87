"""Extended-XYZ parsing for QM9-style records and dataset file formats.

A record looks like::

    5
    gdb 1\t157.7  157.7  157.7  0.0  13.21  -0.3877  0.1171  ...  6.469
    C\t-0.0127\t 1.0858\t 0.0080\t-0.535689
    H\t 0.0022\t-0.0060\t 0.0020\t 0.133921
    ...
    1341.307  1341.308  1341.309  ...
    C  C
    InChI=1S/CH4/h1H4 InChI=1S/CH4/h1H4

Line 1 is the atom count, line 2 carries a tag, an id, and 15 properties
(three rotational constants which we discard, then the 12 regression
targets), then one line per atom (element, x, y, z, partial charge in
Ångström / e), the harmonic frequencies, a SMILES line, and an InChI
line. Some distributions write floats like ``1.6115*^-10``; the ``*^``
exponent marker is normalized to ``e`` before conversion.

Bond perception: the files carry no connectivity, so bonds default to a
covalent-radius rule (bonded iff distance < r(a) + r(b) + 0.4 Å, single
order) unless a companion bond file supplies exact orders. This is a
documented approximation, not part of the file format.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .molgraph import (
    BOND_TYPES,
    ELEMENTS,
    Atom,
    Bond,
    MolecularGraph,
    UnsupportedElementError,
    pair_distances,
)
from .tensor import (ContractError, _atomic_write, _check_object, _list_of, _of_type,
                     _read_json, _refuse_constant)

__all__ = [
    "COVALENT_RADII",
    "BOND_TOLERANCE",
    "DATASET_SCHEMA",
    "MANIFEST_SCHEMA",
    "ParseError",
    "Qm9Record",
    "parse_qm9_xyz",
    "parse_qm9_records",
    "infer_bonds",
    "load_bond_file",
    "record_to_graph",
    "write_dataset",
    "read_dataset",
    "file_sha256",
    "write_split_manifest",
    "read_split_manifest",
    "apply_split_manifest",
]

# Single-bond covalent radii in Angstrom for the supported elements.
COVALENT_RADII = {"H": 0.32, "C": 0.75, "N": 0.71, "O": 0.63, "F": 0.64}
BOND_TOLERANCE = 0.4

DATASET_SCHEMA = "mpnnkit/dataset/v1"
MANIFEST_SCHEMA = "mpnnkit/split/v1"

N_PROPERTIES = 15
N_ROTATIONAL = 3  # leading rotational constants A, B, C, not regression targets


class ParseError(ValueError):
    """Malformed record; the message names the offending 1-based line."""


def _fail(lineno: int, message: str) -> "ParseError":
    return ParseError(f"line {lineno}: {message}")


def _float(token: str, lineno: int) -> float:
    try:
        value = float(token.replace("*^", "e"))
    except ValueError:
        raise _fail(lineno, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise _fail(lineno, f"not a finite number: {token!r}")
    return value


@dataclass(frozen=True)
class Qm9Record:
    tag: str
    index: int
    elements: tuple[str, ...]
    positions: tuple[tuple[float, float, float], ...]
    charges: tuple[float, ...]
    properties: tuple[float, ...]     # 15 values; first three are A, B, C
    frequencies: tuple[float, ...]
    smiles: str
    inchi: str

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    @property
    def omega1(self) -> float:
        return max(self.frequencies)

    @property
    def targets(self) -> tuple[float, ...]:
        return self.properties[N_ROTATIONAL:] + (self.omega1,)


def _parse_one(lines: list[str], start: int) -> tuple[Qm9Record, int]:
    """Parse one record from ``lines`` beginning at index ``start``.

    Returns the record and the index one past its final line. Line numbers
    in errors are 1-based over the whole text.
    """
    ln = start + 1  # 1-based for messages
    if start >= len(lines):
        raise _fail(ln, "expected an atom count, found end of input")
    head = lines[start].split()
    if len(head) != 1:
        raise _fail(ln, f"expected a bare atom count, got {lines[start]!r}")
    try:
        n = int(head[0])
    except ValueError:
        raise _fail(ln, f"atom count is not an integer: {head[0]!r}") from None
    if n < 1:
        raise _fail(ln, "atom count must be positive")

    total = n + 5  # count, properties, n atoms, frequencies, smiles, inchi
    if start + total > len(lines):
        raise _fail(len(lines) + 1,
                    f"record starting at line {ln} needs {total} lines, "
                    f"found {len(lines) - start}")

    prop_line = lines[start + 1].split()
    if len(prop_line) < 2 + N_PROPERTIES:
        raise _fail(ln + 1, f"expected tag, id, and {N_PROPERTIES} properties, "
                            f"got {len(prop_line)} fields")
    tag = prop_line[0]
    try:
        index = int(prop_line[1])
    except ValueError:
        raise _fail(ln + 1, f"record id is not an integer: {prop_line[1]!r}") from None
    properties = tuple(_float(tok, ln + 1)
                       for tok in prop_line[2:2 + N_PROPERTIES])

    elements, positions, charges = [], [], []
    for k in range(n):
        lineno = ln + 2 + k
        fields = lines[start + 2 + k].split()
        if len(fields) != 5:
            raise _fail(lineno, f"expected 'element x y z charge', got "
                                f"{lines[start + 2 + k]!r}")
        if fields[0] not in ELEMENTS:
            raise UnsupportedElementError(
                f"line {lineno}: unsupported element {fields[0]!r}")
        elements.append(fields[0])
        positions.append(tuple(_float(t, lineno) for t in fields[1:4]))
        charges.append(_float(fields[4], lineno))

    freq_fields = lines[start + 2 + n].split()
    if not freq_fields:
        raise _fail(ln + 2 + n, "empty frequencies line")
    frequencies = tuple(_float(t, ln + 2 + n) for t in freq_fields)
    smiles = lines[start + 3 + n].strip()
    inchi = lines[start + 4 + n].strip()

    record = Qm9Record(tag=tag, index=index, elements=tuple(elements),
                       positions=tuple(positions), charges=tuple(charges),
                       properties=properties, frequencies=frequencies,
                       smiles=smiles, inchi=inchi)
    return record, start + total


def parse_qm9_records(text: str, path: str | None = None) -> list[Qm9Record]:
    """Parse all concatenated records in ``text``; errors name the line,
    and ``path``, the file the text came from, when given."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    records = []
    pos = 0
    while pos < len(lines):
        try:
            record, pos = _parse_one(lines, pos)
        except (ParseError, UnsupportedElementError) as exc:
            if path is None:
                raise
            raise type(exc)(f"{path}: {exc}") from None
        records.append(record)
    return records


def parse_qm9_xyz(text: str) -> Qm9Record:
    """Parse exactly one record."""
    records = parse_qm9_records(text)
    if len(records) != 1:
        raise ParseError(f"expected exactly one record, found {len(records)}")
    return records[0]


def infer_bonds(elements, positions) -> list[tuple[int, int, float]]:
    """Covalent-radius bond perception: (i, j, distance) with i < j.

    Symmetric and deterministic: every unordered pair is tested once
    against r(a) + r(b) + tolerance.
    """
    i, j, dist = pair_distances(positions)
    radii = np.array([COVALENT_RADII[e] for e in elements])
    bonded = dist < radii[i] + radii[j] + BOND_TOLERANCE
    return list(zip(i[bonded].tolist(), j[bonded].tolist(), dist[bonded].tolist()))


_BOND_ORDER_NAMES = {1: "single", 2: "double", 3: "triple"}


def load_bond_file(path: str) -> list[tuple[int, int, str]]:
    """Companion bond list: JSON array of [i, j, order].

    ``order`` is 1/2/3 or one of the bond type names.
    """
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: bond file must be a JSON list of [i, j, order]")
    bonds = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3
                and type(entry[0]) is int and type(entry[1]) is int):
            raise ParseError(f"{path}: bad bond entry {entry!r}")
        i, j, order = entry
        if isinstance(order, str):
            if order not in BOND_TYPES:
                raise ParseError(f"{path}: unknown bond type {order!r}")
            name = order
        else:
            if type(order) is not int or order not in _BOND_ORDER_NAMES:
                raise ParseError(f"{path}: unknown bond order {order!r}")
            name = _BOND_ORDER_NAMES[order]
        bonds.append((i, j, name))
    return bonds


_warned_missing_flags = False


def _warn_missing_flags() -> None:
    global _warned_missing_flags
    if not _warned_missing_flags:
        warnings.warn("XYZ records carry no acceptor/donor annotations; "
                      "both default to False", stacklevel=3)
        _warned_missing_flags = True


def _hybridization(order_counts: dict[str, int]) -> str | None:
    """Heuristic from bond orders when no annotation is available."""
    total = sum(order_counts.values())
    if total == 0:
        return None
    if order_counts.get("triple", 0) >= 1 or order_counts.get("double", 0) >= 2:
        return "sp"
    if order_counts.get("double", 0) >= 1 or order_counts.get("aromatic", 0) >= 1:
        return "sp2"
    return "sp3"


def record_to_graph(record: Qm9Record, explicit_hydrogens: bool = False,
                    bonds: list[tuple[int, int, str]] | None = None) -> MolecularGraph:
    """Build a MolecularGraph, inferring bonds unless a bond list is given.

    Implicit mode folds each hydrogen into its bonded heavy atom's
    hydrogen_count and drops it from the graph.
    """
    _warn_missing_flags()
    n = record.n_atoms
    pos = np.asarray(record.positions, dtype=np.float64)
    # (i, j, bond type, distance) with i < j
    if bonds is None:
        bond_list = [(i, j, "single", d)
                     for i, j, d in infer_bonds(record.elements, pos)]
    else:
        pi, pj, pd = pair_distances(pos)
        dist = np.zeros((n, n))
        dist[pi, pj] = pd
        bond_list = []
        for i, j, name in bonds:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ParseError(f"bond ({i}, {j}) out of range for {n} atoms")
            lo, hi = min(i, j), max(i, j)
            bond_list.append((lo, hi, name, float(dist[lo, hi])))

    order_counts = [dict() for _ in range(n)]
    for i, j, name, _ in bond_list:
        for k in (i, j):
            order_counts[k][name] = order_counts[k].get(name, 0) + 1

    def make_atom(k: int, hydrogen_count: int) -> Atom:
        return Atom(element=record.elements[k],
                    hybridization=_hybridization(order_counts[k]),
                    hydrogen_count=hydrogen_count,
                    position=tuple(record.positions[k]),
                    partial_charge=record.charges[k])

    if explicit_hydrogens:
        atoms = tuple(make_atom(k, 0) for k in range(n))
        graph_bonds = tuple(Bond(i=i, j=j, bond_type=name, distance=d)
                            for i, j, name, d in bond_list)
        return MolecularGraph(atoms=atoms, bonds=graph_bonds,
                              explicit_hydrogens=True,
                              targets=record.targets).validate()

    heavy = [k for k in range(n) if record.elements[k] != "H"]
    new_id = {k: idx for idx, k in enumerate(heavy)}
    h_partners: dict[int, list[int]] = {k: [] for k in range(n)
                                        if record.elements[k] == "H"}
    kept: list[tuple[int, int, str, float]] = []
    for i, j, name, d in bond_list:
        hi, hj = record.elements[i] == "H", record.elements[j] == "H"
        if hi and hj:
            raise ParseError(f"H-H bond ({i}, {j}) cannot be folded; "
                             f"use explicit hydrogens")
        if hi:
            h_partners[i].append(j)
        elif hj:
            h_partners[j].append(i)
        else:
            kept.append((new_id[i], new_id[j], name, d))
    h_count = [0] * len(heavy)
    for h, partners in h_partners.items():
        if len(partners) != 1:
            raise ParseError(f"hydrogen atom {h} must bond exactly one heavy "
                             f"atom, found {len(partners)}")
        h_count[new_id[partners[0]]] += 1

    atoms = tuple(make_atom(k, h_count[new_id[k]]) for k in heavy)
    graph_bonds = tuple(Bond(i=i, j=j, bond_type=name, distance=d)
                        for i, j, name, d in kept)
    return MolecularGraph(atoms=atoms, bonds=graph_bonds,
                          explicit_hydrogens=False,
                          targets=record.targets).validate()


# ---------------------------------------------------------------------------
# Dataset files (JSON lines with a schema header) and split manifests
# ---------------------------------------------------------------------------


def write_dataset(path: str, graphs: list[MolecularGraph]) -> None:
    if not graphs:
        raise ContractError("refusing to write an empty dataset")
    explicit = graphs[0].explicit_hydrogens
    if any(g.explicit_hydrogens != explicit for g in graphs):
        raise ContractError("mixed hydrogen conventions in one dataset")
    header = {"schema": DATASET_SCHEMA, "count": len(graphs),
              "explicit_hydrogens": explicit}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(g.to_dict(), sort_keys=True) for g in graphs)
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_line(path: str, lineno: int, line: str):
    try:
        return json.loads(line, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {lineno}: not valid JSON "
                         f"({exc.msg}, column {exc.colno})") from None
    except ValueError as exc:  # NaN or Infinity
        raise ParseError(f"{path}: line {lineno}: not valid JSON ({exc})") from None


# The fields ``write_dataset``'s header and ``write_split_manifest`` write.
_HEADER_CHECKS = {"schema": _of_type(str), "count": _of_type(int),
                  "explicit_hydrogens": _of_type(bool)}
_MANIFEST_CHECKS = {"schema": _of_type(str), "seed": _of_type(int),
                    "valid_size": _of_type(int), "test_size": _of_type(int),
                    "dataset_sha256": _of_type(str), "train": _list_of(int),
                    "valid": _list_of(int), "test": _list_of(int)}


def read_dataset(path: str) -> tuple[list[MolecularGraph], dict]:
    """The molecules and header ``write_dataset`` wrote. A line that is not
    valid JSON, or whose header or record lacks a field, holds an unknown
    one or one of the wrong JSON type, or a header naming an unknown
    schema, raises ParseError naming the file and the line."""
    with open(path) as f:
        try:
            lines = f.read().splitlines()
        except ValueError as exc:  # bytes that are not UTF-8
            raise ParseError(f"{path}: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty dataset file")
    header = _json_line(path, 1, lines[0])
    try:
        _check_object(header, _HEADER_CHECKS, "dataset header", DATASET_SCHEMA)
    except ContractError as exc:
        raise ParseError(f"{path}: line 1: {exc}") from None
    graphs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _json_line(path, lineno, line)
        try:
            graphs.append(MolecularGraph.from_dict(record))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if len(graphs) != header["count"]:
        raise ParseError(f"{path}: header count {header['count']} != "
                         f"{len(graphs)} records")
    return graphs, header


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_split_manifest(path: str, n: int, seed: int, valid_size: int,
                         test_size: int, dataset_hash: str) -> dict:
    from .training import split_indices
    train, valid, test = split_indices(n, seed, valid_size, test_size)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "seed": seed,
        "valid_size": valid_size,
        "test_size": test_size,
        "dataset_sha256": dataset_hash,
        "train": train,
        "valid": valid,
        "test": test,
    }
    _atomic_write(path, json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


def read_split_manifest(path: str) -> dict:
    """The manifest ``write_split_manifest`` wrote; a missing or unknown
    field, one of the wrong JSON type, or an unknown schema raises
    ContractError naming the file and the field."""
    manifest = _read_json(path)
    _check_object(manifest, _MANIFEST_CHECKS, f"{path}: split manifest", MANIFEST_SCHEMA)
    return manifest


def apply_split_manifest(graphs: list[MolecularGraph], manifest: dict,
                         dataset_hash: str, path: str = "split manifest"):
    """(train, valid, test) per the manifest. ``dataset_hash``, the hash of
    the dataset file the graphs were read from, is required and must be the
    one the manifest records, so no dataset is split by another's manifest.
    Errors name ``path``, the manifest's file, and the offending index."""
    if type(dataset_hash) is not str:
        raise ContractError(f"{path}: the dataset hash to match is not a string: "
                            f"{dataset_hash!r}")
    if dataset_hash != manifest["dataset_sha256"]:
        raise ContractError(f"{path} does not match this dataset file "
                            f"(hash {dataset_hash[:12]} != "
                            f"{manifest['dataset_sha256'][:12]})")
    splits = []
    split_of: dict[int, str] = {}
    for key in ("train", "valid", "test"):
        idx = manifest[key]
        for i in idx:
            if not 0 <= i < len(graphs):
                raise ContractError(f"{path}: {key} index {i} is out of range "
                                    f"for {len(graphs)} molecules")
            if i in split_of:
                where = (f"twice in {key}" if split_of[i] == key
                         else f"in {split_of[i]} and in {key}")
                raise ContractError(f"{path}: index {i} appears {where}")
            split_of[i] = key
        splits.append([graphs[i] for i in idx])
    return tuple(splits)
