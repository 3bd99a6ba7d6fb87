"""Molecular graph model, featurization, and edge encodings."""

import dataclasses
import pickle

import numpy as np
import pytest

from mpnnkit import tensor as T
from mpnnkit.engine import MESSAGE_FNS, ModelConfig, _directed, layout
from mpnnkit.model import prepare_graph
from mpnnkit.molgraph import (
    ATOM_FEATURE_WIDTH,
    ELEMENTS,
    HYBRIDIZATIONS,
    Atom,
    BOND_LABELS,
    BOND_TYPES,
    Bond,
    DISTANCE_BINS_ALPHABET,
    EncodedGraph,
    MolecularGraph,
    UnsupportedElementError,
    VIRTUAL_LABEL,
    bin_distance,
    edge_alphabet_size,
    edge_feature_width,
    encode,
    featurize_atom,
    pair_distances,
)
from mpnnkit.synthetic import generate_synthetic
from mpnnkit.tensor import ContractError
from support import oracle_encode, oracle_featurize_atom


def methane_like():
    # One carbon with implicit hydrogens; sp3, no ring/donor/acceptor.
    return Atom("C", hybridization="sp3", hydrogen_count=4)


def chain3(positions=((0.0, 0.0, 0.0), (0.0, 0.0, 1.2), (0.0, 0.0, 2.4)),
           types=("single", "double")):
    atoms = (
        Atom("O", position=positions[0], hybridization="sp2"),
        Atom("C", position=positions[1], hybridization="sp2"),
        Atom("N", position=positions[2], hybridization="sp3", hydrogen_count=2),
    )
    bonds = (Bond(0, 1, types[0]), Bond(1, 2, types[1]))
    return MolecularGraph(atoms=atoms, bonds=bonds).validate()


class TestAtomFeatures:
    def test_carbon_sp3_four_hydrogens(self):
        v = featurize_atom(methane_like())
        assert v.tolist() == [0, 1, 0, 0, 0, 6, 0, 0, 0, 0, 0, 1, 4]

    def test_explicit_hydrogen_node(self):
        v = featurize_atom(Atom("H"))
        assert v[:5].tolist() == [1, 0, 0, 0, 0]
        assert v[12] == 0.0

    def test_base_width_is_13(self):
        assert featurize_atom(methane_like()).shape == (ATOM_FEATURE_WIDTH,)
        assert ATOM_FEATURE_WIDTH == 13

    def test_partial_charge_appends_one_column(self):
        a = Atom("C", hybridization="sp3", hydrogen_count=4, partial_charge=-0.42)
        v = featurize_atom(a, include_partial_charge=True)
        assert v.shape == (14,)
        assert v[13] == -0.42

    def test_partial_charge_missing_raises(self):
        with pytest.raises(ContractError):
            featurize_atom(methane_like(), include_partial_charge=True)

    def test_unknown_element_rejected(self):
        with pytest.raises(UnsupportedElementError):
            Atom("Si")

    def test_null_hybridization_encodes_zeros(self):
        v = featurize_atom(Atom("F", hybridization=None))
        assert v[9:12].tolist() == [0, 0, 0]

    def test_acceptor_donor_aromatic_flags(self):
        v = featurize_atom(Atom("N", acceptor=True, donor=True, aromatic=True,
                                 hybridization="sp2"))
        assert v[6:9].tolist() == [1, 1, 1]


class TestDistanceBins:
    def test_below_two(self):
        assert bin_distance(1.5) == 0

    def test_boundary_goes_up(self):
        assert bin_distance(2.0) == 1
        assert bin_distance(2.5) == 2
        assert bin_distance(6.0) == 9

    def test_overflow_bin(self):
        assert bin_distance(6.1) == 9
        assert bin_distance(1000.0) == 9

    def test_interior_bins(self):
        # Frozen from the piecewise definition: bin i covers [2+0.5(i-1), 2+0.5i).
        for dist, expected in [(2.49, 1), (3.0, 3), (4.75, 6), (5.99, 8)]:
            assert bin_distance(dist) == expected, dist

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            bin_distance(-0.1)

    def test_array_matches_scalar_and_piecewise_rule(self, rng):
        def piecewise(d):
            if d < 2.0:
                return 0
            if d >= 6.0:
                return 9
            return 1 + int((d - 2.0) // 0.5)
        edges = [2.0 + 0.5 * k for k in range(9)]
        values = np.array(edges + [np.nextafter(e, 0.0) for e in edges]
                          + [0.0, 1.5, 1000.0] + rng.uniform(0, 8, 83).tolist())
        grid = values.reshape(8, 13)
        bins = bin_distance(grid)
        assert bins.shape == grid.shape and bins.dtype == np.intp
        expected = [piecewise(float(d)) for d in values]
        assert bins.ravel().tolist() == expected
        assert [bin_distance(float(d)) for d in values] == expected
        assert type(bin_distance(2.0)) is int

    @pytest.mark.parametrize("bad", [-0.1, -np.inf, np.inf, np.nan])
    def test_array_rejects_negative_or_nonfinite(self, bad):
        with pytest.raises(ContractError):
            bin_distance(np.array([[1.0, 3.0], [bad, 7.0]]))

    def test_alphabet_size(self):
        assert DISTANCE_BINS_ALPHABET == 14
        assert edge_alphabet_size("distance_bins") == 14
        assert edge_alphabet_size("chemical") == 4
        assert edge_alphabet_size("chemical", virtual_edges=True) == 5
        with pytest.raises(ContractError):
            edge_alphabet_size("raw_distance")
        assert edge_feature_width("raw_distance") == 5


class TestPairDistances:
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 29])
    def test_loop_order_and_per_pair_norm(self, rng, n):
        pos = rng.normal(scale=2.0, size=(n, 3))
        i, j, dist = pair_distances(pos)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(i.tolist(), j.tolist())) == pairs
        np.testing.assert_array_equal(
            dist, np.array([np.linalg.norm(pos[a] - pos[b]) for a, b in pairs]))
        assert dist.shape == (n * (n - 1) // 2,) and dist.dtype == np.float64


def loop_encode(g, representation):
    """The per-pair loop ``encode``'s distance branch replaced: the oracle
    of its pairs' ends and features."""
    bonded = {(min(b.i, b.j), max(b.i, b.j)): b.bond_type for b in g.bonds}
    pos = g.positions()
    ends_i, ends_j, feats = [], [], []
    for i in range(g.n_atoms):
        for j in range(i + 1, g.n_atoms):
            dist = float(np.linalg.norm(pos[i] - pos[j]))
            bond = bonded.get((i, j))
            ends_i.append(i)
            ends_j.append(j)
            if representation == "distance_bins":
                feats.append(BOND_TYPES.index(bond) if bond is not None
                             else len(BOND_TYPES) + bin_distance(dist))
            else:
                vec = [dist, 0.0, 0.0, 0.0, 0.0]
                if bond is not None:
                    vec[1 + BOND_TYPES.index(bond)] = 1.0
                feats.append(vec)
    return ends_i, ends_j, feats


def loop_virtual_encode(g):
    """The chemical pair arrays as a loop builds them: the bonds in their
    order, then a virtual edge for each unbonded pair, pair by pair in
    row-major order. The oracle for ``encode(..., virtual_edges=True)``."""
    existing = {frozenset((b.i, b.j)) for b in g.bonds}
    edges = [(b.i, b.j, BOND_LABELS[b.bond_type]) for b in g.bonds]
    for i in range(g.n_atoms):
        for j in range(i + 1, g.n_atoms):
            if frozenset((i, j)) not in existing:
                edges.append((i, j, VIRTUAL_LABEL))
    return tuple(np.array([e[k] for e in edges], dtype=np.intp) for k in range(3))


def random_molecule(rng, n):
    """n atoms, a random subset of pairs bonded in random orientation and
    order, with positions."""
    atoms = tuple(Atom("C" if k < 9 else "H", position=tuple(rng.uniform(-4, 4, 3)))
                  for k in range(n))
    pairs = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    bonds = tuple(Bond(i, j, BOND_TYPES[rng.integers(4)])
                  for i, j in (pairs[k] for k in rng.permutation(len(pairs))))
    return MolecularGraph(atoms=atoms, bonds=bonds, explicit_hydrogens=True)


class TestEncode:
    @pytest.mark.parametrize("representation", ["distance_bins", "raw_distance"])
    def test_distance_branch_matches_pair_loop(self, representation):
        for g in generate_synthetic(30, seed=5):
            eg = encode(g, representation)
            ends_i, ends_j, feats = loop_encode(g, representation)
            assert eg.pair_i.tolist() == ends_i
            assert eg.pair_j.tolist() == ends_j
            assert eg.pair_features.tolist() == feats

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs_keeps_shapes_and_dtypes(self, n):
        g = MolecularGraph(atoms=(Atom("C", position=(0.5, 0.0, 0.0)),) * n,
                           bonds=())
        bins = encode(g, "distance_bins")
        raw = encode(g, "raw_distance")
        for eg in (bins, raw):
            assert eg.node_features.shape == (n, ATOM_FEATURE_WIDTH)
            assert eg.pair_i.shape == eg.pair_j.shape == (0,)
            assert eg.pair_i.dtype == eg.pair_j.dtype == np.intp
        assert bins.pair_features.shape == (0,)
        assert bins.pair_features.dtype == np.intp
        assert raw.pair_features.shape == (0, 5)
        assert raw.pair_features.dtype == np.float64

    def test_two_atom_bonded_distance_bins(self):
        g = MolecularGraph(
            atoms=(Atom("C", position=(0, 0, 0), hydrogen_count=3),
                   Atom("C", position=(0, 0, 1.5), hydrogen_count=3)),
            bonds=(Bond(0, 1, "single"),),
        )
        eg = encode(g, "distance_bins")
        assert eg.n_edges == 2  # one undirected pair, both orientations
        assert eg.pair_features.tolist() == [0]  # bond label, not a distance bin

    def test_chain_distance_bins_labels(self):
        g = chain3()
        eg = encode(g, "distance_bins")
        assert eg.n_edges == 6
        # Bonded pairs keep bond labels (single=0, double=1); the unbonded
        # 0-2 pair sits at 2.4 A: 4 + bin 1 = 5.
        assert sorted(eg.pair_features.tolist()) == [0, 1, 5]
        assert eg.pair_features.max() < DISTANCE_BINS_ALPHABET

    def test_chain_raw_distance_vectors(self):
        eg = encode(chain3(), "raw_distance")
        vecs = {(int(s), int(t)): f for s, t, f in
                zip(eg.pair_i, eg.pair_j, eg.pair_features)}
        np.testing.assert_allclose(vecs[(0, 2)], [2.4, 0, 0, 0, 0])
        np.testing.assert_allclose(vecs[(0, 1)], [1.2, 1, 0, 0, 0])
        np.testing.assert_allclose(vecs[(1, 2)], [1.2, 0, 1, 0, 0])

    def test_chemical_edges_only_bonds(self):
        eg = encode(chain3(), "chemical")
        assert eg.n_edges == 4
        assert sorted(eg.pair_features.tolist()) == [0, 1]

    def test_directed_edges_mirror_features(self):
        # the engine's directed edges: each pair, then each pair reversed
        eg = encode(chain3(), "raw_distance")
        src, dst, features = _directed([eg])
        m = eg.n_edges // 2
        np.testing.assert_array_equal(src[:m], dst[m:])
        np.testing.assert_array_equal(dst[:m], src[m:])
        np.testing.assert_array_equal(features[:m], features[m:])

    def test_distance_reprs_require_positions(self):
        g = MolecularGraph(atoms=(methane_like(),), bonds=())
        with pytest.raises(ContractError):
            encode(g, "distance_bins")
        encode(g, "chemical")  # fine without positions

    def test_virtual_edges_get_virtual_label(self):
        eg = encode(chain3(), "chemical", virtual_edges=True)
        assert sorted(eg.pair_features.tolist()) == [0, 1, VIRTUAL_LABEL]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 17, 29])
    def test_virtual_edges_match_the_bond_loop_byte_for_byte(self, rng, n):
        for _ in range(4):
            g = random_molecule(rng, n)
            eg = encode(g, "chemical", virtual_edges=True)
            for got, want in zip((eg.pair_i, eg.pair_j, eg.pair_features),
                                 loop_virtual_encode(g)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("representation", ["distance_bins", "raw_distance"])
    def test_distance_reprs_ignore_virtual_edges(self, rng, representation):
        g = random_molecule(rng, 7)
        plain = encode(g, representation)
        virtual = encode(g, representation, virtual_edges=True)
        for field in dataclasses.fields(EncodedGraph):
            np.testing.assert_array_equal(getattr(virtual, field.name),
                                          getattr(plain, field.name))

    def test_encode_is_permutation_equivariant(self, rng):
        g = chain3()
        perm = [2, 0, 1]  # new position of old atom i is perm.index(i)
        inv = {old: new for new, old in enumerate(perm)}
        permuted = MolecularGraph(
            atoms=tuple(g.atoms[old] for old in perm),
            bonds=tuple(Bond(inv[b.i], inv[b.j], b.bond_type) for b in g.bonds),
        )
        for representation in ("chemical", "distance_bins", "raw_distance"):
            a = encode(g, representation)
            b = encode(permuted, representation)
            np.testing.assert_allclose(b.node_features,
                                       a.node_features[perm])
            want = {}
            for s, t, f in zip(*_directed([a])):
                want[(inv[int(s)], inv[int(t)])] = f
            got = {(int(s), int(t)): f for s, t, f in zip(*_directed([b]))}
            assert set(want) == set(got)
            for k in want:
                np.testing.assert_allclose(want[k], got[k])

    def test_bins_alphabet_never_exceeded_on_random_geometry(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            atoms = tuple(Atom("C", position=tuple(rng.uniform(-5, 5, 3)),
                               hydrogen_count=0) for _ in range(n))
            bonds = tuple(Bond(i, i + 1, "single") for i in range(n - 1))
            eg = encode(MolecularGraph(atoms=atoms, bonds=bonds), "distance_bins")
            assert eg.pair_features.min() >= 0
            assert eg.pair_features.max() < 14


def virtual_pairs(g):
    """Undirected pairs ``encode`` connects with the virtual label."""
    eg = encode(g, "chemical", virtual_edges=True)
    return int((eg.pair_features == VIRTUAL_LABEL).sum())


class TestAugmentations:
    def test_virtual_edges_on_path(self):
        assert virtual_pairs(chain3()) == 1

    def test_virtual_edges_fixpoint_on_complete_graph(self):
        # a complete graph has no pair to add: the edges are the bonds alone
        g = chain3()
        complete = MolecularGraph(atoms=g.atoms,
                                  bonds=g.bonds + (Bond(2, 0, "triple"),))
        assert virtual_pairs(complete) == 0
        plain = encode(complete, "chemical")
        virtual = encode(complete, "chemical", virtual_edges=True)
        # only the flag tells them apart, so each runs under its own config
        assert (plain.virtual_edges, virtual.virtual_edges) == (False, True)
        for field in dataclasses.fields(EncodedGraph):
            if field.name != "virtual_edges":
                np.testing.assert_array_equal(getattr(virtual, field.name),
                                              getattr(plain, field.name))

    def test_virtual_edges_star9(self):
        # Frozen count: C(9,2) - 8 = 28 missing pairs on a 9-node star.
        atoms = tuple(Atom("C", hydrogen_count=0) for _ in range(9))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 9))
        assert virtual_pairs(MolecularGraph(atoms=atoms, bonds=bonds)) == 28

    @pytest.mark.parametrize("edge_repr", ["chemical", "raw_distance"])
    def test_master_width_leaves_encoding_unchanged(self, edge_repr):
        # The master node lives in the engine only; no encoded array sees it.
        base = dict(message_fn="edge_network", edge_repr=edge_repr,
                    virtual_edges=edge_repr == "chemical")
        plain = prepare_graph(chain3(), ModelConfig(**base))
        with_master = prepare_graph(chain3(), ModelConfig(
            d_master=7, master_in_readout=False, **base))
        for field in dataclasses.fields(EncodedGraph):
            np.testing.assert_array_equal(getattr(with_master, field.name),
                                          getattr(plain, field.name))

    def test_encode_doubles_edges(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = [p for p in pairs if rng.random() < 0.5]
            atoms = tuple(Atom("C", hydrogen_count=0) for _ in range(n))
            bonds = tuple(Bond(i, j, "single") for i, j in keep)
            eg = encode(MolecularGraph(atoms=atoms, bonds=bonds), "chemical")
            assert eg.n_edges == 2 * len(keep)
            src, dst, _ = _directed([eg])
            assert set(zip(src.tolist(), dst.tolist())) == (
                {(i, j) for i, j in keep} | {(j, i) for i, j in keep})


class TestGraphValidation:
    def test_bond_out_of_range(self):
        g = MolecularGraph(atoms=(methane_like(),), bonds=(Bond(0, 5, "single"),))
        with pytest.raises(ContractError):
            g.validate()

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(ContractError):
            Bond(1, 1, "single")

    def test_duplicate_bond_rejected(self):
        g = MolecularGraph(
            atoms=(Atom("C", hydrogen_count=0), Atom("C", hydrogen_count=0)),
            bonds=(Bond(0, 1, "single"), Bond(1, 0, "double")),
        )
        with pytest.raises(ContractError):
            g.validate()

    def test_heavy_atom_limit(self):
        atoms = tuple(Atom("C", hydrogen_count=0) for _ in range(10))
        with pytest.raises(ContractError):
            MolecularGraph(atoms=atoms, bonds=()).validate()

    def test_explicit_h_forbids_hydrogen_count(self):
        g = MolecularGraph(atoms=(Atom("C", hydrogen_count=4),), bonds=(),
                           explicit_hydrogens=True)
        with pytest.raises(ContractError):
            g.validate()

    def test_master_bonds_rejected(self):
        # Molecules have no master node; a record with master edges to every
        # atom, as older writers produced, is refused rather than dropped.
        record = chain3().to_dict()
        record["bonds"] += [{"i": 3, "j": v, "type": "master"} for v in range(3)]
        record["master_dim"] = 4
        with pytest.raises(ContractError):
            MolecularGraph.from_dict(record)

    def test_virtual_bonds_rejected(self):
        # Virtual edges belong to the chemical encoding, not to a molecule;
        # a record that stores them as bonds is refused.
        record = chain3().to_dict()
        record["bonds"].append({"i": 0, "j": 2, "type": "virtual"})
        with pytest.raises(ContractError, match="virtual"):
            MolecularGraph.from_dict(record)

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(atoms=5),
        lambda r: r["atoms"][0].update(acceptor="false"),
        lambda r: r["atoms"][1].update(hydrogen_count=1.7),
        lambda r: r["atoms"][1].update(hydrogen_count=True),
        lambda r: r["bonds"][0].update(i=0.5),
        lambda r: r["bonds"][0].update(distance="1.2"),
        lambda r: r.update(explicit_hydrogens=0),
        lambda r: r["positions"][2].__setitem__(0, "0.0"),
        lambda r: r["positions"].pop(),
        lambda r: r.update(targets=[1.0] * 12 + ["2"]),
    ], ids=["atoms", "acceptor", "hydrogen_count", "hydrogen_count_bool",
            "bond_i", "distance", "explicit_hydrogens", "position",
            "positions_count", "targets"])
    def test_wrong_json_types_rejected(self, edit):
        # A value of the wrong JSON type is refused, not coerced.
        record = dataclasses.replace(chain3(), targets=(0.5,) * 13).to_dict()
        edit(record)
        with pytest.raises(ContractError):
            MolecularGraph.from_dict(record)

    def test_roundtrip_through_dict(self):
        g = chain3()
        g = MolecularGraph(atoms=g.atoms, bonds=g.bonds,
                           targets=tuple(float(i) / 3 for i in range(13)))
        back = MolecularGraph.from_dict(g.to_dict())
        assert back == g

    def test_roundtrip_preserves_awkward_floats(self):
        import json
        pos = (0.1 + 0.2, 1.0 / 3.0, 2.0 ** 0.5)
        g = MolecularGraph(atoms=(Atom("C", position=pos, hydrogen_count=4),),
                           bonds=(), targets=tuple([np.pi] * 13))
        back = MolecularGraph.from_dict(json.loads(json.dumps(g.to_dict())))
        assert back.atoms[0].position == pos
        assert back.targets[0] == np.pi


def explicit(g):
    """``g`` with each implicit hydrogen as its own atom, bonded to its heavy
    atom, 1.09 A away along a fixed direction per hydrogen."""
    atoms = [dataclasses.replace(a, hydrogen_count=0) for a in g.atoms]
    bonds = list(g.bonds)
    for k, heavy in enumerate(g.atoms):
        for h in range(heavy.hydrogen_count):
            direction = np.array([np.cos(h), np.sin(h), 0.5 * h - 1.0])
            pos = np.asarray(heavy.position) + 1.09 * direction / np.linalg.norm(direction)
            atoms.append(Atom("H", position=tuple(pos)))
            bonds.append(Bond(k, len(atoms) - 1, "single", distance=1.09))
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds),
                          explicit_hydrogens=True).validate()


def charged(g, rng):
    """``g`` with a partial charge on every atom, a float or an int, and
    every third atom's hybridization unset."""
    atoms = tuple(dataclasses.replace(
        a, partial_charge=float(rng.normal()) if k % 4 else int(rng.integers(-2, 3)),
        hybridization=None if k % 3 == 0 else a.hybridization)
        for k, a in enumerate(g.atoms))
    return dataclasses.replace(g, atoms=atoms)


def encoding_cases():
    """Molecules that reach every feature and edge path of ``encode``."""
    rng = np.random.default_rng(11)
    synthetic = generate_synthetic(24, seed=3)
    every_element = MolecularGraph(
        atoms=tuple(Atom(e, position=tuple(rng.uniform(-3, 3, 3)),
                         acceptor=k % 2 == 0, donor=k % 3 == 0, aromatic=k == 1,
                         hybridization=((None,) + HYBRIDIZATIONS)[k % 4],
                         hydrogen_count=(k * 7) % 4, partial_charge=0.25 * k - 0.5)
                    for k, e in enumerate(ELEMENTS)),
        bonds=(Bond(1, 2, "aromatic"), Bond(3, 1, "double"), Bond(0, 4, "triple")))
    # counts and charges far from any molecule's, still converted one by one
    awkward = MolecularGraph(atoms=(
        Atom("C", position=(0.0, 0.0, 0.0), hydrogen_count=2 ** 60 + 1,
             partial_charge=2 ** 62 + 3),
        Atom("N", position=(0.1, 0.2, 0.3), partial_charge=-1e-300)), bonds=())
    tiny = [MolecularGraph(atoms=tuple(Atom("O", position=(0.5 * k, 0.0, 0.25),
                                            hybridization="sp3", partial_charge=0.1)
                                       for k in range(n)),
                           bonds=(Bond(0, 1, "single"),) if n == 2 else ())
            for n in (0, 1, 2)]
    plain = synthetic + [explicit(g) for g in synthetic[:12]]
    with_charges = ([charged(g, rng) for g in plain] + [every_element, awkward]
                    + tiny)
    return plain, with_charges


ENCODINGS = [("chemical", False), ("chemical", True),
             ("distance_bins", False), ("raw_distance", False)]


class TestEncodingOracle:
    @pytest.mark.parametrize("representation,virtual_edges", ENCODINGS)
    @pytest.mark.parametrize("charges", [False, True])
    def test_every_array_matches_the_per_atom_oracle(self, representation,
                                                     virtual_edges, charges):
        plain, with_charges = encoding_cases()
        graphs = with_charges if charges else plain + with_charges
        for g in graphs:
            got = encode(g, representation, charges, virtual_edges)
            want = oracle_encode(g, representation, charges, virtual_edges)
            for field in dataclasses.fields(EncodedGraph):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name

    def test_missing_charge_refused_as_before(self):
        plain, _ = encoding_cases()
        for g in plain:
            with pytest.raises(ContractError, match="partial charge"):
                encode(g, "chemical", include_partial_charge=True)
            with pytest.raises(ContractError, match="partial charge"):
                oracle_encode(g, "chemical", include_partial_charge=True)

    def test_featurize_atom_is_the_oracle_row(self):
        _, with_charges = encoding_cases()
        for g in with_charges:
            for a in g.atoms:
                for charges in (False, True):
                    got, want = featurize_atom(a, charges), oracle_featurize_atom(a, charges)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestSlottedRecords:
    def records(self):
        g = explicit(generate_synthetic(3, seed=4)[2])
        g = dataclasses.replace(g, targets=tuple(range(13)))
        return g, g.atoms[0], g.bonds[0]

    def test_no_instance_dict(self):
        for record in self.records():
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(record)[0].name, None)
            # no slot to hold it; Python 3.11's frozen-slots setattr says so
            # with a TypeError, later versions with a FrozenInstanceError
            with pytest.raises((TypeError, AttributeError)):
                record.extra = 1
        # the encoded graph keeps one: its max_degree is cached there
        eg = encode(self.records()[0], "chemical")
        assert eg.max_degree == vars(eg)["max_degree"]

    def test_pickle_round_trip(self):
        # random_search ships graphs to its worker processes this way
        for record in self.records():
            back = pickle.loads(pickle.dumps(record))
            assert back == record and type(back) is type(record)
        g = self.records()[0]
        back = pickle.loads(pickle.dumps(g))
        for field in dataclasses.fields(EncodedGraph):
            a = getattr(encode(back, "raw_distance"), field.name)
            b = getattr(encode(g, "raw_distance"), field.name)
            assert np.array_equal(a, b)

    def test_replace_runs_the_checks(self):
        g, atom, bond = self.records()
        assert dataclasses.replace(atom, hydrogen_count=3).hydrogen_count == 3
        assert dataclasses.replace(bond, bond_type="double").bond_type == "double"
        assert dataclasses.replace(g, targets=None).targets is None
        with pytest.raises(UnsupportedElementError):
            dataclasses.replace(atom, element="Si")
        with pytest.raises(ContractError):
            dataclasses.replace(bond, j=bond.i)

    def test_equality_and_hash_are_by_field(self):
        for record in self.records():
            fields = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
            assert hash(record) == hash(fields)
            copy = type(record)(*fields)
            assert copy == record and hash(copy) == hash(record)
            assert copy != dataclasses.replace(record, **{
                dataclasses.fields(record)[0].name: {
                    Atom: "N", Bond: 7, MolecularGraph: ()}[type(record)]})


class TestPairCache:
    def test_shared_arrays_are_read_only(self):
        g = generate_synthetic(2, seed=8)[1]
        before = encode(g, "distance_bins")
        i, j, _ = pair_distances(g.positions())
        for idx in (i, j):
            with pytest.raises(ValueError):
                idx[0] = 5
            with pytest.raises(ValueError):
                idx += 1
        again = pair_distances(g.positions())
        assert again[0] is i and again[1] is j
        after = encode(g, "distance_bins")
        for field in ("pair_i", "pair_j", "pair_features"):
            assert getattr(after, field).tobytes() == getattr(before, field).tobytes()
            # the graph's arrays are read-only too, but its own: making them
            # so leaves the shared pair list as it was
            assert not any(np.shares_memory(getattr(after, field), idx) for idx in (i, j))

    def test_cache_is_bounded(self, rng):
        from mpnnkit.molgraph import _pair_index
        for n in range(200):
            pair_distances(rng.normal(size=(n, 3)))
        info = _pair_index.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 200


class TestEncodedGraphIdentity:
    """Two graphs are equal only if they are the same object, and their
    arrays are read-only, so a graph's identity stands for its content."""

    def test_equality_and_hash_go_by_identity(self):
        g = generate_synthetic(2, seed=8)[1]
        a, b = encode(g, "raw_distance"), encode(g, "raw_distance")
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert {a: 1}[a] == 1 and b not in {a: 1}

    def test_arrays_are_read_only(self):
        eg = encode(generate_synthetic(2, seed=8)[1], "chemical")
        for name in ("node_features", "pair_i", "pair_j", "pair_features"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(eg, name)[0] = 0
        back = pickle.loads(pickle.dumps(eg))
        assert back.pair_i.tobytes() == eg.pair_i.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            back.pair_i[0] = 1

    def test_a_view_of_writable_memory_is_copied(self):
        base = np.zeros((6, 3))
        eg = EncodedGraph(node_features=base[:4], pair_i=np.array([0], dtype=np.intp),
                          pair_j=np.array([1], dtype=np.intp),
                          pair_features=np.array([2]), representation="chemical")
        base[0, 0] = 1.0
        assert eg.node_features[0, 0] == 0.0
        assert not np.shares_memory(eg.node_features, base)


def layout_graph(ends_i, ends_j, features, representation="chemical"):
    """An ``EncodedGraph`` of four nodes with exactly these pairs."""
    return EncodedGraph(node_features=np.zeros((4, 2)),
                        pair_i=np.array(ends_i, dtype=np.intp),
                        pair_j=np.array(ends_j, dtype=np.intp),
                        pair_features=np.array(features), representation=representation)


RAW = np.arange(20, dtype=float).reshape(4, 5)


class TestEdgeLayout:
    """Each undirected pair is held once; ``EncodedGraph`` checks that the
    arrays agree and that every end is one of its nodes, and
    ``engine.layout`` joins the member graphs and makes the directed
    edges."""

    @pytest.mark.parametrize("ends_i, ends_j, features", [
        ([0], [4], [0]),                # node 4 of 4
        ([0], [-1], [0]),               # node -1
        ([4], [0], [0]),                # node 4 of 4, at the first end
        ([-1], [0], [0]),               # node -1, at the first end
        ([0, 1], [1], [0, 0]),          # one end short
        ([0, 1], [1, 2], [0]),          # one feature short
        ([[0], [1]], [[1], [2]], [0, 0]),   # ends as columns, not vectors
    ], ids=["endpoint_past_the_nodes", "negative_endpoint", "first_end_past_the_nodes",
            "negative_first_end", "ends_of_other_lengths", "features_of_another_length",
            "ends_of_two_dimensions"])
    def test_other_layouts_are_refused(self, ends_i, ends_j, features):
        with pytest.raises(ContractError):
            layout_graph(ends_i, ends_j, features)

    @pytest.mark.parametrize("ends_i, ends_j, features, representation", [
        ([1.7], [2], [0], "chemical"),          # would truncate to 1 -> 2
        ([0], [2.0], [0], "chemical"),          # integral, still a float
        ([True], [False], [0], "chemical"),     # would read as 1 and 0
        ([0], [1], [1.0], "chemical"),          # a float label
        ([0], [1], [4.5], "distance_bins"),
        ([0], [1], [True], "distance_bins"),
    ], ids=["float_first_end", "float_second_end", "bool_ends", "float_chemical_label",
            "float_bin_label", "bool_bin_label"])
    def test_non_integer_ends_and_labels_are_refused(self, ends_i, ends_j, features,
                                                     representation):
        # built here, since ``layout_graph`` casts the ends to integers
        with pytest.raises(ContractError, match="must hold integers"):
            EncodedGraph(node_features=np.zeros((4, 2)), pair_i=np.array(ends_i),
                         pair_j=np.array(ends_j), pair_features=np.array(features),
                         representation=representation)

    def test_pairs_are_admitted(self):
        eg = layout_graph([0, 2], [1, 3], RAW[[0, 1]], "raw_distance")
        assert (eg.n_edges, eg.max_degree) == (4, 1)
        assert layout_graph([0, 0, 1], [1, 2, 2], [0, 1, 2]).max_degree == 2
        assert layout_graph([], [], np.zeros((0, 5)), "raw_distance").max_degree == 0

    @pytest.mark.parametrize("representation,virtual_edges", ENCODINGS)
    def test_layout_sends_each_pair_both_ways_member_by_member(self, representation,
                                                               virtual_edges):
        # implicit and explicit hydrogens, with and without virtual edges,
        # alone and together with an edgeless and a zero-atom member: the
        # layout's directed sources, destinations and edge rows are, bit for
        # bit, the pairs both ways as the graphs held them before
        egs = member_graphs(representation, virtual_edges)
        assert {eg.n_atoms for eg in egs if not eg.n_edges} == {0, 1}
        cfg = ModelConfig(message_fn="pair_message", edge_repr=representation,
                          virtual_edges=virtual_edges, d=16)
        for members in [[eg] for eg in egs] + [egs]:
            want = old_directed(members)
            for got, old in zip(_directed(members), want):
                assert (got.dtype, got.shape, got.tobytes()) == (old.dtype, old.shape,
                                                                 old.tobytes())
            lay = layout(members, cfg)
            rows = (want[2] if representation == "raw_distance"
                    else np.eye(cfg.edge_width)[want[2]])
            assert lay.src.index.tobytes() == want[0].tobytes()
            assert lay.dst.index.tobytes() == want[1].tobytes()
            assert lay.rows.data[:, 0].tobytes() == rows.tobytes()
            assert sum(eg.n_edges for eg in members) == want[0].size
        for eg in egs:
            src, dst, _ = old_directed([eg])
            assert eg.max_degree == max(np.bincount(src, minlength=1).max(),
                                        np.bincount(dst, minlength=1).max())

    @pytest.mark.parametrize("master", [0, 16], ids=["no_master", "master"])
    @pytest.mark.parametrize("message_fn,representation,virtual_edges", [
        (message_fn, representation, virtual_edges)
        for message_fn in MESSAGE_FNS for representation, virtual_edges in ENCODINGS
        if not (message_fn == "matmul" and representation == "raw_distance")])
    def test_every_array_of_a_member_layout_is_the_joined_graphs(
            self, message_fn, representation, virtual_edges, master):
        # every array of the layout of the members, alone and together with
        # an edgeless and a zero-atom member, equals byte for byte the
        # layout built as before from one graph: the members' nodes and
        # pairs joined, each member's ends shifted by the nodes before it,
        # its pairs both ways member by member, and the plans over them
        cfg = ModelConfig(message_fn=message_fn, edge_repr=representation,
                          virtual_edges=virtual_edges, d=16, towers_k=1 if master else 2,
                          d_master=master)
        egs = member_graphs(representation, virtual_edges)
        for members in [[eg] for eg in egs] + [egs, egs[::-1], egs[3:7]]:
            assert layout_arrays(layout(members, cfg)) == layout_arrays(
                joined_layout(members, cfg))

    @pytest.mark.parametrize("case", ["no_graph", "member_of_another_encoding",
                                      "label_past_the_alphabet"])
    def test_a_layout_refuses(self, case):
        cfg = ModelConfig(message_fn="matmul", edge_repr="chemical")
        egs = member_graphs("chemical", False)[:4]
        if case == "member_of_another_encoding":
            egs[2] = encode(chain3(), "distance_bins")
        elif case == "label_past_the_alphabet":
            egs[2] = dataclasses.replace(encode(chain3(), "chemical"),
                                         pair_features=np.array([0, cfg.edge_width]))
        match = {"no_graph": "at least one graph",
                 "member_of_another_encoding": "encoded as 'distance_bins'",
                 "label_past_the_alphabet": f"edge label {cfg.edge_width} outside"}[case]
        with pytest.raises(ContractError, match=match):
            layout([] if case == "no_graph" else egs, cfg)


def member_graphs(representation, virtual_edges):
    """Encoded molecules of every feature and edge path, the last three of
    0, 1 and 2 atoms."""
    plain, with_charges = encoding_cases()
    return [encode(g, representation, virtual_edges=virtual_edges)
            for g in plain + with_charges[-3:]]


def old_directed(members):
    """The members' directed edges as one graph held them before: member by
    member, its pairs i -> j and then j -> i, the features twice, its ends
    shifted by the nodes before it."""
    src, dst, features, shift = [], [], [], 0
    for member in members:
        i, j = member.pair_i + shift, member.pair_j + shift
        src += [i, j]
        dst += [j, i]
        features += [member.pair_features, member.pair_features]
        shift += member.n_atoms
    return np.concatenate(src), np.concatenate(dst), np.concatenate(features)


def joined_layout(members, cfg):
    """The layout's fields as they were built from the members joined into
    one graph: its directed edges (``old_directed``), each node's member,
    and the plans over them, made as ``engine.layout`` made them."""
    n, k, g = sum(eg.n_atoms for eg in members), cfg.towers_k, len(members)
    src, dst, features = old_directed(members)
    dst = T.segments(dst, n)
    fields = dict(node_features=np.concatenate([eg.node_features for eg in members]),
                  dst=dst, src=None, present=None, plan=None, rows=None)
    labels = cfg.message_fn == "matmul" or (cfg.message_fn == "edge_network"
                                            and cfg.edge_repr != "raw_distance")
    if labels:
        present, label = np.unique(features, return_inverse=True)
        fields.update(present=present, plan=T.label_plan(src, dst, label, present.size))
        if cfg.message_fn == "edge_network":
            fields["rows"] = np.broadcast_to(np.eye(cfg.edge_width)[present][:, None],
                                             (present.size, k, cfg.edge_width))
    else:
        fields["src"] = src = T.segments(src, n)
        rows = features if cfg.edge_repr == "raw_distance" else np.eye(cfg.edge_width)[features]
        if cfg.message_fn == "edge_network":
            rows = np.concatenate([rows, np.ones((rows.shape[0], 1))], axis=1)
            fields["plan"] = T.block_plan(src, dst)
        fields["rows"] = np.broadcast_to(rows[:, None], (rows.shape[0], k, rows.shape[1]))
    if fields["rows"] is not None:
        fields["rows"] = T.Tensor(np.ascontiguousarray(fields["rows"]))
    graph = np.repeat(np.arange(g), [eg.n_atoms for eg in members])
    readout = graph
    fields.update(nodes=None, masters=None)
    if cfg.d_master:
        fields.update(nodes=T.segments(graph, g),
                      masters=T.segments(np.zeros(g, dtype=np.intp), 1))
        if cfg.master_in_readout:
            readout = np.concatenate([graph, np.arange(g)])
    fields["graphs"] = T.segments(readout, g)
    return fields


def layout_arrays(value, name="layout"):
    """Every array under ``value`` (a layout, its fields as a dict, a plan
    or a tensor) as (path, dtype, shape, bytes), and every other value as
    (path, value), the fields in name order."""
    if isinstance(value, T.Tensor):
        return layout_arrays(value.data, name)
    if isinstance(value, np.ndarray):
        return [(name, value.dtype.str, value.shape, value.tobytes())]
    if isinstance(value, dict) or dataclasses.is_dataclass(value):
        fields = value if isinstance(value, dict) else {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return [entry for key in sorted(fields) if key != "cfg"
                for entry in layout_arrays(fields[key], f"{name}.{key}")]
    return [(name, value)]
