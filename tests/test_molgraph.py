"""Molecular graph model, featurization, and edge encodings."""

import dataclasses

import numpy as np
import pytest

from mpnnkit.engine import ModelConfig
from mpnnkit.model import prepare_graph
from mpnnkit.molgraph import (
    ATOM_FEATURE_WIDTH,
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
    """The per-pair loop ``encode``'s distance branch replaced: the oracle."""
    bonded = {(min(b.i, b.j), max(b.i, b.j)): b.bond_type for b in g.bonds}
    pos = g.positions()
    src, dst, feats = [], [], []
    for i in range(g.n_atoms):
        for j in range(i + 1, g.n_atoms):
            dist = float(np.linalg.norm(pos[i] - pos[j]))
            bond = bonded.get((i, j))
            src.append(i)
            dst.append(j)
            if representation == "distance_bins":
                feats.append(BOND_TYPES.index(bond) if bond is not None
                             else len(BOND_TYPES) + bin_distance(dist))
            else:
                vec = [dist, 0.0, 0.0, 0.0, 0.0]
                if bond is not None:
                    vec[1 + BOND_TYPES.index(bond)] = 1.0
                feats.append(vec)
    return src + dst, dst + src, feats + feats


def loop_virtual_encode(g):
    """The chemical edge arrays as a loop builds them: the bonds in their
    order, then a virtual edge for each unbonded pair, pair by pair in
    row-major order. The oracle for ``encode(..., virtual_edges=True)``."""
    existing = {frozenset((b.i, b.j)) for b in g.bonds}
    edges = [(b.i, b.j, BOND_LABELS[b.bond_type]) for b in g.bonds]
    for i in range(g.n_atoms):
        for j in range(i + 1, g.n_atoms):
            if frozenset((i, j)) not in existing:
                edges.append((i, j, VIRTUAL_LABEL))
    i, j, labels = (np.array([e[k] for e in edges], dtype=np.intp)
                    for k in range(3))
    return (np.concatenate([i, j]), np.concatenate([j, i]),
            np.concatenate([labels, labels]))


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
            src, dst, feats = loop_encode(g, representation)
            assert eg.edge_src.tolist() == src
            assert eg.edge_dst.tolist() == dst
            assert eg.edge_features.tolist() == feats

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs_keeps_shapes_and_dtypes(self, n):
        g = MolecularGraph(atoms=(Atom("C", position=(0.5, 0.0, 0.0)),) * n,
                           bonds=())
        bins = encode(g, "distance_bins")
        raw = encode(g, "raw_distance")
        for eg in (bins, raw):
            assert eg.node_features.shape == (n, ATOM_FEATURE_WIDTH)
            assert eg.edge_src.shape == eg.edge_dst.shape == (0,)
            assert eg.edge_src.dtype == eg.edge_dst.dtype == np.intp
        assert bins.edge_features.shape == (0,)
        assert bins.edge_features.dtype == np.intp
        assert raw.edge_features.shape == (0, 5)
        assert raw.edge_features.dtype == np.float64

    def test_two_atom_bonded_distance_bins(self):
        g = MolecularGraph(
            atoms=(Atom("C", position=(0, 0, 0), hydrogen_count=3),
                   Atom("C", position=(0, 0, 1.5), hydrogen_count=3)),
            bonds=(Bond(0, 1, "single"),),
        )
        eg = encode(g, "distance_bins")
        assert eg.n_edges == 2  # one undirected pair, both orientations
        assert eg.edge_features.tolist() == [0, 0]  # bond label, not a distance bin

    def test_chain_distance_bins_labels(self):
        g = chain3()
        eg = encode(g, "distance_bins")
        assert eg.n_edges == 6
        first = eg.edge_features[:3]
        # Bonded pairs keep bond labels (single=0, double=1); the unbonded
        # 0-2 pair sits at 2.4 A: 4 + bin 1 = 5.
        assert sorted(first.tolist()) == [0, 1, 5]
        assert eg.edge_features.max() < DISTANCE_BINS_ALPHABET

    def test_chain_raw_distance_vectors(self):
        eg = encode(chain3(), "raw_distance")
        vecs = {(int(s), int(t)): f for s, t, f in
                zip(eg.edge_src, eg.edge_dst, eg.edge_features)}
        np.testing.assert_allclose(vecs[(0, 2)], [2.4, 0, 0, 0, 0])
        np.testing.assert_allclose(vecs[(0, 1)], [1.2, 1, 0, 0, 0])
        np.testing.assert_allclose(vecs[(1, 2)], [1.2, 0, 1, 0, 0])

    def test_chemical_edges_only_bonds(self):
        eg = encode(chain3(), "chemical")
        assert eg.n_edges == 4
        assert sorted(eg.edge_features.tolist()) == [0, 0, 1, 1]

    def test_directed_edges_mirror_features(self):
        eg = encode(chain3(), "raw_distance")
        m = eg.n_edges // 2
        np.testing.assert_array_equal(eg.edge_src[:m], eg.edge_dst[m:])
        np.testing.assert_array_equal(eg.edge_dst[:m], eg.edge_src[m:])
        np.testing.assert_array_equal(eg.edge_features[:m], eg.edge_features[m:])

    def test_distance_reprs_require_positions(self):
        g = MolecularGraph(atoms=(methane_like(),), bonds=())
        with pytest.raises(ContractError):
            encode(g, "distance_bins")
        encode(g, "chemical")  # fine without positions

    def test_virtual_edges_get_virtual_label(self):
        eg = encode(chain3(), "chemical", virtual_edges=True)
        assert sorted(eg.edge_features.tolist()) == [0, 0, 1, 1,
                                                     VIRTUAL_LABEL, VIRTUAL_LABEL]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 17, 29])
    def test_virtual_edges_match_the_bond_loop_byte_for_byte(self, rng, n):
        for _ in range(4):
            g = random_molecule(rng, n)
            eg = encode(g, "chemical", virtual_edges=True)
            for got, want in zip((eg.edge_src, eg.edge_dst, eg.edge_features),
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
            for s, t, f in zip(a.edge_src, a.edge_dst, a.edge_features):
                want[(inv[int(s)], inv[int(t)])] = f
            got = {(int(s), int(t)): f for s, t, f in
                   zip(b.edge_src, b.edge_dst, b.edge_features)}
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
            assert eg.edge_features.min() >= 0
            assert eg.edge_features.max() < 14


def virtual_pairs(g):
    """Undirected pairs ``encode`` connects with the virtual label."""
    eg = encode(g, "chemical", virtual_edges=True)
    return int((eg.edge_features == VIRTUAL_LABEL).sum()) // 2


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
        for field in dataclasses.fields(EncodedGraph):
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
            assert set(zip(eg.edge_src.tolist(), eg.edge_dst.tolist())) == (
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
