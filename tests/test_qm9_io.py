"""Tests for XYZ parsing, bond inference, dataset files, split manifests,
and the synthetic generator."""

import itertools
import json

import numpy as np
import pytest

import mpnnkit.qm9 as qm9
from mpnnkit.molgraph import UnsupportedElementError
from mpnnkit.qm9 import (
    ParseError,
    apply_split_manifest,
    file_sha256,
    infer_bonds,
    load_bond_file,
    parse_qm9_records,
    parse_qm9_xyz,
    read_dataset,
    read_split_manifest,
    record_to_graph,
    write_dataset,
    write_split_manifest,
)
from mpnnkit.synthetic import BOND_ORDER, VALENCE, generate_synthetic
from mpnnkit.tensor import ContractError

CH4 = """\
5
gdb 1\t157.7118\t157.70997\t157.70699\t0.\t13.21\t-0.3877\t0.1171\t0.5048\t35.3641\t0.044749\t-40.47893\t-40.476062\t-40.475117\t-40.498597\t6.469
C\t-0.0126981359\t1.0858041578\t0.0080009958\t-0.535689
H\t0.002150416\t-0.0060313176\t0.0019761204\t0.133921
H\t1.0117308433\t1.4637511618\t0.0002765748\t0.133922
H\t-0.540815069\t1.4475266138\t-0.8766437152\t0.133923
H\t-0.5238136345\t1.4379326443\t0.9063972942\t0.133923
1341.307\t1341.3284\t1341.365\t1562.6731\t1562.7453\t3038.3205\t3151.6034\t3151.6788\t3151.7078
C\tC
InChI=1S/CH4/h1H4\tInChI=1S/CH4/h1H4
"""


class TestParser:
    def test_ch4_fields(self):
        r = parse_qm9_xyz(CH4)
        assert r.n_atoms == 5
        assert r.tag == "gdb" and r.index == 1
        assert r.elements == ("C", "H", "H", "H", "H")
        assert r.charges[0] == -0.535689
        assert r.positions[1][1] == -0.0060313176
        assert len(r.properties) == 15
        assert r.smiles == "C\tC"
        assert r.inchi.startswith("InChI=1S/CH4")

    def test_targets_drop_rotational_constants(self):
        r = parse_qm9_xyz(CH4)
        t = r.targets
        assert len(t) == 13
        assert t[0] == 0.0          # mu; the A, B, C constants are gone
        assert t[1] == 13.21        # alpha
        assert t[2] == -0.3877      # homo
        assert t[11] == 6.469       # cv
        assert t[12] == 3151.7078   # omega1 = max frequency

    def test_omega1_is_max(self):
        text = CH4.replace(
            "1341.307\t1341.3284\t1341.365\t1562.6731\t1562.7453\t3038.3205\t3151.6034\t3151.6788\t3151.7078",
            "100.0\t3500.0\t1200.0")
        assert parse_qm9_xyz(text).omega1 == 3500.0

    def test_starhat_exponent_normalized(self):
        text = CH4.replace("0.044749", "4.4749*^-2")
        assert parse_qm9_xyz(text).properties[9] == pytest.approx(0.044749)

    def test_atom_count_mismatch_names_line(self):
        lines = CH4.splitlines()
        truncated = "\n".join(lines[:4])  # count says 5, only 2 atom lines
        with pytest.raises(ParseError, match="line"):
            parse_qm9_xyz(truncated)

    def test_bad_float_names_line(self):
        text = CH4.replace("-0.535689", "oops")
        with pytest.raises(ParseError, match="line 3"):
            parse_qm9_xyz(text)

    def test_bad_atom_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_qm9_xyz("x\n" + CH4[2:])

    def test_unknown_element(self):
        text = CH4.replace("C\t-0.0126981359", "Si\t-0.0126981359")
        with pytest.raises(UnsupportedElementError):
            parse_qm9_xyz(text)

    def test_short_property_line(self):
        lines = CH4.splitlines()
        lines[1] = "gdb 1\t157.7118"
        with pytest.raises(ParseError, match="line 2"):
            parse_qm9_xyz("\n".join(lines))

    def test_multiple_records(self):
        records = parse_qm9_records(CH4 + CH4)
        assert len(records) == 2
        assert records[0] == records[1]
        with pytest.raises(ParseError):
            parse_qm9_xyz(CH4 + CH4)

    def test_trailing_blank_lines_ok(self):
        assert parse_qm9_xyz(CH4 + "\n\n").n_atoms == 5


class TestBondInference:
    def test_h2_bonded(self):
        # r(H) + r(H) + 0.4 = 1.04 Angstrom > 0.74 bond length
        bonds = infer_bonds(["H", "H"], [(0, 0, 0), (0.74, 0, 0)])
        assert [(i, j) for i, j, _ in bonds] == [(0, 1)]
        assert bonds[0][2] == pytest.approx(0.74)

    def test_far_apart_not_bonded(self):
        assert infer_bonds(["C", "C"], [(0, 0, 0), (2.0, 0, 0)]) == []

    def test_symmetric_under_reordering(self):
        rng = np.random.default_rng(0)
        elements = ["C", "O", "N", "H", "H"]
        pos = rng.normal(scale=1.2, size=(5, 3))
        bonds = {(i, j) for i, j, _ in infer_bonds(elements, pos)}
        perm = [4, 2, 0, 1, 3]
        inv = {old: new for new, old in enumerate(perm)}
        pos2 = pos[perm]
        elements2 = [elements[k] for k in perm]
        bonds2 = {(i, j) for i, j, _ in infer_bonds(elements2, pos2)}
        mapped = {tuple(sorted((inv[i], inv[j]))) for i, j in bonds}
        assert mapped == bonds2

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 29])
    def test_matches_pair_loop(self, n):
        def loop_bonds(elements, pos):
            out = []
            for i in range(len(elements)):
                for j in range(i + 1, len(elements)):
                    dist = float(np.linalg.norm(pos[i] - pos[j]))
                    cutoff = (qm9.COVALENT_RADII[elements[i]]
                              + qm9.COVALENT_RADII[elements[j]] + qm9.BOND_TOLERANCE)
                    if dist < cutoff:
                        out.append((i, j, dist))
            return out
        rng = np.random.default_rng(n)
        elements = [str(e) for e in rng.choice(list(qm9.COVALENT_RADII), n)]
        pos = rng.uniform(-1.0, 1.0, size=(n, 3)) * max(1.0, n ** (1 / 3))
        bonds = infer_bonds(elements, pos)
        assert bonds == loop_bonds(elements, pos)
        assert all(type(i) is int and type(j) is int and type(d) is float
                   for i, j, d in bonds)

    def test_ch4_has_four_ch_bonds(self):
        r = parse_qm9_xyz(CH4)
        bonds = infer_bonds(r.elements, r.positions)
        assert len(bonds) == 4
        assert all(0 in (i, j) for i, j, _ in bonds)  # all involve the carbon


class TestRecordToGraph:
    def setup_method(self):
        qm9._warned_missing_flags = True  # silence the one-time notice

    def test_implicit_folds_hydrogens(self):
        g = record_to_graph(parse_qm9_xyz(CH4))
        assert g.n_atoms == 1
        assert g.atoms[0].element == "C"
        assert g.atoms[0].hydrogen_count == 4
        assert g.atoms[0].hybridization == "sp3"
        assert g.atoms[0].partial_charge == -0.535689
        assert g.bonds == ()
        assert g.explicit_hydrogens is False
        assert len(g.targets) == 13

    def test_explicit_keeps_hydrogens(self):
        g = record_to_graph(parse_qm9_xyz(CH4), explicit_hydrogens=True)
        assert g.n_atoms == 5
        assert all(a.hydrogen_count == 0 for a in g.atoms)
        assert len(g.bonds) == 4
        assert g.explicit_hydrogens is True

    def test_h2_implicit_rejected(self):
        text = CH4.replace("5\n", "2\n", 1)
        lines = text.splitlines()
        record_lines = [lines[0], lines[1],
                        "H\t0.0\t0.0\t0.0\t0.1", "H\t0.74\t0.0\t0.0\t0.1",
                        "100.0", "[H][H]", "InChI=1S/H2/h1H"]
        record = parse_qm9_xyz("\n".join(record_lines))
        with pytest.raises(ParseError, match="H-H"):
            record_to_graph(record)
        g = record_to_graph(record, explicit_hydrogens=True)
        assert g.n_atoms == 2 and len(g.bonds) == 1

    def test_isolated_hydrogen_rejected(self):
        lines = ["2", CH4.splitlines()[1],
                 "C\t0.0\t0.0\t0.0\t0.0", "H\t5.0\t0.0\t0.0\t0.0",
                 "100.0", "C", "InChI"]
        record = parse_qm9_xyz("\n".join(lines))
        with pytest.raises(ParseError, match="hydrogen"):
            record_to_graph(record)

    def test_bond_file_orders_drive_hybridization(self, tmp_path):
        lines = ["2", CH4.splitlines()[1],
                 "C\t0.0\t0.0\t0.0\t0.0", "O\t1.2\t0.0\t0.0\t0.0",
                 "1700.0", "C=O", "InChI"]
        record = parse_qm9_xyz("\n".join(lines))
        path = tmp_path / "bonds.json"
        path.write_text(json.dumps([[0, 1, 2]]))
        g = record_to_graph(record, bonds=load_bond_file(str(path)))
        assert g.bonds[0].bond_type == "double"
        assert g.atoms[0].hybridization == "sp2"

    def test_bond_file_validation(self, tmp_path):
        path = tmp_path / "bonds.json"
        path.write_text(json.dumps([[0, 1, 9]]))
        with pytest.raises(ParseError):
            load_bond_file(str(path))
        path.write_text(json.dumps({"a": 1}))
        with pytest.raises(ParseError):
            load_bond_file(str(path))
        path.write_text(json.dumps([[0, 1, "aromatic"]]))
        assert load_bond_file(str(path)) == [(0, 1, "aromatic")]

    def test_bond_distances_match_per_pair_norm(self):
        # a noisy chain of nine carbons, each with one hydrogen above and
        # one below, so every carbon keeps a heavy-atom bond after folding
        rng = np.random.default_rng(5)
        heavy = np.arange(9)[:, None] * [1.45, 0.0, 0.0]
        heavy = heavy + rng.normal(scale=0.05, size=heavy.shape)
        hydrogens = np.concatenate([heavy + [0.0, 0.0, 1.0],
                                    heavy - [0.0, 0.0, 1.0]])
        pos = np.concatenate([heavy, hydrogens])
        elements = ["C"] * 9 + ["H"] * 18
        lines = [str(len(pos)), CH4.splitlines()[1]]
        lines += ["\t".join([e] + [repr(float(c)) for c in p] + ["0.0"])
                  for e, p in zip(elements, pos)]
        lines += ["100.0", "C", "InChI"]
        record = parse_qm9_xyz("\n".join(lines))
        chain = [(k, k + 1, "single") for k in range(8)]
        graphs = [record_to_graph(record, explicit_hydrogens=True),
                  record_to_graph(record),
                  record_to_graph(record, explicit_hydrogens=True, bonds=chain)]
        assert [len(g.bonds) for g in graphs] == [26, 8, 8]
        for g in graphs:
            at = [np.array(a.position) for a in g.atoms]
            np.testing.assert_array_equal(
                [b.distance for b in g.bonds],
                [np.linalg.norm(at[b.i] - at[b.j]) for b in g.bonds])

    def test_warns_once_about_flags(self):
        qm9._warned_missing_flags = False
        with pytest.warns(UserWarning, match="acceptor/donor"):
            record_to_graph(parse_qm9_xyz(CH4))
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            record_to_graph(parse_qm9_xyz(CH4))  # no second warning


class TestDatasetFiles:
    def test_roundtrip_stable(self, tmp_path):
        graphs = generate_synthetic(6, seed=3)
        path = tmp_path / "data.jsonl"
        write_dataset(str(path), graphs)
        loaded, header = read_dataset(str(path))
        assert header["count"] == 6
        assert loaded == graphs
        # a second save/load cycle is byte- and value-stable
        path2 = tmp_path / "data2.jsonl"
        write_dataset(str(path2), loaded)
        assert path.read_text() == path2.read_text()
        assert read_dataset(str(path2))[0] == loaded

    def test_mixed_conventions_rejected(self, tmp_path):
        qm9._warned_missing_flags = True
        a = record_to_graph(parse_qm9_xyz(CH4))
        b = record_to_graph(parse_qm9_xyz(CH4), explicit_hydrogens=True)
        with pytest.raises(ContractError):
            write_dataset(str(tmp_path / "x.jsonl"), [a, b])

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other", "count": 0}\n')
        with pytest.raises(ParseError):
            read_dataset(str(path))

    def test_count_mismatch_rejected(self, tmp_path):
        graphs = generate_synthetic(2, seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(str(path), graphs)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            read_dataset(str(path))


class TestSplitManifest:
    def test_reproducible_and_disjoint(self, tmp_path):
        graphs = generate_synthetic(20, seed=1)
        data = tmp_path / "d.jsonl"
        write_dataset(str(data), graphs)
        h = file_sha256(str(data))
        m1 = write_split_manifest(str(tmp_path / "m1.json"), 20, seed=9,
                                  valid_size=4, test_size=4, dataset_hash=h)
        m2 = write_split_manifest(str(tmp_path / "m2.json"), 20, seed=9,
                                  valid_size=4, test_size=4, dataset_hash=h)
        assert m1 == m2
        assert (tmp_path / "m1.json").read_text() == (tmp_path / "m2.json").read_text()
        train, valid, test = apply_split_manifest(graphs, m1, h)
        assert (len(train), len(valid), len(test)) == (12, 4, 4)
        assert read_split_manifest(str(tmp_path / "m1.json")) == m1

    def test_hash_mismatch_rejected(self, tmp_path):
        graphs = generate_synthetic(20, seed=1)
        m = write_split_manifest(str(tmp_path / "m.json"), 20, seed=9,
                                 valid_size=4, test_size=4, dataset_hash="aaaa")
        with pytest.raises(ContractError):
            apply_split_manifest(graphs, m, "bbbb")

    def test_matches_split_dataset(self, tmp_path):
        from mpnnkit.training import split_dataset
        graphs = generate_synthetic(15, seed=2)
        m = write_split_manifest(str(tmp_path / "m.json"), 15, seed=4,
                                 valid_size=3, test_size=3, dataset_hash="x")
        by_manifest = apply_split_manifest(graphs, m)
        direct = split_dataset(graphs, seed=4, valid_size=3, test_size=3)
        assert by_manifest == tuple(direct)


class TestSynthetic:
    def test_deterministic(self):
        assert generate_synthetic(5, seed=7) == generate_synthetic(5, seed=7)
        assert generate_synthetic(5, seed=7) != generate_synthetic(5, seed=8)

    def test_invariants_and_sizes(self):
        for g in generate_synthetic(40, seed=0):
            g.validate()
            assert 3 <= g.n_atoms <= 9
            assert g.targets is not None and len(g.targets) == 13

    def test_degree_sum_target_recount(self):
        for g in generate_synthetic(30, seed=5):
            degree = [0] * g.n_atoms
            for b in g.bonds:
                degree[b.i] += 1
                degree[b.j] += 1
            assert g.targets[0] == sum(degree)

    def test_double_bond_count_target(self):
        found_double = False
        for g in generate_synthetic(30, seed=6):
            n_double = sum(1 for b in g.bonds if b.bond_type == "double")
            found_double |= n_double > 0
            assert g.targets[1] == n_double
        assert found_double

    def test_mean_distance_target(self):
        for g in generate_synthetic(10, seed=7):
            pos = g.positions()
            dists = [np.linalg.norm(pos[i] - pos[j])
                     for i, j in itertools.combinations(range(g.n_atoms), 2)]
            assert g.targets[2] == pytest.approx(np.mean(dists), rel=1e-12)

    def test_valence_respected(self):
        for g in generate_synthetic(40, seed=9):
            used = [0] * g.n_atoms
            for b in g.bonds:
                used[b.i] += BOND_ORDER[b.bond_type]
                used[b.j] += BOND_ORDER[b.bond_type]
            for k, a in enumerate(g.atoms):
                assert used[k] + a.hydrogen_count == VALENCE[a.element]

    def test_count_validation(self):
        with pytest.raises(ContractError):
            generate_synthetic(0, seed=0)
