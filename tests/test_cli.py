"""CLI tests: argument handling, artifact layout, exit codes, and the
zero-checkpoint evaluation contract."""

import dataclasses
import hashlib
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mpnnkit.cli as cli
import mpnnkit.qm9 as qm9
from mpnnkit.cli import main
from mpnnkit.engine import ModelConfig, _directed, init_params
from mpnnkit.model import prepare_graph
from mpnnkit.qm9 import read_dataset, read_split_manifest
from mpnnkit.tensor import Tensor, _read_json, save_params
from mpnnkit.training import (
    SearchResult,
    TargetStats,
    TrainConfig,
    TrialResult,
    targets_matrix,
)
from test_qm9_io import CH4

TRAIN_FLAGS = ["--message", "matmul", "--readout", "ggnn", "--dim", "16",
               "--t", "1", "--steps", "20", "--eval-every", "10",
               "--lr", "5e-4", "--decay-factor", "1.0", "--targets", "0"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    out = root / "data.jsonl"
    code = main(["prepare", "--synthetic", "24", "--seed", "1",
                 "--out", str(out), "--valid-size", "4", "--test-size", "4"])
    assert code == 0
    return {"data": str(out), "manifest": str(out) + ".manifest.json"}


def write_meta(path, dataset, cfg, tc, **blocks):
    """meta.json as ``train`` writes it: hashes of the dataset and manifest,
    target stats of the training split; ``blocks`` replace entries."""
    graphs, _ = read_dataset(dataset["data"])
    train = [graphs[i] for i in read_split_manifest(dataset["manifest"])["train"]]
    stats = TargetStats.from_matrix(targets_matrix(train, tc.target_indices),
                                    tc.target_names)
    meta = {"schema": "mpnnkit/run/v1", "model": dataclasses.asdict(cfg),
            "train": dataclasses.asdict(tc), "stats": stats.to_dict(),
            "dataset_sha256": qm9.file_sha256(dataset["data"]),
            "manifest_sha256": qm9.file_sha256(dataset["manifest"]),
            "best_step": tc.total_steps}
    meta.update(blocks)
    path.write_text(json.dumps(meta))


class TestPrepare:
    def test_synthetic_artifacts(self, dataset):
        graphs, header = read_dataset(dataset["data"])
        assert header["count"] == 24 and len(graphs) == 24
        manifest = read_split_manifest(dataset["manifest"])
        assert len(manifest["train"]) == 16
        assert manifest["dataset_sha256"] == qm9.file_sha256(dataset["data"])

    def test_xyz_three_records(self, tmp_path):
        qm9._warned_missing_flags = True
        xyz = tmp_path / "mols.xyz"
        xyz.write_text(CH4 * 3)
        out = tmp_path / "d.jsonl"
        assert main(["prepare", "--xyz", str(xyz), "--out", str(out),
                     "--valid-size", "1", "--test-size", "1"]) == 0
        graphs, header = read_dataset(str(out))
        assert header["count"] == 3
        assert all(g.n_atoms == 1 for g in graphs)  # hydrogens folded

    def test_explicit_h_flag(self, tmp_path):
        qm9._warned_missing_flags = True
        xyz = tmp_path / "m.xyz"
        xyz.write_text(CH4 * 3)
        out = tmp_path / "d.jsonl"
        assert main(["prepare", "--xyz", str(xyz), "--explicit-h",
                     "--out", str(out), "--valid-size", "1",
                     "--test-size", "1"]) == 0
        graphs, header = read_dataset(str(out))
        assert header["explicit_hydrogens"] is True
        assert graphs[0].n_atoms == 5

    def test_xyz_directory_input(self, tmp_path):
        qm9._warned_missing_flags = True
        d = tmp_path / "xyzdir"
        d.mkdir()
        (d / "a.xyz").write_text(CH4)
        (d / "b.xyz").write_text(CH4)
        (d / "c.xyz").write_text(CH4)
        (d / "ignore.txt").write_text("not xyz")
        out = tmp_path / "d.jsonl"
        assert main(["prepare", "--xyz", str(d), "--out", str(out),
                     "--valid-size", "1", "--test-size", "1"]) == 0
        assert read_dataset(str(out))[1]["count"] == 3

    @pytest.mark.parametrize("flag", ["--valid-size", "--test-size"])
    def test_zero_split_size_rejected(self, tmp_path, capsys, flag):
        assert main(["prepare", "--synthetic", "24", "--out",
                     str(tmp_path / "d.jsonl"), flag, "0"]) == 1
        assert "split sizes must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [["--valid-size", "0"],
                                       ["--test-size", "30"]])
    def test_rejected_split_writes_no_files(self, tmp_path, sizes):
        assert main(["prepare", "--synthetic", "30", "--out",
                     str(tmp_path / "z.jsonl")] + sizes) == 1
        assert list(tmp_path.iterdir()) == []

    def test_synthetic_dataset_bytes_pinned(self, tmp_path):
        # evaluate refuses data whose sha256 differs from the one recorded
        # at train time, so re-prepared data must keep these bytes
        out = tmp_path / "d.jsonl"
        assert main(["prepare", "--synthetic", "50", "--seed", "3",
                     "--out", str(out)]) == 0
        assert qm9.file_sha256(str(out)) == (
            "01e9eed515c8b0f243f5044bf1bfe11fec19e3178c38418150742d4eb37414da")

    def test_encoded_arrays_bytes_pinned(self, tmp_path):
        # The arrays the model sees, for every edge representation with
        # virtual edges on and off, pinned from before virtual edges became
        # part of the chemical encoding.
        out = tmp_path / "d.jsonl"
        assert main(["prepare", "--synthetic", "50", "--seed", "3",
                     "--out", str(out)]) == 0
        graphs, _ = read_dataset(str(out))
        digest = hashlib.sha256()
        for edge_repr in ("chemical", "distance_bins", "raw_distance"):
            for virtual_edges in (False, True):
                cfg = ModelConfig(message_fn="edge_network", edge_repr=edge_repr,
                                  virtual_edges=virtual_edges)
                for g in graphs:
                    eg = prepare_graph(g, cfg)
                    # the directed edges the engine reads, each pair both ways
                    for a in (eg.node_features, *_directed([eg])):
                        digest.update(f"{a.dtype.str}{a.shape}".encode())
                        digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "3a23d8ea6aa788f79c3c729687792b9fb7ebdaf8c8efdd4dcc5bddad2e57cb4f")

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        out = str(tmp_path / "d.jsonl")
        assert main(["prepare", "--out", out]) == 1
        assert main(["prepare", "--out", out, "--synthetic", "5",
                     "--xyz", "x.xyz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_targets_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x", "--manifest", "m",
                  "--out-dir", "o", "--targets", "homo"])
        assert exc.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--manifest", str(tmp_path / "m.json"),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err


class TestFreedMemory:
    @pytest.mark.parametrize("command, kept", [
        (["train", "--out-dir", "o"], True),
        (["evaluate", "--checkpoint", "c", "--meta", "m", "--out", "r"], True),
        (["search", "--out-dir", "o"], True),
        (["prepare", "--out", "d.jsonl"], False),
    ], ids=["train", "evaluate", "search", "prepare"])
    def test_only_commands_that_train_or_evaluate_keep_freed_memory(
            self, monkeypatch, tmp_path, command, kept):
        calls = []
        monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append(1))
        monkeypatch.chdir(tmp_path)
        data = [] if command[0] == "prepare" else ["--data", "nope.jsonl",
                                                   "--manifest", "nope.json"]
        assert main(command + data) == 1  # missing input or source
        assert calls == ([1] if kept else [])

    def test_glibc_keeps_freed_memory(self):
        import platform
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt is glibc's")
        assert cli.keep_freed_memory() is True


class TestTrainCommand:
    def run_train(self, dataset, out_dir, seed="2"):
        return main(["train", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--out-dir", str(out_dir), "--seed", seed] + TRAIN_FLAGS)

    def test_artifacts(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert self.run_train(dataset, out) == 0
        for name in ("run.jsonl", "checkpoint.json", "report.csv", "meta.json"):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["schema"] == "mpnnkit/run/v1"
        assert meta["model"]["message_fn"] == "matmul"
        assert meta["train"]["targets"] == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "target,mae,chemical_accuracy,error_ratio"
        assert report[1].startswith("mu,")

    def test_identical_seeds_identical_logs(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(dataset, a) == 0
        assert self.run_train(dataset, b) == 0
        assert (a / "run.jsonl").read_bytes() == (b / "run.jsonl").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == \
               (b / "checkpoint.json").read_bytes()

    def test_different_seed_differs(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(dataset, a, seed="2") == 0
        assert self.run_train(dataset, b, seed="3") == 0
        assert (a / "run.jsonl").read_bytes() != (b / "run.jsonl").read_bytes()


class TestEvaluateCommand:
    def test_zero_checkpoint_predicts_training_mean(self, dataset, tmp_path):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        params = init_params(cfg, seed=0)
        for p in params.values():
            p.data[...] = 0.0
        ckpt = tmp_path / "zeros.json"
        save_params(params, str(ckpt))
        tc = TrainConfig(total_steps=10, targets=0)
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, tc)

        out = tmp_path / "report.csv"
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--split", "train", "--out", str(out)]) == 0

        # normalized predictions are exactly zero, so the reported MAE is
        # the mean absolute deviation of the training targets
        graphs, _ = read_dataset(dataset["data"])
        manifest = read_split_manifest(dataset["manifest"])
        y = np.array([graphs[i].targets[0] for i in manifest["train"]])
        expected = np.mean(np.abs(y - y.mean()))
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "mu"
        assert float(row[1]) == pytest.approx(expected, abs=1e-9)

    def test_checkpoint_config_mismatch(self, dataset, tmp_path, capsys):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        wrong = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=8,
                            n_targets=1, edge_repr="chemical")
        ckpt = tmp_path / "w.json"
        save_params(init_params(wrong, seed=0), str(ckpt))
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, TrainConfig(total_steps=10, targets=0))
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert "does not match" in err
        assert "'msg_in_A0' has shape (1, 8, 8), the model needs (1, 16, 16)" in err

    def test_per_tower_checkpoint_refused(self, dataset, tmp_path, capsys):
        # Checkpoints written before tower weights were stacked hold one
        # 2-D matrix per tower (msg_in_t0_A0, gru_t0_wz, ...); the model
        # names each stack once (msg_in_A0, gru_wz, ...).
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        old = {}
        for name, p in init_params(cfg, seed=0).items():
            tower_name = re.sub(r"^(msg_in|msg_out|gru)_", r"\1_t0_", name)
            old[tower_name] = Tensor(p.data[0]) if tower_name != name else p
        assert "msg_in_t0_A0" in old and "gru_t0_wz" in old
        ckpt = tmp_path / "old.json"
        save_params(old, str(ckpt))
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, TrainConfig(total_steps=10, targets=0))
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert "Traceback" not in err and len(errors) == 1, err
        assert str(ckpt) in errors[0] and "lacks parameter 'msg_in_A0'" in errors[0]

    def test_invalid_train_block_rejected(self, dataset, tmp_path, capsys):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        ckpt = tmp_path / "p.json"
        save_params(init_params(cfg, seed=0), str(ckpt))
        tc = TrainConfig(total_steps=10, targets=0)
        train = dataclasses.asdict(tc)
        train["targets"] = 13
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, tc, train=train)
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "targets" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["model", "train"])
    def test_unknown_field_rejected(self, dataset, tmp_path, capsys, block):
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        ckpt = tmp_path / "p.json"
        save_params(init_params(cfg, seed=0), str(ckpt))
        tc = TrainConfig(total_steps=10, targets=0)
        fields = dataclasses.asdict(cfg if block == "model" else tc)
        fields["unknown_field"] = 1
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, tc, **{block: fields})
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_normalizes_with_stored_stats(self, dataset, tmp_path):
        # A zero checkpoint predicts the stored mean, not the mean of the
        # training split it is handed.
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        params = init_params(cfg, seed=0)
        for p in params.values():
            p.data[...] = 0.0
        ckpt = tmp_path / "zeros.json"
        save_params(params, str(ckpt))
        meta_path = tmp_path / "meta.json"
        stats = {"names": ["mu"], "mean": [7.5], "std": [2.0]}
        write_meta(meta_path, dataset, cfg, TrainConfig(total_steps=10, targets=0),
                   stats=stats)
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--split", "train", "--out", str(out)]) == 0
        graphs, _ = read_dataset(dataset["data"])
        manifest = read_split_manifest(dataset["manifest"])
        y = np.array([graphs[i].targets[0] for i in manifest["train"]])
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(np.mean(np.abs(y - 7.5)), abs=1e-9)

        # stats stored for another target are refused
        write_meta(meta_path, dataset, cfg, TrainConfig(total_steps=10, targets=0),
                   stats=dict(stats, names=["alpha"]))
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(out)]) == 1

    @pytest.mark.parametrize("std", [0, -1])
    def test_stats_without_a_positive_std_refused(self, dataset, tmp_path, capsys, std):
        # such stats cannot normalize: they would report an MAE of nan or
        # of the wrong sign
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        ckpt = tmp_path / "p.json"
        save_params(init_params(cfg, seed=0), str(ckpt))
        meta_path = tmp_path / "meta.json"
        write_meta(meta_path, dataset, cfg, TrainConfig(total_steps=10, targets=0),
                   stats={"names": ["mu"], "mean": [0.0], "std": [std]})
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--checkpoint", str(ckpt), "--meta", str(meta_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path}: ") and "'mu'" in err
        assert not out.exists()

    def test_other_dataset_or_manifest_rejected(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--out-dir", str(run), "--seed", "2"] + TRAIN_FLAGS) == 0
        other = tmp_path / "other.jsonl"
        assert main(["prepare", "--synthetic", "24", "--seed", "2",
                     "--out", str(other), "--valid-size", "4",
                     "--test-size", "4"]) == 0
        resplit = tmp_path / "resplit.json"
        qm9.write_split_manifest(str(resplit), 24, seed=5, valid_size=4,
                                 test_size=4,
                                 dataset_hash=qm9.file_sha256(dataset["data"]))
        capsys.readouterr()
        for data, manifest in ((str(other), str(other) + ".manifest.json"),
                               (dataset["data"], str(resplit))):
            assert main(["evaluate", "--data", data, "--manifest", manifest,
                         "--checkpoint", str(run / "checkpoint.json"),
                         "--meta", str(run / "meta.json"),
                         "--out", str(tmp_path / "r.csv")]) == 1
            assert "not the file this run was trained with" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_each_file_is_hashed_once_per_command(self, dataset, tmp_path, monkeypatch):
        # train hashes the dataset once, to match the manifest and for
        # meta.json, and evaluate once, to match both
        hashed, file_sha256 = [], cli.file_sha256
        monkeypatch.setattr(cli, "file_sha256", lambda path: hashed.append(path)
                            or file_sha256(path))
        run = tmp_path / "run"
        files = ["--data", dataset["data"], "--manifest", dataset["manifest"]]
        assert main(["train"] + files + ["--out-dir", str(run)] + TRAIN_FLAGS) == 0
        assert sorted(hashed) == sorted([dataset["data"], dataset["manifest"]])
        hashed.clear()
        assert main(["evaluate"] + files + ["--checkpoint", str(run / "checkpoint.json"),
                                            "--meta", str(run / "meta.json"),
                                            "--out", str(tmp_path / "r.csv")]) == 0
        assert sorted(hashed) == sorted([dataset["data"], dataset["manifest"]])


def cut(obj):
    """An edit whose result is its line cut in half: text that is not JSON."""
    return cut


def put(*path_and_value):
    """An edit that sets the value at a path of keys and indices."""
    *path, value = path_and_value

    def edit(obj):
        inner = obj
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        return obj
    return edit


class TestMalformedInputs:
    """A file that lacks a field the command reads, holds JSON of the wrong
    kind or type, or is not JSON at all, is refused with one ``error:`` line
    naming the file, not a traceback or a silent coercion."""

    @staticmethod
    def error_line(dataset, tmp_path, capsys, file, row, edit):
        """Rewrite JSON line ``row`` of ``file`` with ``edit``, run the command
        that reads it, and return (its one error line, the broken file)."""
        cfg = ModelConfig(message_fn="matmul", readout="ggnn", T=1, d=16,
                          n_targets=1, edge_repr="chemical")
        files = dict(dataset, checkpoint=str(tmp_path / "p.json"),
                     meta=str(tmp_path / "meta.json"))
        save_params(init_params(cfg, seed=0), files["checkpoint"])
        write_meta(pathlib.Path(files["meta"]), dataset, cfg,
                   TrainConfig(total_steps=10, targets=0))

        lines = pathlib.Path(files[file]).read_text().splitlines()
        edited = edit(json.loads(lines[row]))
        lines[row] = (lines[row][:len(lines[row]) // 2] if edited is cut
                      else json.dumps(edited))
        files[file] = str(tmp_path / f"broken_{file}")
        pathlib.Path(files[file]).write_text("\n".join(lines) + "\n")

        argv = ["--data", files["data"], "--manifest", files["manifest"]]
        if file in ("checkpoint", "meta"):
            argv = ["evaluate"] + argv + [
                "--checkpoint", files["checkpoint"], "--meta", files["meta"],
                "--out", str(tmp_path / "r.csv")]
        else:
            argv = ["train"] + argv + ["--out-dir", str(tmp_path / "run")] + TRAIN_FLAGS
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        return errors[0], files[file]

    @pytest.mark.parametrize("file, field, row", [
        ("manifest", "train", 0),    # train: split manifest
        ("data", "count", 0),        # train: dataset header
        ("data", "bonds", 1),        # train: dataset record
        ("checkpoint", "shape", 0),  # evaluate: checkpoint entry
        ("meta", "T", 0),            # evaluate: model config, not its default
    ])
    def test_missing_field_is_an_error_line(self, dataset, tmp_path, capsys,
                                            file, field, row):
        def drop(obj):
            inner = {"checkpoint": "ro_i_w1", "meta": "model"}.get(file)
            del (obj[inner] if inner else obj)[field]
            return obj

        error, path = self.error_line(dataset, tmp_path, capsys, file, row, drop)
        assert repr(field) in error
        if file == "meta":
            assert path in error and "missing" in error

    @pytest.mark.parametrize("file, row, edit, where", [
        ("manifest", 0, lambda obj: [1], ""),
        ("data", 0, lambda obj: [1], "line 1"),
        ("data", 1, lambda obj: [1, 2], "line 2"),
        ("checkpoint", 0, lambda obj: [1], ""),
        ("checkpoint", 0, lambda obj: dict(obj, ro_i_w1=1), "'ro_i_w1'"),
        ("meta", 0, lambda obj: [1], ""),
    ], ids=["manifest", "header", "record", "checkpoint", "checkpoint-entry", "meta"])
    def test_non_object_json_is_an_error_line(self, dataset, tmp_path, capsys,
                                              file, row, edit, where):
        error, path = self.error_line(dataset, tmp_path, capsys, file, row, edit)
        assert path in error and where in error and "not a JSON object" in error

    @pytest.mark.parametrize("file, row, edit, where", [
        ("manifest", 0, cut, ""),
        ("data", 0, cut, "line 1"),
        ("data", 1, cut, "line 2"),
        ("checkpoint", 0, cut, ""),
        ("meta", 0, cut, ""),
        # json.dumps writes the non-standard tokens NaN and Infinity
        ("data", 1, put("targets", 0, float("nan")), "line 2"),
        ("checkpoint", 0, put("ro_i_w1", "values", 0, float("-inf")), ""),
    ], ids=["manifest", "header", "record", "checkpoint", "meta", "record_nan",
            "checkpoint_infinity"])
    def test_text_that_is_not_json_is_an_error_line(self, dataset, tmp_path,
                                                    capsys, file, row, edit,
                                                    where):
        error, path = self.error_line(dataset, tmp_path, capsys, file, row, edit)
        assert path in error and where in error and "not valid JSON" in error
        if file == "data":
            # the line within the file, not within the record
            assert "line 1" not in error.replace(where, "")

    @pytest.mark.parametrize("file, row, edit, where", [
        ("data", 1, put("atoms", 5), "'atoms'"),
        ("data", 1, put("atoms", 0, "acceptor", "false"), "'acceptor'"),
        ("data", 1, put("atoms", 0, "hydrogen_count", 1.7), "'hydrogen_count'"),
        ("data", 1, put("bonds", 0, "i", 0.5), "'i'"),
        ("data", 1, put("bonds", 0, "type", "virtual"), "'virtual'"),
        ("data", 0, put("count", "24"), "'count'"),
        ("manifest", 0, put("train", 0, "a"), "'train'"),
        ("manifest", 0, put("valid", 0, True), "'valid'"),
        ("meta", 0, put("model", "d", 16.0), "'d'"),
        ("meta", 0, put("train", "targets", True), "'targets'"),
        ("meta", 0, put("stats", "mean", ["7.5"]), "'mean'"),
        ("checkpoint", 0, put("ro_i_w1", "values", 0, "1.5"), "'values'"),
        ("checkpoint", 0, put("ro_i_w1", "shape", 0, 2.0), "'shape'"),
    ], ids=["atoms", "acceptor", "hydrogen_count", "bond_i", "virtual_bond",
            "count", "manifest_index", "manifest_bool_index", "meta_model",
            "meta_train", "meta_stats", "checkpoint_values",
            "checkpoint_shape"])
    def test_wrong_json_type_is_an_error_line(self, dataset, tmp_path, capsys,
                                              file, row, edit, where):
        error, path = self.error_line(dataset, tmp_path, capsys, file, row, edit)
        assert path in error and where in error
        if file == "data":
            assert f"line {row + 1}" in error

    @pytest.mark.parametrize("edit, where", [
        (put("atoms", 0, "hydrogen_cont", 3), "'hydrogen_cont'"),
        (put("bonds", 0, "lenght", 1.5), "'lenght'"),
        (lambda obj: dict(obj, target=obj.pop("targets")), "'target'"),
    ], ids=["atom", "bond", "record"])
    def test_unknown_record_field_is_an_error_line(self, dataset, tmp_path,
                                                   capsys, edit, where):
        # a misspelled field must not load as the default it misspells
        error, path = self.error_line(dataset, tmp_path, capsys, "data", 1, edit)
        assert path in error and "line 2" in error and where in error

    @pytest.mark.parametrize("kind, field", [
        ("bonds", "i"), ("atoms", "element"), ("atoms", "hydrogen_count"),
    ], ids=["bond_i", "atom_element", "atom_hydrogen_count"])
    def test_missing_atom_or_bond_field_is_an_error_line(self, dataset, tmp_path, capsys,
                                                         kind, field):
        # neither loads as its default nor escapes as a KeyError
        def drop(obj):
            del obj[kind][0][field]
            return obj

        error, path = self.error_line(dataset, tmp_path, capsys, "data", 1, drop)
        assert path in error and "line 2" in error
        assert f"{kind[:-1]} 0 is missing field {field!r}" in error

    @pytest.mark.parametrize("file, edit, where", [
        ("data", put("comment", "x"), "'comment'"),
        ("manifest", put("note", "x"), "'note'"),
        ("checkpoint", put("ro_i_w1", "dtype", "float32"), "'dtype'"),
        ("meta", put("notes", "x"), "'notes'"),
        ("meta", put("stats", "median", [7.5]), "'median'"),
    ], ids=["header", "manifest", "checkpoint_entry", "meta", "meta_stats"])
    def test_unknown_extra_field_is_an_error_line(self, dataset, tmp_path, capsys,
                                                  file, edit, where):
        error, path = self.error_line(dataset, tmp_path, capsys, file, 0, edit)
        assert path in error and "unknown field" in error and where in error
        if file == "data":
            assert "line 1" in error
        if file == "checkpoint":
            assert "'ro_i_w1'" in error

    @pytest.mark.parametrize("file", ["data", "manifest", "meta"])
    def test_unknown_schema_is_an_error_line(self, dataset, tmp_path, capsys, file):
        # each file kind refuses a schema it does not know in the shared
        # check's wording; the dataset's names its line, as its other
        # header refusals do
        error, path = self.error_line(dataset, tmp_path, capsys, file, 0,
                                      put("schema", "mpnnkit/other/v9"))
        assert path in error
        assert "field 'schema' names an unknown schema: 'mpnnkit/other/v9'" in error
        if file == "data":
            assert "line 1" in error

    @pytest.mark.parametrize("file, edit, where", [
        ("data", put("count", True), "'count'"),
        ("manifest", put("seed", True), "'seed'"),
        ("checkpoint", put("ro_i_w1", "shape", 0, True), "'shape'"),
        ("meta", put("best_step", True), "'best_step'"),
    ], ids=["header_count", "manifest_seed", "checkpoint_shape", "meta_best_step"])
    def test_bool_where_an_int_is_due_is_an_error_line(self, dataset, tmp_path, capsys,
                                                       file, edit, where):
        error, path = self.error_line(dataset, tmp_path, capsys, file, 0, edit)
        assert path in error and where in error and "wrong JSON type" in error
        assert "True" in error

    @pytest.mark.parametrize("edit, where", [
        (put("train", 0, 99), "train index 99 is out of range"),
        (lambda obj: dict(obj, valid=obj["train"][:1] + obj["valid"][1:]),
         "appears in train and in valid"),
        (lambda obj: dict(obj, test=obj["test"][:1] * 2 + obj["test"][2:]),
         "appears twice in test"),
    ], ids=["out_of_range", "overlap", "repeat"])
    def test_bad_manifest_index_is_an_error_line(self, dataset, tmp_path,
                                                 capsys, edit, where):
        error, path = self.error_line(dataset, tmp_path, capsys, "manifest", 0, edit)
        assert path in error and where in error

    @staticmethod
    def xyz_error_line(tmp_path, capsys, row, text):
        """Run ``prepare`` on CH4 and a copy of it whose line ``row`` is
        ``text``; return the one error line and the broken file."""
        qm9._warned_missing_flags = True
        good, bad = tmp_path / "a.xyz", tmp_path / "b.xyz"
        good.write_text(CH4)
        lines = CH4.splitlines()
        lines[row] = text
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["prepare", "--xyz", str(good), str(bad),
                     "--out", str(tmp_path / "d.jsonl")]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert "Traceback" not in err and len(errors) == 1, err
        return errors[0], bad

    def test_bad_xyz_record_names_its_file(self, tmp_path, capsys):
        error, bad = self.xyz_error_line(tmp_path, capsys, 2, "C 0.0 0.0")
        assert f"{bad}: line 3" in error

    @pytest.mark.parametrize("row, old, token", [
        (1, "13.21", "NaN"),                   # a property
        (2, "1.0858041578", "inf"),            # a coordinate
        (7, "3151.7078", "-Infinity"),         # a frequency
    ], ids=["property_nan", "coordinate_inf", "frequency_infinity"])
    def test_non_finite_xyz_value_is_an_error_line(self, tmp_path, capsys,
                                                   row, old, token):
        line = CH4.splitlines()[row]
        assert old in line
        error, bad = self.xyz_error_line(tmp_path, capsys, row,
                                         line.replace(old, token))
        assert f"{bad}: line {row + 1}" in error and "not a finite number" in error

    @pytest.mark.parametrize("text", ['[[0, 1, "single"', '[[0.5, 1, 1]]'],
                             ids=["not_json", "index_type"])
    def test_bad_bond_file_is_an_error_line(self, tmp_path, capsys, text):
        qm9._warned_missing_flags = True
        xyz = tmp_path / "m.xyz"
        xyz.write_text(CH4)
        bonds = tmp_path / "bonds.json"
        bonds.write_text(text)
        capsys.readouterr()
        assert main(["prepare", "--xyz", str(xyz), "--explicit-h",
                     "--bond-file", str(bonds), "--out", str(tmp_path / "d.jsonl"),
                     "--valid-size", "1", "--test-size", "1"]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert "Traceback" not in err and len(errors) == 1, err
        assert str(bonds) in errors[0]


def test_every_model_field_is_set_by_the_cli(monkeypatch):
    # A ModelConfig field that no flag sets is a setting nothing uses.
    # train_run sets n_targets from the selected targets.
    monkeypatch.setattr(cli, "ModelConfig", lambda **kwargs: kwargs)
    args = cli.build_parser().parse_args(
        ["train", "--data", "d", "--manifest", "m", "--out-dir", "o"])
    kwargs = cli._model_config(args, False)
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    assert set(kwargs) == names - {"n_targets"}


def test_training_flags_default_to_the_train_config():
    # the training flags take TrainConfig's defaults, not copies
    args = cli.build_parser().parse_args(
        ["train", "--data", "d", "--manifest", "m", "--out-dir", "o"])
    got, want = cli._train_config(args), TrainConfig(total_steps=args.steps)
    for field in ("batch_size", "init_lr", "decay_start_fraction", "decay_factor",
                  "targets", "eval_every"):
        assert getattr(got, field) == getattr(want, field)


class TestSearchCommand:
    def test_runs_and_writes_results(self, dataset, tmp_path):
        out = tmp_path / "search"
        assert main(["search", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--out-dir", str(out), "--trials", "2",
                     "--search-messages", "matmul", "--seed", "4",
                     "--message", "matmul", "--readout", "ggnn",
                     "--dim", "16", "--steps", "8", "--eval-every", "4",
                     "--targets", "0"]) == 0
        payload = json.loads((out / "search.json").read_text())
        assert len(payload["trials"]) == 2
        assert payload["best_index"] in (0, 1)
        assert all("sampled" in t for t in payload["trials"])

    def test_failed_trial_writes_null(self, dataset, tmp_path, monkeypatch):
        # JSON has no Infinity: a failed trial has no validation MAE
        trials = [TrialResult(index=0, sampled={}, failed=True, error="diverged"),
                  TrialResult(index=1, sampled={}, failed=False,
                              best_valid_mae=0.5, test_mae_per_target={"mu": 0.4})]
        monkeypatch.setattr(cli, "random_search",
                            lambda *args, **kwargs: SearchResult(trials, 1))
        out = tmp_path / "search"
        assert main(["search", "--data", dataset["data"],
                     "--manifest", dataset["manifest"],
                     "--out-dir", str(out)]) == 0
        payload = _read_json(str(out / "search.json"))
        assert [t["best_valid_mae"] for t in payload["trials"]] == [None, 0.5]

    def test_unknown_message_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--data", "x", "--manifest", "m", "--out-dir", "o",
                  "--search-messages", "edgenet,foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'foo'" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, capsys, workers):
        # zero or negative workers would run the trials one by one
        with pytest.raises(SystemExit) as exc:
            main(["search", "--data", "x", "--manifest", "m", "--out-dir", "o",
                  "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err


class TestDiagnostics:
    def test_bench_towers(self, capsys):
        assert main(["bench-towers", "--d", "32", "--n", "6"]) == 0
        captured = capsys.readouterr().out
        assert "ratio: 0.1250" in captured

    @pytest.mark.parametrize("threads, shown", [
        ("1", "OPENBLAS_NUM_THREADS=1"),
        (None, "OPENBLAS_NUM_THREADS unset: BLAS default threads"),
    ], ids=["pinned", "unset"])
    def test_bench_towers_names_blas_threads(self, capsys, monkeypatch, threads, shown):
        # the wall-clock ratio is only comparable at one BLAS thread count
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert main(["bench-towers", "--d", "32", "--n", "6"]) == 0
        wall = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("wall clock")]
        assert len(wall) == 1 and shown in wall[0]

    def test_bench_towers_needs_an_edge(self, capsys):
        # one node has no edges, so both message costs are zero
        assert main(["bench-towers", "--d", "32", "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n=1" in err

    @pytest.mark.parametrize("suite", ["all", "invariance", "batching", "spectral"])
    @pytest.mark.parametrize("graphs", ["0", "-3"])
    def test_verify_needs_a_graph(self, capsys, suite, graphs):
        # a sweep over no graphs checks nothing and must not print PASS
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--graphs", graphs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--graphs: must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_verify_spectral(self, capsys):
        assert main(["verify", "spectral", "--graphs", "10"]) == 0
        captured = capsys.readouterr().out
        assert captured.count("PASS") == 2 and "FAIL" not in captured

    def test_verify_invariance_small(self, capsys):
        assert main(["verify", "invariance", "--graphs", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_batching_small(self, capsys):
        # three graphs per config, topped up past the union byte bound
        assert main(["verify", "batching", "--graphs", "3"]) == 0
        captured = capsys.readouterr().out
        assert "batching" in captured and "PASS" in captured

    def test_verify_batching_fails_when_the_batch_stays_one_union(self, capsys, monkeypatch):
        # with no bound in reach the check cannot split its batch
        from mpnnkit import checks, model
        cfg = next(checks._sweep_configs())
        monkeypatch.setattr(checks, "_sweep_configs", lambda: [cfg])
        monkeypatch.setattr(model, "UNION_BYTES", 1 << 60)
        assert main(["verify", "batching", "--graphs", "2"]) == 1
        captured = capsys.readouterr().out
        assert "at least 1 unions each" in captured and "FAIL" in captured

    def test_verify_gradients_prints_the_entries_compared_above_the_floor(self, capsys,
                                                                          monkeypatch):
        # a config reads rel err 0 when every difference falls under the
        # floor; its line says how many entries the error was taken over
        from mpnnkit import checks
        monkeypatch.setattr(checks, "GRADIENT_CONFIGS", tuple(
            c for c in checks.GRADIENT_CONFIGS if c[0] in ("matmul+ggnn", "dtnn+ggnn")))
        want = {c["label"]: c for c in checks.run_gradient_checks(seed=0)["checks"]}
        assert want["dtnn+ggnn"]["above_floor"] == 0 < want["matmul+ggnn"]["above_floor"]
        assert main(["verify", "gradients"]) == 0
        out = capsys.readouterr().out.splitlines()
        for line, (label, check) in zip(out, want.items()):
            assert line == (f"  gradient {label}: rel err {check['max_rel_err']:.3e} "
                            f"({check['params_checked']} parameters, "
                            f"{check['above_floor']} above the 1e-08 floor)")

    def test_verify_spectral_fails_when_the_suite_says_so(self, capsys, monkeypatch):
        # the verdict is the suite's: push the convolution's message form
        # past its tolerance and only that line fails
        from mpnnkit import spectral
        exact = spectral.gcn_as_mpnn
        monkeypatch.setattr(spectral, "gcn_as_mpnn",
                            lambda H, layer: exact(H, layer) + 1e-6)
        assert main(["verify", "spectral", "--graphs", "5"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in out] == ["PASS", "FAIL"]
        assert out[1].startswith("graph convolution equivalence")

    def test_console_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "mpnnkit.cli",
                                 "verify", "spectral", "--graphs", "5"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "PASS" in result.stdout
