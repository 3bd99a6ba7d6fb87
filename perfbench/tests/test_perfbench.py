"""Tests of the benchmark itself: metric coverage, seeding, gate, tracing.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from mpnnkit import model
from mpnnkit import tensor as tt
from perfbench import harness, speed, tracing
from perfbench import run as run_cli
from perfbench.workloads import WORKLOADS, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
        assert m["bound"] <= setup["bound"]
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.match(m["name"]), m
        assert "unit" not in m or UNIT.match(m["unit"]), m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads(lines[-2][len("# record "):])
    assert {"python", "numpy", "blas", "nproc", "cpu",
            "freed_memory_kept"} <= set(record["environment"])
    assert record["environment"]["blas_threads"] == "1"
    assert {"mean_atoms", "max_atoms", "mean_directed_edges",
            "share_ge_18_nodes"} <= set(record["traffic"])
    if trace and workload == "towers-matmul":
        assert result["metrics"]["checks.bench_towers.multiply_ratio"]["value"] == 0.125


def test_inputs_are_seeded():
    w = WORKLOADS["dense-explicit-h"]
    first, again, other = (make_inputs(w, s) for s in (5, 5, 6))
    as_dicts = lambda sets: [g.to_dict() for part in sets for g in part]
    assert as_dicts(first) == as_dicts(again)
    assert as_dicts(first) != as_dicts(other)
    for g in first[0] + first[1]:
        assert g.explicit_hydrogens and g.n_atoms <= 29
        assert g.heavy_atom_count() <= 9
        assert all(a.hydrogen_count == 0 for a in g.atoms)


@pytest.fixture(scope="module")
def small_program(tmp_path_factory):
    w = WORKLOADS["small-edgenet"]
    workdir = str(tmp_path_factory.mktemp("small"))
    pool_path, held_out_path, _ = harness._prepare(w, 7, workdir)
    return harness.setup(w, pool_path, held_out_path)


def test_batches_draw_one_graph_from_each_size_band(small_program):
    w = WORKLOADS["small-edgenet"]
    trainer = harness.Trainer(w, small_program, 7)
    bands = trainer.bands
    assert len(bands) == w.batch_size
    assert sorted(np.concatenate(bands)) == list(range(len(small_program.eg_train)))
    edges = [[small_program.eg_train[i].n_edges for i in b] for b in bands]
    assert all(max(lo) <= min(hi) for lo, hi in zip(edges, edges[1:]))
    trainer.step()
    assert [int(np.flatnonzero([i in b for b in bands])[0])
            for i in trainer.first_batch] == list(range(w.batch_size))


def test_clock_scales_by_the_readings_around_each_operation():
    readings = iter([2.0, 4.0, 1.0])
    clock = speed.Clock(lambda: next(readings) * speed.REFERENCE_S)
    clock.reading()
    clock.record("step", 0.3)
    clock.reading()
    clock.record("eval", 0.5)
    clock.reading()
    assert clock.wall("step") == [0.3] and clock.wall("eval") == [0.5]
    assert clock.scaled("step") == pytest.approx([0.3 / 3.0])
    assert clock.scaled("eval") == pytest.approx([0.5 / 2.5])


def test_gate_trips_beyond_its_tolerance(small_program):
    preds, ok, _ = harness.eval_pass(small_program)
    assert all(ok)
    assert harness.gate(small_program, preds, 7)["oracle_ok"]
    near = preds + 0.5 * harness.ORACLE_TOLERANCE
    assert harness.gate(small_program, near, 7)["oracle_ok"]
    off = preds.copy()
    off[harness.GATE_SAMPLE - 1] += 2 * harness.ORACLE_TOLERANCE
    assert not harness.gate(small_program, off, 7)["oracle_ok"]


def test_perturbed_predictions_fail_the_run(monkeypatch, capsys):
    original = model.predict_batch

    def perturbed(egs, params, cfg):
        out = original(egs, params, cfg)
        return tt.add(out, tt.Tensor(np.full(out.data.shape, 1e-9)))

    monkeypatch.setattr(model, "predict_batch", perturbed)
    code = run_cli.main(["--workload", "small-edgenet", "--seed", "7",
                         "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "small-edgenet", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def parent():
        leaf_traced()
        leaf_traced()
        time.sleep(0.002)

    leaf_traced = tracer.wrap("leaf", leaf)
    tracer.phase = "train"
    tracer.wrap("parent", parent)()
    totals = tracer.totals("train")
    assert totals["leaf"]["calls"] == 2 and totals["parent"]["calls"] == 1
    assert totals["parent"]["self_ms"] == pytest.approx(
        totals["parent"]["ms"] - totals["leaf"]["ms"])
    assert totals["parent"]["self_ms"] >= 2.0


def test_installed_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.span_targets()]
    with tracing.installed(tracing.Tracer()):
        assert tt.matmul is not before[0]
    after = [owner.__dict__[attr] for owner, attr, _ in tracing.span_targets()]
    assert after == before
