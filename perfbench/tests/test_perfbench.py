"""Tests of the benchmark itself: tracing, identity, accounting and checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small(workload_cls, **attrs):
    w = workload_cls()
    for k, v in attrs.items():
        setattr(w, k, v)
    return w


def installed_objects():
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for owner, attr, _, _ in tracer._wrap_points()]


def traced_and_plain(workload, seed=3, index=1):
    state = workload.setup(seed)
    plain = workload.op(state, seed, index)
    tr = tracer.Tracer()
    with tr, tr.root():
        traced = workload.op(state, seed, index)
    return plain, traced, tr


@pytest.fixture(scope="module")
def train_run():
    return traced_and_plain(small(workloads.TrainSource, iterations=2))


@pytest.fixture(scope="module")
def bler_run():
    return traced_and_plain(small(workloads.BlerEval, batch=8, blocks_per_point=8))


def test_wrappers_removed_after_traced_run(train_run):
    before = installed_objects()
    tr = tracer.Tracer()
    with tr, tr.root():
        during = installed_objects()
        w = small(workloads.TrainSource, iterations=1)
        w.op(w.setup(0), 0, 0)
    after = installed_objects()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert not any(a[2] is d[2] for a, d in zip(before, during))
    assert len(tr.spans) > 10


def test_wrappers_removed_when_the_traced_call_raises():
    before = installed_objects()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert all(a[2] is b[2] for a, b in zip(before, installed_objects()))


def test_traced_training_losses_are_byte_identical(train_run):
    plain, traced, _ = train_run
    assert plain.output == traced.output
    assert len(plain.output) == 2 * 8


def test_traced_bler_counts_are_identical(bler_run):
    plain, traced, tr = bler_run
    assert plain.output == traced.output
    assert tr.counters["genie_blocks"] == 24
    assert tr.counters["neural_blocks"] == 24
    assert tr.counters["decoded_blocks"] == 48


@pytest.mark.parametrize("fixture", ["train_run", "bler_run"])
def test_self_times_and_remainder_sum_to_wall(fixture, request):
    plain, traced, tr = request.getfixturevalue(fixture)
    total = sum(tr.self_times().values())
    assert total == pytest.approx(tr.wall(), rel=1e-9)
    metrics, accounting = layers.layer_metrics(tr, tracer.Tracer(), [traced], [plain])
    parts = sum(v for k, v in accounting.items() if k != "wall")
    assert parts == pytest.approx(accounting["wall"], rel=1e-9)
    assert accounting["remainder"] >= 0.0
    assert set(metrics) == {m["name"] for m in run.benchmark_spec()["per_layer"]}


def test_training_trace_sees_every_training_layer(train_run):
    _, _, tr = train_run
    metrics, _ = layers.layer_metrics(tr, tracer.Tracer(), [train_run[1]], [train_run[0]])
    for name in ("numerics.conv_fwd_ms", "numerics.conv_bwd_ms", "numerics.layernorm_bwd_ms",
                 "numerics.adam_ms", "chain.simulate_batch_ms", "phy.ldpc_encode_ms",
                 "channel.awgn_ms", "receiver.loss_ms"):
        assert metrics[name] > 0.0, name
    assert metrics["numerics.frozen_bwd_share"] == 0.0
    assert metrics["phy.ldpc_decode_ms_per_block"] == 0.0
    # 1 input conv, 4 blocks of 2 convs plus one projection, 1 output conv;
    # each runs forward and backward once per iteration.
    assert metrics["numerics.conv_calls"] == 2 * (1 + 4 * 2 + 1 + 1)


def test_frozen_backward_share_is_measured_on_adaptation():
    w = small(workloads.AdaptTransfer, budget=20)
    plain, traced, tr = traced_and_plain(w)
    assert plain.output == traced.output
    metrics, _ = layers.layer_metrics(tr, tracer.Tracer(), [traced], [plain])
    assert 0.0 < metrics["numerics.frozen_bwd_share"] < 1.0
    assert metrics["transfer.surgery_ms"] > 0.0
    assert metrics["checkpoint.read_ms"] > 0.0


# -- the checks reject wrong outputs ------------------------------------------


def test_finite_rejects_nan_and_inf():
    assert checks.finite("x", [0.1, 0.2]) == []
    assert checks.finite("x", [0.1, float("nan")])
    assert checks.finite("x", np.array([np.inf]))


def test_rate_floor_rejects_low_and_nan():
    assert checks.rate_floor("t", 0.5, 0.3) == []
    assert checks.rate_floor("t", 0.2, 0.3)
    assert checks.rate_floor("t", float("nan"), 0.3)


@pytest.fixture(scope="module")
def adapted_pair():
    from simorx.checkpoint import read_checkpoint
    from simorx.config import make_train_config
    from simorx.transfer import AdaptConfig, adapt

    source = read_checkpoint(workloads.CHECKPOINT_PATH)
    target = make_train_config("desk", modulation="16qam", profile=workloads.PROFILE, iterations=1)
    return source, adapt(source, AdaptConfig("fine_tuning_plus", 1.0, target)).checkpoint


def test_freeze_check_passes_on_a_real_adaptation(adapted_pair):
    source, adapted = adapted_pair
    frozen = workloads.FROZEN_BY_TECHNIQUE["fine_tuning_plus"]
    assert checks.frozen_unchanged("ftp", source, adapted, frozen) == []


def test_freeze_check_rejects_a_changed_frozen_tensor(adapted_pair):
    source, adapted = adapted_pair
    bad = copy.deepcopy(adapted)
    bad.layer("block1.conv1").arrays[0][0, 0, 0, 0] += 1e-3
    frozen = workloads.FROZEN_BY_TECHNIQUE["fine_tuning_plus"]
    assert checks.frozen_unchanged("ftp", source, bad, frozen)


def test_freeze_check_rejects_a_frozen_layer_marked_trainable(adapted_pair):
    source, adapted = adapted_pair
    bad = copy.deepcopy(adapted)
    bad.layer("input_conv").trainable = True
    assert checks.frozen_unchanged("ftp", source, bad, ("input_conv",))


def test_genie_check_accepts_the_reference_and_rejects_a_shifted_count():
    reference = workloads.load_reference()["genie_bler"]
    same = [(r["ebno_db"], 1000, round(r["bler"] * 1000)) for r in reference]
    assert checks.genie_matches_reference(same, reference) == []
    shifted = [(e, b, min(b, k + 200)) for e, b, k in same]
    assert checks.genie_matches_reference(shifted, reference)
    assert checks.genie_matches_reference([(3.0, 10, 0)], reference)


def test_bler_ceiling_rejects_high_bler():
    assert checks.bler_ceiling("n", 100, 5, 0.2) == []
    assert checks.bler_ceiling("n", 100, 30, 0.2)
    assert checks.bler_ceiling("n", 0, 0, 0.2)


def bler_outcome(neural_errors_6db: int, genie_shift: int = 0):
    points = [("neural", e, 1000, 0) for e in workloads.BLER_POINTS_DB[:-1]]
    points.append(("neural", workloads.BLER_POINTS_DB[-1], 1000, neural_errors_6db))
    points += [("genie", r["ebno_db"], 1000, min(1000, round(r["bler"] * 1000) + genie_shift))
               for r in workloads.load_reference()["genie_bler"]]
    return workloads.Outcome(units=0, blocks=0, seconds=1.0, output=b"", points=points)


def test_workload_checks_reject_wrong_outputs():
    bler = workloads.BlerEval()
    assert bler.check(None, [bler_outcome(5)]) == []
    assert bler.check(None, [bler_outcome(500)])
    assert bler.check(None, [bler_outcome(5, genie_shift=300)])
    train = workloads.TrainSource()
    good = workloads.Outcome(units=1, blocks=1, seconds=1.0, output=b"", rate_l=0.45)
    low = workloads.Outcome(units=1, blocks=1, seconds=1.0, output=b"", rate_l=0.05)
    assert train.check(None, [good, good, low]) == []
    assert train.check(None, [good, low, low])
    adapt = workloads.AdaptTransfer()
    negative = workloads.Outcome(units=1, blocks=1, seconds=1.0, output=b"", rate_l=-0.5)
    assert adapt.check(None, [low, low]) == []
    # Final L of the three operations of a normal run (seed 382451830).
    normal = [workloads.Outcome(units=1, blocks=1, seconds=1.0, output=b"", rate_l=r)
              for r in (0.133, -0.027, -0.007)]
    assert adapt.check(None, normal) == []
    assert adapt.check(None, [low, negative, negative])
    assert workloads.TrainFull().check(None, [negative]) == []


def test_identical_rejects_a_different_output():
    assert checks.identical("w", [b"a", b"b"], [b"a", b"b"]) == []
    assert checks.identical("w", [b"a", b"b"], [b"a", b"c"])
    assert checks.identical("w", [b"a"], [b"a", b"b"])


def test_checksum_mismatch_is_refused(tmp_path, monkeypatch):
    bad = tmp_path / "bad.ckpt"
    shutil.copy(workloads.CHECKPOINT_PATH, bad)
    with open(bad, "ab") as fh:
        fh.write(b"\0")
    monkeypatch.setattr(workloads, "CHECKPOINT_PATH", str(bad))
    with pytest.raises(RuntimeError, match="SHA-256"):
        workloads._verified_checkpoint()


# -- the benchmark's description and command ----------------------------------


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_source", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric_of_benchmark_json(trace):
    expected = run.benchmark_spec()["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bler_eval", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170, check=True,
    )
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        detail = json.loads(detail_line)["detail"]
        assert detail["ops"] == len(detail["blocks_per_s_samples"])
        assert len(detail["setup_scaled_s"]) == len(detail["setup_samples_s"]) == 9
