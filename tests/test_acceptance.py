"""Release gates for the whole package, run at the desk scale.

Each criterion is one test and prints exactly one line::

    criterion NN PASS <short name> (key numbers)

The heavyweight fixtures (a trained source receiver and the nine adapted
variants) are session-scoped and shared across criteria, so the file runs
end to end in minutes on one CPU core.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from simorx.checkpoint import (
    ARRAYS,
    checkpoint_bytes,
    checkpoint_from_model,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from simorx.config import EBNO_GRID_DB, make_eval_config, make_train_config
from simorx.errors import CheckpointError, ConfigError
from simorx.harness.bler import NeuralReceiver, run_bler
from simorx.harness.results import read_curve_csv, read_manifest
from simorx.harness.sweep import SweepConfig, sweep
from simorx.numerics.gradcheck import finite_diff_check
from simorx.phy.ldpc import decode, encode, syndrome
from simorx.phy.modulation import get_scheme
from simorx.receiver import ModelSpec, ReceiverModel, bmd_loss
from simorx.training import train_source
from simorx.transfer import (
    FROZEN_PREFIX,
    REFERENCE_PARAM_TOTALS,
    TECHNIQUES,
    AdaptConfig,
    adapt,
    add_resnet_block,
    count_params,
    reference_comparison,
    run_benchmark,
    set_trainable,
)

from oracles import uncoded_qpsk_ber

PROFILE = "cdl_d_like"   # line-of-sight-like profile: learnable at desk scale
SEEDS = (0, 1, 2)
TOP_TWO_DB = (7.0, 8.0)


def desk_train(**kw):
    base = dict(modulation="qpsk", profile=PROFILE, seed=0)
    base.update(kw)
    return make_train_config("desk", **base)


@contextmanager
def criterion(capsys, num, name):
    detail = {}
    try:
        yield detail
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d} FAIL {name}", flush=True)
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    with capsys.disabled():
        print(f"criterion {num:02d} PASS {name}{extra}", flush=True)


# ---------------------------------------------------------------------------
# shared heavyweight fixtures


@pytest.fixture(scope="session")
def source_run(tmp_path_factory):
    """Desk-scale source receiver trained on the shipping budget."""
    cfg = desk_train()
    result = train_source(cfg)
    path = str(tmp_path_factory.mktemp("source") / "source.ckpt")
    save_checkpoint(result.checkpoint, path)
    return result, cfg, path


def eval_blers(model, fp_id, ebno_points):
    cfg = make_eval_config(
        "desk", modulation="16qam", profile=PROFILE, seed=0, ebno_grid_db=ebno_points
    )
    curve = run_bler(cfg, NeuralReceiver(model, cfg.grid, fp_id))
    return curve.blers()


@pytest.fixture(scope="session")
def tl_results(source_run):
    """All techniques and the zero-update benchmark, three seeds each.

    Maps ``(name, seed)`` to ``(result, blers at the top two Eb/No points)``.
    """
    result, _, _ = source_run
    source = result.checkpoint
    out = {}
    for seed in SEEDS:
        target = desk_train(modulation="16qam", seed=seed)
        bench = run_benchmark("model_transfer", source, target)
        out[("model_transfer", seed)] = (
            bench,
            eval_blers(bench.model, bench.checkpoint.fingerprint_id, TOP_TWO_DB),
        )
        for tech in TECHNIQUES:
            res = adapt(source, AdaptConfig(tech, 0.1, target))
            out[(tech, seed)] = (
                res,
                eval_blers(res.model, res.checkpoint.fingerprint_id, TOP_TWO_DB),
            )
    return out


def ck_records(ck, coarse):
    return [rec for rec in ck.layers if rec.name.split(".")[0] == coarse]


def live_arrays(model, rec):
    layer = dict(model.primitive_layers())[rec.name]
    return [getattr(layer, a) for a in ARRAYS[rec.kind]]


# ---------------------------------------------------------------------------
# the eleven gates


def test_criterion_01_gradient_check(capsys):
    with criterion(capsys, 1, "end-to-end gradient check") as detail:
        model = ReceiverModel(
            ModelSpec(in_channels=4, width_in=8, width_res=16, num_blocks=4, out_bits=2),
            seed=0,
        ).astype(np.float64)
        x = np.random.default_rng(1).standard_normal((1, 4, 14, 16))
        start = time.perf_counter()
        report = finite_diff_check(model, x)
        elapsed = time.perf_counter() - start
        assert report.max_rel_err < 1e-4, report.format()
        assert report.passed
        assert elapsed < 60.0, f"check took {elapsed:.1f}s"
        detail["note"] = f"max rel err {report.max_rel_err:.2e}, {elapsed:.1f}s"


def test_criterion_02_awgn_demapper_oracle(capsys):
    with criterion(capsys, 2, "uncoded QPSK BER matches the closed form") as detail:
        n = 100_000
        worst = 0.0
        for ebno_db in (0.0, 4.0, 8.0):
            p = 0.5 * math.erfc(math.sqrt(2.0 * 10.0 ** (ebno_db / 10.0)) / math.sqrt(2.0))
            sigma = math.sqrt(p * (1.0 - p) / n)
            measured = uncoded_qpsk_ber(ebno_db, n, seed=0)
            pulls = abs(measured - p) / sigma
            worst = max(worst, pulls)
            assert pulls <= 3.0, (
                f"{ebno_db} dB: measured {measured:.6f}, expected {p:.6f}, "
                f"{pulls:.2f} binomial sigma"
            )
        detail["note"] = f"worst deviation {worst:.2f} sigma over 3 points, 1e5 bits each"


def test_criterion_03_noiseless_coding_round_trip(capsys):
    with criterion(capsys, 3, "noiseless encode/decode round trips") as detail:
        cfg = desk_train()
        code_n = cfg.grid.num_data_res * get_scheme("qpsk").bits_per_symbol
        from simorx.chain import code_for_grid

        code = code_for_grid(cfg.grid, get_scheme("qpsk"), cfg.ldpc_seed)
        rng = np.random.default_rng(7)
        info = rng.integers(0, 2, size=(1000, code.k), dtype=np.uint8)
        coded = encode(info, code)
        assert not syndrome(coded, code).any(), "an encoded word fails its checks"
        llrs = (2.0 * coded - 1.0) * 12.0
        decoded, converged = decode(llrs, code)
        assert converged.all()
        np.testing.assert_array_equal(decoded, info)
        detail["note"] = f"1000 blocks exact at n={code_n}, all syndromes zero"


def test_criterion_04_parameter_accounting(capsys):
    with criterion(capsys, 4, "parameter accounting identities") as detail:
        cfg = make_train_config("full")
        spec = cfg.model_spec()

        six = count_params(set_trainable(ReceiverModel(spec), FROZEN_PREFIX["fine_tuning"]))
        assert six.trainable_total + six.frozen_total == six.total
        assert six.frozen_total == 0  # fine tuning trains everything

        wide = add_resnet_block(ReceiverModel(spec))
        seven = count_params(wide)
        added = next(l.params for l in seven.layers if l.name == "block5")
        assert seven.total - six.total == added

        ftp = count_params(set_trainable(wide, FROZEN_PREFIX["fine_tuning_plus"]))
        by_name = {l.name: l.params for l in ftp.layers}
        assert ftp.trainable_total + ftp.frozen_total == ftp.total
        assert ftp.frozen_total == by_name["input_conv"] + by_name["block1"]

        fe = count_params(set_trainable(wide, FROZEN_PREFIX["feature_extraction"]))
        assert fe.trainable_total + fe.frozen_total == fe.total
        assert fe.trainable_total == by_name["block5"] + by_name["output_conv"]

        # the counts are emitted next to the published totals, and the
        # structural difference is stated in the same emission
        text = reference_comparison(cfg)
        for ref in REFERENCE_PARAM_TOTALS.values():
            assert str(ref) in text
        for ours in (six.trainable_total, seven.total, fe.trainable_total, ftp.trainable_total):
            assert str(ours) in text
        assert "reference counts assume" in text
        detail["note"] = (
            f"6-layer {six.total}, 7-layer {seven.total}, "
            f"published {REFERENCE_PARAM_TOTALS['seven_layer_total']}"
        )


def test_criterion_05_freeze_contract(capsys, tl_results, source_run):
    with criterion(capsys, 5, "freeze contract over adaptation") as detail:
        result, _, _ = source_run
        source = result.checkpoint
        frozen_by_tech = {
            "fine_tuning_plus": ("input_conv", "block1"),
            "feature_extraction": ("input_conv", "block1", "block2", "block3", "block4"),
        }
        for tech, frozen in frozen_by_tech.items():
            res, _ = tl_results[(tech, 0)]
            assert res.steps >= 100
            for coarse in frozen:
                for rec in ck_records(source, coarse):
                    for src_arr, live in zip(rec.arrays, live_arrays(res.model, rec)):
                        assert np.array_equal(src_arr, live), (
                            f"{tech}: {rec.name} moved despite the freeze"
                        )

        ft, _ = tl_results[("fine_tuning", 0)]
        assert ft.steps >= 100
        target = desk_train(modulation="16qam", seed=0)
        fresh_head = ReceiverModel(target.model_spec(), seed=target.seed).output_conv
        moved = 0
        for rec in ft.checkpoint.layers:
            if rec.name.startswith("output_conv"):
                live = live_arrays(ft.model, rec)
                assert not np.array_equal(live[0], fresh_head.weights)
                assert not np.array_equal(live[1], fresh_head.bias)
                moved += 2
                continue
            src_rec = next(r for r in source.layers if r.name == rec.name)
            for src_arr, live in zip(src_rec.arrays, live_arrays(ft.model, rec)):
                assert not np.array_equal(src_arr, live), f"{rec.name} never moved"
                moved += 1
        detail["note"] = f"200-step adaptations; {moved} tensors moved under full tuning"


def test_criterion_06_zero_shot_collapse(capsys, tl_results):
    with criterion(capsys, 6, "zero-shot collapse onto a new modulation") as detail:
        bench, _ = tl_results[("model_transfer", 0)]
        blers = eval_blers(
            bench.model, bench.checkpoint.fingerprint_id, EBNO_GRID_DB
        )
        assert blers.shape == (13,)
        assert (blers >= 0.9).all(), f"blers {blers}"
        detail["note"] = f"min BLER {blers.min():.3f} across -4..8 dB"


def test_criterion_07_adaptation_recovers(capsys, tl_results):
    with criterion(capsys, 7, "every technique beats zero-update transfer") as detail:
        wins = {}
        for tech in TECHNIQUES:
            wins[tech] = 0
            for seed in SEEDS:
                mt = tl_results[("model_transfer", seed)][1]
                ours = tl_results[(tech, seed)][1]
                if (ours < mt).all():  # strictly lower at both top points
                    wins[tech] += 1
            assert wins[tech] >= 2, f"{tech} won only {wins[tech]}/3 seeds"
        detail["note"] = ", ".join(f"{t} {w}/3" for t, w in wins.items())


def test_criterion_08_training_makes_progress(capsys):
    with criterion(capsys, 8, "source training lifts the rate metric") as detail:
        # the metric's zero point: all-zero logits cost exactly one bit per bit
        L0, _ = bmd_loss(np.zeros(64), np.zeros(64))
        assert L0 == 0.0
        cfg = desk_train(iterations=300, ebno_lo_db=8.0, ebno_hi_db=8.0)
        result = train_source(cfg)
        first, last = result.losses[0], result.losses[-1]
        assert first < 0.2, f"training started already converged (L={first:.3f})"
        assert last >= 0.5, f"final L={last:.3f}"
        detail["note"] = f"L {first:+.3f} -> {last:+.3f} in 300 iterations at 8 dB"


def test_criterion_09_bit_identical_reruns(capsys, tmp_path):
    with criterion(capsys, 9, "identical configs reproduce every output byte") as detail:
        cfg = SweepConfig(
            scale="desk",
            source_modulation="qpsk",
            source_profile=PROFILE,
            target_modulation="16qam",
            target_profile=PROFILE,
            techniques=("fine_tuning_plus",),
            benchmarks=(),
            alphas=(0.5,),
            seeds=(0,),
            ebno_grid_db=(0.0, 8.0),
            iterations=30,
            batch=4,
            eval_max_blocks=16,
            eval_max_block_errors=16,
            eval_batch=8,
        )
        a = sweep(cfg, tmp_path / "one")
        b = sweep(cfg, tmp_path / "two")
        names_a = sorted(os.listdir(a.out_dir))
        names_b = sorted(os.listdir(b.out_dir))
        assert names_a == names_b
        compared = 0
        for name in names_a:
            with open(os.path.join(a.out_dir, name), "rb") as fa:
                blob_a = fa.read()
            with open(os.path.join(b.out_dir, name), "rb") as fb:
                blob_b = fb.read()
            assert blob_a == blob_b, f"{name} differs between identical runs"
            compared += 1
        detail["note"] = f"{compared} files identical (checkpoints, logs, CSVs, manifest)"


def test_criterion_10_checkpoint_integrity(capsys, tmp_path):
    with criterion(capsys, 10, "checkpoint round trip and corruption rejection") as detail:
        model = ReceiverModel(ModelSpec(4, 8, 16, 4, 2), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from_model(model, {"modulation": "qpsk"}), path)
        blob = path.read_bytes()
        ck = read_checkpoint(path)
        assert checkpoint_bytes(ck) == blob  # parse/serialise is the identity
        loaded = load_checkpoint(ck)
        for rec in ck.layers:
            for src_arr, live in zip(rec.arrays, live_arrays(loaded.model, rec)):
                assert np.array_equal(src_arr, live)

        corruptions = {
            "magic": blob.replace(b"NRXCKPT1", b"XRXCKPT1"),
            "truncation": blob[:-8],
            "header offsets": blob.replace(b"layer.0.offset=0\n", b"layer.0.offset=4\n"),
            "metadata line": blob.replace(b"format=1\n", b"formats1\n"),
        }
        for label, bad in corruptions.items():
            bad_path = tmp_path / "bad.ckpt"
            bad_path.write_bytes(bad)
            with pytest.raises(CheckpointError):
                read_checkpoint(bad_path)
        run_manifest = tmp_path / "manifest.yaml"
        run_manifest.write_text("just: prose\n")
        with pytest.raises(ConfigError):
            read_manifest(run_manifest)
        detail["note"] = f"round trip exact; {len(corruptions)} corruptions rejected"


def test_criterion_11_alpha_budget_sweep(capsys, tmp_path, source_run):
    with criterion(capsys, 11, "alpha sweep spends proportional budgets") as detail:
        _, _, source_path = source_run
        base_iterations = 300
        alphas = (0.05, 0.35, 1.0)
        cfg = SweepConfig(
            scale="desk",
            source_modulation="qpsk",
            source_profile=PROFILE,
            target_modulation="16qam",
            target_profile=PROFILE,
            techniques=("fine_tuning",),
            benchmarks=(),
            alphas=alphas,
            seeds=(0,),
            ebno_grid_db=TOP_TWO_DB,
            iterations=base_iterations,
            eval_max_blocks=32,
            eval_max_block_errors=32,
            eval_batch=16,
            source_checkpoint=source_path,
        )
        result = sweep(cfg, tmp_path / "alpha_sweep")

        assert len(result.curve_paths) == len(alphas)  # one curve per alpha
        seen = {}
        for path in result.log_paths:
            name = os.path.basename(path)
            if name == "source_log.csv":
                continue
            alpha = float(name.split("_a")[1].split("_s")[0])
            with open(path) as fh:
                rows = fh.read().splitlines()
            seen[alpha] = len(rows) - 1  # header row
        assert seen == {a: round(a * base_iterations) for a in alphas}
        for a in alphas:
            assert seen[a] == a * base_iterations  # exactly proportional
            match = [p for p in result.curve_paths if f"_a{a}_" in os.path.basename(p)]
            assert len(match) == 1
            curve = read_curve_csv(match[0])
            assert curve.alpha == a
            assert len(curve.points) == len(TOP_TWO_DB)
        detail["note"] = (
            "iterations " + ", ".join(f"{a}->{seen[a]}" for a in alphas)
            + f" of {base_iterations}"
        )
