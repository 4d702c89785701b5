"""Evaluation harness: genie baseline, BLER loop, result files, sweeps, CLI."""

import math
import os
import sys
import threading

import numpy as np
import pytest
import yaml

from simorx.chain import code_for_grid, simulate_batch
from simorx.checkpoint import save_checkpoint
from simorx.channel.profiles import load_profile
from simorx.config import (
    EBNO_GRID_DB,
    SCALES,
    load_yaml,
    make_eval_config,
    make_train_config,
)
from simorx.errors import ConfigError
from simorx.harness.bler import (
    BlerCurve,
    BlerPoint,
    EvalConfig,
    GenieReceiver,
    NeuralReceiver,
    run_bler,
)
from simorx.harness.cli import main
from simorx.harness.genie import LLR_CLIP, genie_lmmse_llrs, uncoded_qpsk_ber
from simorx.harness.results import (
    CSV_HEADER,
    emit_results,
    profile_checksums,
    read_curve_csv,
    read_manifest,
    write_curve_csv,
)
from simorx.harness.sweep import SweepConfig, sweep
from simorx.phy.grid import GridConfig
from simorx.phy.modulation import get_scheme
from simorx.receiver import ModelSpec, ReceiverModel


def qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# genie demapper


@pytest.mark.parametrize("ebno_db", [0.0, 4.0])
def test_uncoded_qpsk_ber_matches_the_closed_form(ebno_db):
    n = 20000
    p = qfunc(math.sqrt(2.0 * 10.0 ** (ebno_db / 10.0)))
    sigma = math.sqrt(p * (1.0 - p) / n)
    measured = uncoded_qpsk_ber(ebno_db, n, seed=3)
    assert abs(measured - p) <= 3.0 * sigma


def test_uncoded_ber_needs_an_even_bit_count():
    with pytest.raises(ConfigError, match="even"):
        uncoded_qpsk_ber(0.0, 101)


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_genie_llrs_match_a_brute_force_max_log_oracle(name):
    # Independent route: per-bit max-log LLRs straight from
    # min_s ||y - h s||^2 / n0 over the whole constellation, no combining.
    scheme = get_scheme(name)
    k = scheme.bits_per_symbol
    rng = np.random.default_rng(12)
    n_rx, n_sym = 2, 6
    labels = rng.integers(0, 2 ** k, size=n_sym)
    s = scheme.points[labels]
    h = rng.standard_normal((n_sym, n_rx)) + 1j * rng.standard_normal((n_sym, n_rx))
    n0 = 0.8  # moderate noise keeps every LLR inside the clip
    noise = (rng.standard_normal((n_sym, n_rx)) + 1j * rng.standard_normal((n_sym, n_rx)))
    y = h * s[:, None] + noise * math.sqrt(n0 / 2.0)

    got = genie_lmmse_llrs(y, h, n0, scheme)
    assert np.all(np.abs(got) < LLR_CLIP)

    for i in range(n_sym):
        d = np.array(
            [np.sum(np.abs(y[i] - h[i] * pt) ** 2) / n0 for pt in scheme.points]
        )
        for bit in range(k):
            ones = [(lab >> (k - 1 - bit)) & 1 == 1 for lab in range(2 ** k)]
            ones = np.array(ones)
            want = d[~ones].min() - d[ones].min()
            assert got[i, bit] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_genie_llrs_are_clipped_at_zero_noise():
    scheme = get_scheme("qpsk")
    y = np.array([[scheme.points[0]]])
    h = np.ones((1, 1), dtype=complex)
    llrs = genie_lmmse_llrs(y, h, 0.0, scheme)
    assert np.all(np.abs(llrs) == LLR_CLIP)


def test_genie_rejects_mismatched_shapes():
    with pytest.raises(ConfigError, match="must match"):
        genie_lmmse_llrs(np.zeros((3, 2)), np.zeros((3, 1)), 0.1, get_scheme("qpsk"))


# ---------------------------------------------------------------------------
# BLER loop


def tiny_eval(grid, **kw):
    base = dict(
        modulation="qpsk",
        profile="flat",
        grid=grid,
        n_rx=1,
        ebno_grid_db=(-4.0, 10.0),
        max_blocks=12,
        max_block_errors=4,
        batch=4,
        seed=2,
    )
    base.update(kw)
    return EvalConfig(**base)


def test_eval_config_validation(tiny_grid):
    with pytest.raises(ConfigError):
        tiny_eval(tiny_grid, ebno_grid_db=())
    for field in ("n_rx", "max_blocks", "max_block_errors", "batch", "decoder_iters"):
        for bad in (0, 1.5, 2.5, 4.0, True, "4", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
                tiny_eval(tiny_grid, **{field: bad})
        with pytest.raises(ConfigError, match=field):
            make_eval_config(**{field: 2.5})
        assert getattr(tiny_eval(tiny_grid, **{field: np.int64(4)}), field) == 4
    for grid in ((float("nan"), "x"), (4.0, float("inf")), ("4",), (True,), (None,)):
        with pytest.raises(ConfigError, match="ebno_grid_db"):
            tiny_eval(tiny_grid, ebno_grid_db=grid)
    for grid in ((float("nan"), "x"), 4.0, "4"):
        with pytest.raises(ConfigError, match="ebno_grid_db"):
            make_eval_config(ebno_grid_db=grid)
    # Checked, not converted: integer grids stay integers in manifests.
    assert make_eval_config(ebno_grid_db=[-2, np.int64(2), 6.5]).ebno_grid_db == (-2, 2, 6.5)
    assert all(type(v) is int for v in make_eval_config().ebno_grid_db)


def test_bler_stops_early_on_errors_and_late_on_clean_points(tiny_grid):
    cfg = tiny_eval(tiny_grid)
    curve = run_bler(cfg, GenieReceiver(get_scheme("qpsk"), tiny_grid))
    noisy, clean = curve.points
    # at -4 dB nearly every block fails: the error cap ends the point early
    assert noisy.block_errors >= cfg.max_block_errors
    assert noisy.blocks < cfg.max_blocks
    # at 10 dB the genie is nearly clean: the block cap is exhausted exactly
    assert clean.blocks == cfg.max_blocks
    assert clean.block_errors < cfg.max_block_errors
    assert 0.0 <= clean.bler <= noisy.bler <= 1.0


def test_bler_counts_are_deterministic(tiny_grid):
    cfg = tiny_eval(tiny_grid)
    rx = GenieReceiver(get_scheme("qpsk"), tiny_grid)
    assert run_bler(cfg, rx).points == run_bler(cfg, rx).points


def test_parallel_neural_evaluation_matches_serial_exactly(tiny_grid):
    # Two threads run the model's convs at the same time; each must build
    # its im2col buffers in its own workspace.
    spec = make_train_config("desk", grid=tiny_grid, n_rx=1, width_in=4, width_res=6).model_spec()
    rx = NeuralReceiver(ReceiverModel(spec, seed=3), tiny_grid)
    scheme = get_scheme("qpsk")
    code = code_for_grid(tiny_grid, scheme, 1)
    profile = load_profile("flat")
    batches = [
        simulate_batch(tiny_grid, scheme, code, profile, n0, 4, 1, np.random.default_rng(i))
        for i, n0 in enumerate((1.0, 0.1) * 8)
    ]
    serial = [rx.llrs(tb).tobytes() for tb in batches]
    seen = {}

    def run(order):
        seen[order] = [rx.llrs(batches[i]).tobytes() for i in order]

    orders = (tuple(range(len(batches))), tuple(reversed(range(len(batches)))))
    threads = [threading.Thread(target=run, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for order in orders:
        assert seen[order] == [serial[i] for i in order]


def test_neural_receiver_adapter_runs_end_to_end(tiny_grid):
    cfg = tiny_eval(tiny_grid, ebno_grid_db=(8.0,), max_blocks=4)
    model = ReceiverModel(
        make_train_config(
            "desk", grid=tiny_grid, n_rx=1, width_in=4, width_res=6
        ).model_spec(),
        seed=0,
    )
    curve = run_bler(cfg, NeuralReceiver(model, tiny_grid, "cafe01234567"))
    assert curve.points[0].blocks == 4
    assert curve.metadata["receiver"] == "neural"
    assert curve.metadata["target_fp"] == "cafe01234567"


# ---------------------------------------------------------------------------
# result files


def demo_curve():
    points = [BlerPoint(-4.0, 96, 80, 5120), BlerPoint(8.0, 96, 3, 17)]
    meta = {
        "technique": "fine_tuning",
        "alpha": 0.35,
        "seed": 7,
        "source_fp": "aaaabbbbcccc",
        "target_fp": "ddddeeeeffff",
    }
    return BlerCurve(points, meta)


def test_curve_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(demo_curve(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "fine_tuning,0.35,-4.0,96,80,0.8333333333333334,5120,7,aaaabbbbcccc,ddddeeeeffff"

    back = read_curve_csv(path)
    assert back.points == demo_curve().points
    assert back.metadata["technique"] == "fine_tuning"
    assert float(back.metadata["alpha"]) == 0.35
    np.testing.assert_array_equal(back.blers(), demo_curve().blers())
    assert [p.ebno_db for p in back.points] == [-4.0, 8.0]


def test_csv_reader_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("ebno,bler\n0.0,0.5\n")
    with pytest.raises(ConfigError, match="unexpected header"):
        read_curve_csv(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text(CSV_HEADER + "\nonly,three,fields\n")
    with pytest.raises(ConfigError, match="malformed row"):
        read_curve_csv(bad_row)


def test_profile_checksums_cover_files_and_the_mixed_alias():
    sums = profile_checksums(["flat", "mixed_cdl"])
    assert "flat" in sums and "cdl_a_like" in sums
    assert all(len(v) == 64 for v in sums.values())
    again = profile_checksums(["flat"])
    assert again["flat"] == sums["flat"]


def test_emit_results_writes_curves_and_manifest(tmp_path):
    out = tmp_path / "run"
    paths = emit_results(
        {"fine_tuning": demo_curve()}, out, {"mode": "demo"}, profiles=("flat",)
    )
    names = {os.path.basename(p) for p in paths}
    assert names == {"fine_tuning.csv", "manifest.yaml"}
    manifest = read_manifest(out / "manifest.yaml")
    assert manifest["config"] == {"mode": "demo"}
    assert manifest["files"] == ["fine_tuning.csv"]
    assert "flat" in manifest["profiles"]
    assert "package_version" in manifest


def test_read_manifest_rejects_other_yaml(tmp_path):
    p = tmp_path / "other.yaml"
    p.write_text(yaml.safe_dump({"not_config": 1}))
    with pytest.raises(ConfigError, match="not a run manifest"):
        read_manifest(p)
    assert load_yaml(p) == {"not_config": 1}
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_yaml(scalar)


# ---------------------------------------------------------------------------
# scale presets


def test_desk_and_full_presets():
    desk = make_train_config("desk")
    assert (desk.width_in, desk.width_res) == (16, 32)
    assert (desk.batch, desk.iterations) == (16, 2000)
    assert (desk.grid.num_subcarriers, desk.grid.guard_lo, desk.grid.guard_hi) == (32, 2, 3)

    full = make_train_config("full")
    assert (full.width_in, full.width_res) == (128, 256)
    assert (full.grid.num_subcarriers, full.grid.guard_lo, full.grid.guard_hi) == (128, 5, 6)
    # smallest whole-batch budget covering the 3.48M-sample corpus
    assert full.iterations == 27188
    assert full.samples >= 3_480_000
    assert (full.iterations - 1) * full.batch < 3_480_000

    with pytest.raises(ConfigError, match="unknown scale"):
        make_train_config("pocket")


def test_grid_field_overrides_reach_the_grid():
    cfg = make_train_config("desk", num_subcarriers=12, guard_lo=1, guard_hi=1, seed=5)
    assert cfg.grid == GridConfig(num_symbols=14, num_subcarriers=12, guard_lo=1, guard_hi=1)
    assert cfg.seed == 5
    ev = make_eval_config("desk", ebno_grid_db=[0, 8], max_blocks=4)
    assert ev.ebno_grid_db == (0, 8)
    assert ev.max_blocks == 4
    assert ev.batch == SCALES["desk"]["eval_batch"]


def test_none_overrides_keep_the_preset():
    assert make_train_config("desk", iterations=None, batch=None, guard_lo=None) == make_train_config("desk")
    ev = make_eval_config("desk", max_blocks=None, ebno_grid_db=None, batch=None)
    assert ev == make_eval_config("desk")
    # A falsy value is an override like any other, and is validated.
    with pytest.raises(ConfigError, match="max_blocks"):
        make_eval_config("desk", max_blocks=0)


def test_ebno_grid_spans_minus_four_to_eight():
    assert EBNO_GRID_DB == tuple(range(-4, 9))
    assert make_eval_config("desk").ebno_grid_db == EBNO_GRID_DB


# ---------------------------------------------------------------------------
# sweeps


def tiny_sweep_config(**kw):
    base = dict(
        mode="techniques",
        scale="desk",
        source_modulation="qpsk",
        source_profile="flat",
        target_modulation="16qam",
        target_profile="flat",
        alpha=0.5,
        seeds=(0,),
        ebno_grid_db=(8.0,),
        iterations=2,
        batch=2,
        eval_max_blocks=4,
        eval_max_block_errors=4,
        eval_batch=4,
    )
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_config_round_trips_through_dict_form():
    cfg = tiny_sweep_config()
    assert SweepConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown sweep config keys"):
        SweepConfig.from_dict({"modee": "techniques"})
    with pytest.raises(ConfigError, match="unknown sweep mode"):
        tiny_sweep_config(mode="grid")
    with pytest.raises(ConfigError, match="unknown technique"):
        tiny_sweep_config(techniques=("fine_tuning", "prompting"))


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"alpha_technique": "distillation"}, "alpha_technique"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": "0.1"}, "alpha"),
        ({"alphas": (0.0, 2.0)}, "alpha"),
        ({"alphas": (0.5, 2.0)}, "alpha"),
        ({"seeds": ()}, "seeds"),
    ],
)
def test_sweep_config_rejects_bad_values_before_any_training(tmp_path, monkeypatch, bad, match):
    import importlib

    def no_training(cfg):
        raise AssertionError("trained before rejecting the config")

    # ``simorx.harness.sweep`` the attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("simorx.harness.sweep"), "train_source", no_training)
    with pytest.raises(ConfigError, match=match):
        tiny_sweep_config(**bad)
    with pytest.raises(ConfigError, match=match):
        sweep({**tiny_sweep_config().to_dict(), **bad}, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_technique_sweep_produces_a_curve_per_variant(tmp_path):
    out = tmp_path / "sweep"
    result = sweep(tiny_sweep_config(), out)
    produced = {os.path.basename(p) for p in result.curve_paths}
    assert produced == {
        "fine_tuning_a0.5_s0.csv",
        "fine_tuning_plus_a0.5_s0.csv",
        "feature_extraction_a0.5_s0.csv",
        "without_tl_a0.5_s0.csv",
        "model_transfer_s0.csv",
    }
    assert os.path.basename(result.source_checkpoint_path) == "source.ckpt"
    assert all(os.path.exists(p) for p in result.checkpoint_paths)
    # model_transfer trains nothing, so it leaves no run log
    logged = {os.path.basename(p) for p in result.log_paths}
    assert "model_transfer_log.csv" not in logged
    assert "source_log.csv" in logged
    manifest = read_manifest(result.manifest_path)
    assert manifest["config"]["alpha"] == 0.5


def test_alpha_sweep_budgets_scale_with_alpha(tmp_path):
    cfg = tiny_sweep_config(
        mode="alpha",
        alphas=(0.25, 0.5, 1.0),
        alpha_technique="fine_tuning",
        iterations=8,
    )
    result = sweep(cfg, tmp_path / "alpha")
    assert len(result.curve_paths) == 3
    steps = {}
    for path in result.log_paths:
        name = os.path.basename(path)
        if name == "source_log.csv":
            continue
        rows = open(path).read().splitlines()
        alpha = float(name.split("_a")[1].split("_s")[0])
        steps[alpha] = len(rows) - 1  # minus the header
    assert steps == {0.25: 2, 0.5: 4, 1.0: 8}


def test_sweep_reruns_from_its_manifest_byte_for_byte(tmp_path):
    cfg = tiny_sweep_config(
        mode="alpha", alphas=(0.5,), alpha_technique="feature_extraction", iterations=2
    )
    first = sweep(cfg, tmp_path / "one")
    replay_cfg = read_manifest(first.manifest_path)["config"]
    second = sweep(replay_cfg, tmp_path / "two")
    for a, b in zip(sorted(first.curve_paths), sorted(second.curve_paths)):
        assert os.path.basename(a) == os.path.basename(b)
        assert open(a, "rb").read() == open(b, "rb").read()
    a_src = open(first.source_checkpoint_path, "rb").read()
    b_src = open(second.source_checkpoint_path, "rb").read()
    assert a_src == b_src


def test_sweep_can_start_from_an_existing_checkpoint(tmp_path):
    first = sweep(
        tiny_sweep_config(mode="alpha", alphas=(0.5,)), tmp_path / "one"
    )
    cfg = tiny_sweep_config(
        mode="alpha", alphas=(0.5,), source_checkpoint=first.source_checkpoint_path
    )
    second = sweep(cfg, tmp_path / "two")
    assert second.source_checkpoint_path == first.source_checkpoint_path
    assert not os.path.exists(tmp_path / "two" / "source.ckpt")


# ---------------------------------------------------------------------------
# command line


def run_cli(*argv):
    return main(list(argv))


def test_cli_params_prints_counts_beside_published_totals(capsys):
    assert run_cli("params", "--scale", "desk") == 0
    out = capsys.readouterr().out
    for token in ("input_conv", "output_conv", "trainable", "4858882", "6071554"):
        assert token in out


def test_cli_train_adapt_eval_chain(tmp_path, capsys):
    src_dir = tmp_path / "src"
    code = run_cli(
        "train-source", "--scale", "desk", "--profile", "flat",
        "--iterations", "2", "--batch", "2", "--out", str(src_dir),
    )
    assert code == 0
    ckpt = src_dir / "source.ckpt"
    assert ckpt.exists() and (src_dir / "source_log.csv").exists()
    manifest = read_manifest(src_dir / "manifest.yaml")
    assert manifest["config"]["verb"] == "train-source" and manifest["config"]["iterations"] == 2
    assert manifest["files"] == ["source.ckpt", "source_log.csv"]
    assert set(manifest["profiles"]) == {"flat"}

    adapt_dir = tmp_path / "adapt"
    code = run_cli(
        "adapt", "--source", str(ckpt), "--technique", "feature_extraction",
        "--alpha", "0.5", "--scale", "desk", "--profile", "flat",
        "--iterations", "2", "--batch", "2", "--out", str(adapt_dir),
    )
    assert code == 0
    assert (adapt_dir / "feature_extraction_a0.5.ckpt").exists()
    manifest = read_manifest(adapt_dir / "manifest.yaml")
    assert manifest["config"]["verb"] == "adapt" and manifest["config"]["steps"] == 1
    assert manifest["files"] == ["feature_extraction_a0.5.ckpt", "feature_extraction_a0.5_log.csv"]
    out = capsys.readouterr().out
    assert "1 iterations" in out  # round(0.5 * 2) = 1 step

    eval_dir = tmp_path / "eval"
    code = run_cli(
        "eval", "--checkpoint", str(ckpt), "--scale", "desk", "--profile", "flat",
        "--ebno", "8", "--max-blocks", "4", "--name", "src", "--out", str(eval_dir),
    )
    assert code == 0
    curve = read_curve_csv(eval_dir / "src.csv")
    assert curve.points[0].blocks == 4
    assert read_manifest(eval_dir / "manifest.yaml")["config"]["verb"] == "eval"


def test_cli_baseline_writes_a_genie_curve(tmp_path):
    out = tmp_path / "genie"
    code = run_cli(
        "baseline", "--scale", "desk", "--profile", "flat",
        "--ebno", "8", "--max-blocks", "4", "--out", str(out),
    )
    assert code == 0
    curve = read_curve_csv(out / "genie.csv")
    assert curve.metadata["technique"] == "genie"
    assert curve.points[0].bler < 0.5  # the genie is clean at 8 dB


def test_cli_sweep_runs_a_yaml_config(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_sweep_config(mode="alpha", alphas=(0.5,)).to_dict()))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "manifest.yaml" in printed
    assert (out / "fine_tuning_a0.5_s0.csv").exists()


def test_cli_sweep_rejects_a_bad_config_with_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**tiny_sweep_config().to_dict(), "seeds": []}))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


def cli_sweep_rejects_before_any_training(tmp_path, capsys, monkeypatch, bad: dict, match: str):
    import importlib

    def no_training(cfg):
        raise AssertionError("trained before rejecting the config")

    monkeypatch.setattr(importlib.import_module("simorx.harness.sweep"), "train_source", no_training)
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**tiny_sweep_config().to_dict(), **bad}))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rejects_a_string_ebno_before_any_training(tmp_path, capsys, monkeypatch):
    cli_sweep_rejects_before_any_training(
        tmp_path, capsys, monkeypatch, {"ebno_grid_db": [2, "x"]}, "ebno_grid_db"
    )


def test_cli_sweep_rejects_a_fractional_eval_batch_before_any_training(tmp_path, capsys, monkeypatch):
    cli_sweep_rejects_before_any_training(tmp_path, capsys, monkeypatch, {"eval_batch": 2.5}, "batch")


def test_cli_baseline_rejects_zero_max_blocks_with_exit_two(tmp_path, capsys):
    out = tmp_path / "genie"
    code = run_cli(
        "baseline", "--scale", "desk", "--profile", "flat",
        "--ebno", "8", "--max-blocks", "0", "--out", str(out),
    )
    assert code == 2
    assert "max_blocks" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_package_errors_as_exit_two(tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    code = run_cli("eval", "--checkpoint", str(junk), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_reports_a_malformed_checkpoint_field_as_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ReceiverModel(ModelSpec(2, 4, 6, 1, 2)), path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header, payload = blob[24 : 24 + header_len], blob[24 + header_len :]
    for old, new, key in (
        (b"layer.0.kernel=3x3\n", b"layer.0.kernel=3\n", "layer.0.kernel"),
        (b"fingerprint.width_in=4\n", b"fingerprint.width_in=four\n", "fingerprint.width_in"),
    ):
        bad = header.replace(old, new)
        path.write_bytes(blob[:8] + len(bad).to_bytes(8, "little") + blob[16:24] + bad + payload)
        code = run_cli("eval", "--checkpoint", str(path), "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {key} must" in err


def test_cli_reports_a_missing_checkpoint_as_exit_two(tmp_path, capsys):
    path = tmp_path / "absent.ckpt"
    code = run_cli("eval", "--checkpoint", str(path), "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {path}: cannot read: No such file or directory"]


def test_cli_reports_a_non_finite_gradient_as_exit_two(tmp_path, capsys, monkeypatch):
    import simorx.training

    monkeypatch.setattr(simorx.training, "bmd_loss_grad", lambda llrs, bits: np.full_like(llrs, np.nan))
    code = run_cli(
        "train-source", "--scale", "desk", "--profile", "flat",
        "--iterations", "2", "--batch", "2", "--out", str(tmp_path / "src"),
    )
    assert code == 2
    assert "non-finite gradient at iteration 0" in capsys.readouterr().err
