"""Training loop: determinism, logging, divergence handling, edge budgets."""

from dataclasses import replace

import numpy as np
import pytest

from simorx.checkpoint import checkpoint_bytes, checkpoint_from_model
from simorx.config import make_train_config
from simorx.errors import ConfigError, TrainingDiverged
from simorx.receiver import ReceiverModel
from simorx.training import RUN_LOG_HEADER, TrainConfig, run_training, train_source


def tiny_cfg(grid, **kw):
    base = dict(
        modulation="qpsk",
        profile="flat",
        grid=grid,
        n_rx=1,
        width_in=4,
        width_res=6,
        num_blocks=2,
        batch=2,
        iterations=6,
        lr=1e-3,
        seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_identical_configs_give_bit_identical_runs(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    a, b = train_source(cfg), train_source(cfg)
    assert checkpoint_bytes(a.checkpoint) == checkpoint_bytes(b.checkpoint)
    assert a.log_lines == b.log_lines
    np.testing.assert_array_equal(a.losses, b.losses)


def test_seed_changes_the_run(tiny_grid):
    a = train_source(tiny_cfg(tiny_grid, seed=11))
    b = train_source(tiny_cfg(tiny_grid, seed=12))
    assert checkpoint_bytes(a.checkpoint) != checkpoint_bytes(b.checkpoint)


def test_log_format_round_trips(tiny_grid, tmp_path):
    cfg = tiny_cfg(tiny_grid)
    result = train_source(cfg)
    assert result.log_lines[0] == RUN_LOG_HEADER
    assert len(result.log_lines) == cfg.iterations + 1
    for i, line in enumerate(result.log_lines[1:]):
        it, metric, bce, lo, hi, seed = line.split(",")
        assert int(it) == i
        # repr floats survive the text round trip exactly
        assert float(metric) == result.losses[i]
        assert float(metric) == 1.0 - float(bce)
        assert (float(lo), float(hi)) == (cfg.ebno_lo_db, cfg.ebno_hi_db)
        assert int(seed) == cfg.seed
    p = tmp_path / "run.csv"
    result.write_log(p)
    assert p.read_text().splitlines() == result.log_lines


def test_final_loss_property(tiny_grid):
    result = train_source(tiny_cfg(tiny_grid))
    assert result.final_loss == result.losses[-1]
    empty = train_source(tiny_cfg(tiny_grid, iterations=0))
    assert np.isnan(empty.final_loss)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_raises_and_preserves_the_last_good_state(tiny_grid):
    cfg = tiny_cfg(tiny_grid, lr=1e18, iterations=50)
    with pytest.raises(TrainingDiverged, match="non-finite logits") as err:
        train_source(cfg)
    exc = err.value
    assert exc.iteration >= 1
    ck = exc.checkpoint
    assert ck is not None
    for rec in ck.layers:
        for arr in rec.arrays:
            assert np.isfinite(arr).all()
    assert ck.fingerprint["modulation"] == "qpsk"


def test_non_finite_gradient_raises_with_the_pre_update_state(tiny_grid, monkeypatch):
    import simorx.training

    cfg = tiny_cfg(tiny_grid)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    run_training(model, cfg, iterations=2)
    before = checkpoint_bytes(checkpoint_from_model(model, cfg.fingerprint()))
    monkeypatch.setattr(simorx.training, "bmd_loss_grad", lambda llrs, bits: np.full_like(llrs, np.nan))
    with pytest.raises(TrainingDiverged, match="non-finite gradient at iteration 0") as err:
        run_training(model, cfg)
    assert err.value.iteration == 0
    assert checkpoint_bytes(err.value.checkpoint) == before


def test_zero_iterations_returns_the_initial_model(tiny_grid):
    cfg = tiny_cfg(tiny_grid, iterations=0)
    result = train_source(cfg)
    fresh = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    want = checkpoint_from_model(fresh, cfg.fingerprint())
    assert checkpoint_bytes(result.checkpoint) == checkpoint_bytes(want)
    assert result.log_lines == [RUN_LOG_HEADER]
    assert result.losses.size == 0


def test_iterations_override_takes_precedence(tiny_grid):
    cfg = tiny_cfg(tiny_grid, iterations=500)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    result = run_training(model, cfg, iterations=3)
    assert result.losses.shape == (3,)
    assert len(result.log_lines) == 4


def test_config_validation(tiny_grid):
    with pytest.raises(ConfigError, match="ebno_hi_db"):
        tiny_cfg(tiny_grid, ebno_lo_db=4.0, ebno_hi_db=-4.0)
    for field in ("n_rx", "width_in", "width_res", "num_blocks", "batch"):
        for bad in (0, 1.5, 2.5, 4.0, True, "4", "8", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
                tiny_cfg(tiny_grid, **{field: bad})
        assert getattr(tiny_cfg(tiny_grid, **{field: np.int64(4)}), field) == 4
    for bad in (-1, 2.5, 4.0, False, "4", None):
        with pytest.raises(ConfigError, match="iterations"):
            tiny_cfg(tiny_grid, iterations=bad)
    for field in ("n_rx", "width_in", "width_res", "num_blocks", "batch", "iterations"):
        with pytest.raises(ConfigError, match=field):
            make_train_config("desk", **{field: 2.5})
    cfg = tiny_cfg(tiny_grid, batch=np.int64(4), iterations=np.int32(0))
    assert (cfg.batch, cfg.iterations) == (4, 0)
    with pytest.raises(ConfigError, match="lr"):
        tiny_cfg(tiny_grid, lr=-1.0, ebno_lo_db=float("nan"))
    for lr in (0.0, float("nan"), float("inf"), "1e-3", None):
        with pytest.raises(ConfigError, match="lr"):
            tiny_cfg(tiny_grid, lr=lr)
    for bad in (float("nan"), float("-inf"), "4", None):
        with pytest.raises(ConfigError, match="ebno_lo_db"):
            tiny_cfg(tiny_grid, ebno_lo_db=bad)
        with pytest.raises(ConfigError, match="ebno_hi_db"):
            tiny_cfg(tiny_grid, ebno_hi_db=bad)


def test_model_and_config_must_agree(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    wrong_bits = ReceiverModel(replace(cfg.model_spec(), out_bits=4), seed=0)
    with pytest.raises(ConfigError, match="bits per RE"):
        run_training(wrong_bits, cfg)
    cfg2 = tiny_cfg(tiny_grid, n_rx=2)
    with pytest.raises(ConfigError, match="input planes"):
        run_training(ReceiverModel(cfg.model_spec(), seed=0), cfg2)


def test_sample_budget_is_batch_times_iterations(tiny_grid):
    cfg = tiny_cfg(tiny_grid, batch=16, iterations=2000)
    assert cfg.samples == 32000


def test_fingerprint_covers_domain_and_seeds(tiny_grid):
    fp = tiny_cfg(tiny_grid).fingerprint()
    assert fp["modulation"] == "qpsk"
    assert fp["profile"] == "flat"
    assert fp["num_subcarriers"] == tiny_grid.num_subcarriers
    assert set(fp) >= {"n_rx", "guard_lo", "guard_hi", "scs_khz", "seed", "ldpc_seed"}


def test_frozen_layers_keep_their_bits_through_training(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    model.trainable["input_conv"] = False
    frozen_w = model.input_conv.wmat.copy()
    frozen_b = model.input_conv.bias.copy()
    run_training(model, cfg, iterations=4)
    np.testing.assert_array_equal(model.input_conv.wmat, frozen_w)
    np.testing.assert_array_equal(model.input_conv.bias, frozen_b)
