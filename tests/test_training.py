"""Training loop: determinism, logging, divergence handling, edge budgets."""

import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import simorx.chain
import simorx.training
from simorx.chain import SHARD, shard_map
from simorx.checkpoint import checkpoint_bytes, checkpoint_from_model
from simorx.config import make_train_config
from simorx.errors import ConfigError, TrainingDiverged
from simorx.phy.grid import NUM_SYMBOLS
from simorx.receiver import ReceiverModel, bmd_loss_grad, extract_llr_bits, scatter_llr_bit_grad
from simorx.training import RUN_LOG_HEADER, TrainConfig, run_training, train_source
from simorx.transfer import AdaptConfig, adapt

# More than one shard per batch, the last one short.
SHARDED_BATCH = SHARD + 2


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
    ckpt, log = result.save(tmp_path, "run")
    assert (ckpt, log) == (str(tmp_path / "run.ckpt"), str(tmp_path / "run_log.csv"))
    with open(log, encoding="utf-8") as fh:
        assert fh.read().splitlines() == result.log_lines
    with open(ckpt, "rb") as fh:
        assert fh.read() == checkpoint_bytes(result.checkpoint)


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
    cfg = tiny_cfg(tiny_grid)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    run_training(model, cfg, iterations=2)
    before = checkpoint_bytes(checkpoint_from_model(model, cfg.fingerprint()))
    monkeypatch.setattr(simorx.training, "bmd_loss_grad", lambda llrs, bits, count: np.full_like(llrs, np.nan))
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
    for field in ("iterations", "seed", "ldpc_seed"):
        for bad in (-1, 2.5, 4.0, False, "4", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 0"):
                tiny_cfg(tiny_grid, **{field: bad})
        assert getattr(tiny_cfg(tiny_grid, **{field: np.int64(0)}), field) == 0
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
    with pytest.raises(ConfigError) as bits:
        run_training(wrong_bits, cfg)
    assert str(bits.value) == (
        "training: the receiver has out_bits=4, but qpsk with 1 antennas needs out_bits=2"
    )
    cfg2 = tiny_cfg(tiny_grid, n_rx=2)
    with pytest.raises(ConfigError, match="in_channels=2, but qpsk with 2 antennas needs in_channels=4"):
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


def _spy_on_pools(monkeypatch) -> list:
    """Record whether each ``run_training`` ran its shards on a pool."""
    used = []
    make = simorx.training.shard_map

    @contextlib.contextmanager
    def spy(batch):
        with make(batch) as smap:
            used.append(smap is not map)
            yield smap

    monkeypatch.setattr(simorx.training, "shard_map", spy)
    return used


def test_shard_map_is_the_builtin_map_without_a_second_shard_blas_setter_or_cpu(monkeypatch):
    for batch in (1, SHARD):
        with shard_map(batch) as smap:
            assert smap is map
    with monkeypatch.context() as m:
        m.setattr(simorx.chain, "_openblas", lambda: None)
        with shard_map(SHARD + 1) as smap:
            assert smap is map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with shard_map(SHARD + 1) as smap:
        assert smap is map


def test_shard_map_pins_blas_to_one_thread_until_it_closes(blas_get):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: shard_map never starts threads")
    get = blas_get
    before = get()
    with shard_map(SHARD + 1) as smap:
        assert smap is not map
        assert get() == 1
        assert list(smap(abs, [-1, -2, -3])) == [1, 2, 3]
    assert get() == before

    boom = RuntimeError("the body failed")
    with pytest.raises(RuntimeError) as err:
        with shard_map(SHARD + 1):
            assert get() == 1
            raise boom
    assert err.value is boom
    assert get() == before


def test_thread_count_does_not_change_the_bytes(tiny_grid, monkeypatch):
    cfg = tiny_cfg(tiny_grid, batch=SHARDED_BATCH, iterations=3)

    def runs():
        source = train_source(cfg)
        adapted = adapt(source.checkpoint, AdaptConfig("fine_tuning_plus", 1.0, replace(cfg, seed=12)))
        return [(checkpoint_bytes(r.checkpoint), r.log_lines) for r in (source, adapted)]

    used = _spy_on_pools(monkeypatch)
    threaded = runs()
    if simorx.chain._openblas() is not None and len(os.sched_getaffinity(0)) > 1:
        assert used == [True, True]
    monkeypatch.setattr(simorx.chain, "_openblas", lambda: None)
    inline = runs()
    assert used[2:] == [False, False]
    assert threaded == inline


def test_shard_gradients_sum_to_the_full_batch_gradient(tiny_grid, seeded):
    cfg = tiny_cfg(tiny_grid, batch=4 * SHARD + 2)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    rng = seeded(5)
    x = rng.standard_normal((cfg.batch, 2 * cfg.n_rx, NUM_SYMBOLS, tiny_grid.num_subcarriers))
    bits = rng.integers(0, 2, size=(cfg.batch, tiny_grid.num_data_res * 2), dtype=np.uint8)

    flat, grads = simorx.training._batch_gradients(model, x, bits, tiny_grid)
    # More threads than cores, switching often: a layer that kept per-call
    # state would mix the shards up.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            flat_pool, grads_pool = simorx.training._batch_gradients(model, x, bits, tiny_grid, pool.map)
    finally:
        sys.setswitchinterval(interval)
    assert flat.tobytes() == flat_pool.tobytes()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_pool]

    tape = {}
    flat_full = extract_llr_bits(model.forward(x, tape), tiny_grid)
    want = model.backward(scatter_llr_bit_grad(bmd_loss_grad(flat_full, bits, bits.size), tiny_grid, 2), tape)
    np.testing.assert_allclose(flat, flat_full, rtol=1e-6, atol=1e-6)
    assert len(grads) == len(want) == len(model.trainable_params())
    for got, ref in zip(grads, want):
        assert np.linalg.norm(got - ref) <= 1e-5 * np.linalg.norm(ref)


def test_blas_thread_count_is_restored_when_the_run_returns_or_raises(tiny_grid, monkeypatch):
    blas = simorx.chain._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread setter is not available")
    get, _ = blas
    before = get()
    cfg = tiny_cfg(tiny_grid, batch=SHARDED_BATCH, iterations=2)
    during = []
    shard = simorx.training._shard_gradients

    def counting(*args, **kwargs):
        during.append(get())
        return shard(*args, **kwargs)

    monkeypatch.setattr(simorx.training, "_shard_gradients", counting)
    used = _spy_on_pools(monkeypatch)
    train_source(cfg)
    assert get() == before
    if used[0]:
        assert set(during) == {1}
    monkeypatch.setattr(simorx.training, "bmd_loss_grad", lambda llrs, bits, count: np.full_like(llrs, np.nan))
    with pytest.raises(TrainingDiverged, match="non-finite gradient"):
        train_source(cfg)
    assert get() == before


def test_non_finite_logits_in_one_shard_keep_the_pre_update_state(tiny_grid, monkeypatch):
    cfg = tiny_cfg(tiny_grid, batch=SHARDED_BATCH)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    before = checkpoint_bytes(checkpoint_from_model(model, cfg.fingerprint()))
    simulate = simorx.training.simulate_batch

    def poisoned(*args):
        tb = simulate(*args)
        tb.rx[-1] = np.nan  # the last block only: the last shard
        return tb

    monkeypatch.setattr(simorx.training, "simulate_batch", poisoned)
    with pytest.raises(TrainingDiverged, match="non-finite logits at iteration 0") as err:
        run_training(model, cfg)
    assert checkpoint_bytes(err.value.checkpoint) == before
    assert checkpoint_bytes(checkpoint_from_model(model, cfg.fingerprint())) == before
