"""Evaluation harness: genie baseline, BLER loop, result files, sweeps, CLI."""

import contextlib
import itertools
import math
import os
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import simorx.chain
import simorx.harness.bler
import simorx.harness.sweep
from simorx.chain import code_for_grid, simulate_batch
from simorx.checkpoint import checkpoint_from_model, save_checkpoint
from simorx.channel.fading import ebno_to_n0
from simorx.channel.profiles import load_profile
from simorx.config import EBNO_GRID_DB, SCALES, make_eval_config, make_train_config
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
from simorx.harness.genie import LLR_CLIP, genie_lmmse_llrs
from simorx.harness.results import (
    CSV_HEADER,
    emit_results,
    load_yaml,
    profile_checksums,
    read_curve_csv,
    read_manifest,
    write_curve_csv,
)
from simorx.harness.sweep import SweepConfig, sweep
from simorx.phy.ldpc import decode
from simorx.phy.modulation import get_scheme
from simorx.receiver import ModelSpec, ReceiverModel

from oracles import uncoded_qpsk_ber


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


def where_genie_llrs(y, h, n0, scheme):
    """The demapper with each bit's minima taken over ``inf``-padded copies
    of the distance array: the byte-for-byte reference."""
    energy = np.sum(np.abs(h) ** 2, axis=-1)
    z = np.sum(np.conj(h) * y, axis=-1) / np.maximum(energy, 1e-30)
    var = np.broadcast_to(np.asarray(n0, dtype=np.float64), energy.shape) / np.maximum(energy, 1e-30)
    d2 = np.abs(z[..., None] - scheme.points) ** 2
    masks = scheme.bit_masks()
    llrs = np.empty(z.shape + (scheme.bits_per_symbol,))
    for k in range(scheme.bits_per_symbol):
        d_one = np.where(masks[k], d2, np.inf).min(axis=-1)
        d_zero = np.where(masks[k], np.inf, d2).min(axis=-1)
        raw = (d_zero - d_one) / np.maximum(var, 1e-30)
        np.clip(raw, -LLR_CLIP, LLR_CLIP, out=raw)
        llrs[..., k] = raw
    return llrs


@pytest.mark.parametrize("per_block", [False, True])
@pytest.mark.parametrize("n_rx", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["qpsk", "16qam", "64qam"])
def test_genie_llrs_match_the_where_form_byte_for_byte(name, n_rx, per_block):
    scheme = get_scheme(name)
    rng = np.random.default_rng(n_rx)
    shape = (3, 40, n_rx)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = scheme.points[rng.integers(0, scheme.num_points, size=shape[:2])]
    y = h * s[..., None] + 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    y[0, :4] = h[0, :4] = 0.0  # no energy: the variance floor
    n0 = rng.uniform(0.05, 2.0, size=(3, 1)) if per_block else 0.3
    got = genie_lmmse_llrs(y, h, n0, scheme)
    assert got.tobytes() == where_genie_llrs(y, h, n0, scheme).tobytes()


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
    for field in ("n_rx", "max_blocks", "max_block_errors", "batch"):
        for bad in (0, 1.5, 2.5, 4.0, True, "4", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
                tiny_eval(tiny_grid, **{field: bad})
        with pytest.raises(ConfigError, match=field):
            make_eval_config(**{field: 2.5})
        assert getattr(tiny_eval(tiny_grid, **{field: np.int64(4)}), field) == 4
    for field in ("seed", "ldpc_seed"):
        for bad in (-1, 2.5, 4.0, True, "4", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 0"):
                tiny_eval(tiny_grid, **{field: bad})
        assert getattr(tiny_eval(tiny_grid, **{field: np.int64(0)}), field) == 0
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
    assert (curve.technique, curve.alpha, curve.seed) == ("neural", None, cfg.seed)
    assert (curve.source_fp, curve.target_fp) == ("", "cafe01234567")


class RecordingReceiver:
    """Passes ``llrs`` on to ``receiver`` and records each call's block count."""

    def __init__(self, receiver):
        self.receiver = receiver
        self.sizes = []

    def llrs(self, tb):
        self.sizes.append(tb.batch)
        return self.receiver.llrs(tb)

    def describe(self):
        return self.receiver.describe()


def whole_batch_points(cfg: EvalConfig, receiver) -> list:
    """The BLER points of a loop that evaluates and decodes every batch whole
    and counts the first blocks each point still needs."""
    scheme = get_scheme(cfg.modulation)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)
    profile = load_profile(cfg.profile)
    points = []
    for point_idx, ebno in enumerate(cfg.ebno_grid_db):
        n0 = ebno_to_n0(float(ebno), scheme.bits_per_symbol, code.rate)
        blocks = block_errors = bit_errors = batch_idx = 0
        while blocks < cfg.max_blocks and block_errors < cfg.max_block_errors:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, batch_idx)))
            tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
            info, _ = decode(receiver.llrs(tb), code)
            wrong_bits = (info != tb.info_bits).sum(axis=1)[: cfg.max_blocks - blocks]
            blocks += wrong_bits.size
            block_errors += int((wrong_bits > 0).sum())
            bit_errors += int(wrong_bits.sum())
            batch_idx += 1
        points.append(BlerPoint(float(ebno), blocks, block_errors, bit_errors))
    return points


def test_the_last_batch_of_a_point_evaluates_only_the_shards_it_counts(tiny_grid):
    # 20 blocks at batch 16: the second batch is simulated whole (the draws
    # do not change) but only its first shard of 8 goes through the receiver.
    assert simorx.chain.SHARD == 8
    cfg = tiny_eval(tiny_grid, batch=16, max_blocks=20, max_block_errors=100)
    genie = GenieReceiver(get_scheme("qpsk"), tiny_grid)
    rx = RecordingReceiver(genie)
    points = run_bler(cfg, rx).points
    assert [p.blocks for p in points] == [20, 20]
    assert rx.sizes == [8] * 6
    assert points == whole_batch_points(cfg, genie)


@pytest.mark.parametrize("batch", [20, 33])
def test_thread_count_never_changes_a_bler_count(tiny_grid, monkeypatch, batch):
    # 40 blocks per point: at batch 20 every batch ends in a shard of 4, at
    # batch 33 the first ends in a shard of 1 and the second needs 7 blocks.
    cfg = tiny_eval(tiny_grid, batch=batch, max_blocks=40, max_block_errors=40)
    spec = make_train_config("desk", grid=tiny_grid, n_rx=1, width_in=4, width_res=6).model_spec()
    receivers = (
        NeuralReceiver(ReceiverModel(spec, seed=3), tiny_grid),
        GenieReceiver(get_scheme("qpsk"), tiny_grid),
    )
    used = []
    make = simorx.harness.bler.shard_map

    @contextlib.contextmanager
    def spy(batch):
        with make(batch) as smap:
            used.append(smap is not map)
            yield smap

    monkeypatch.setattr(simorx.harness.bler, "shard_map", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two shard threads as often as possible
    try:
        threaded = [run_bler(cfg, rx).points for rx in receivers]
    finally:
        sys.setswitchinterval(interval)
    if simorx.chain._openblas() is not None and len(os.sched_getaffinity(0)) > 1:
        assert used == [True, True]
    monkeypatch.setattr(simorx.chain, "_openblas", lambda: None)
    inline = [run_bler(cfg, rx).points for rx in receivers]
    assert used[2:] == [False, False]
    assert threaded == inline
    assert all(p.blocks == 40 for points in inline for p in points)


def test_bler_restores_the_blas_thread_count_when_it_returns_or_raises(tiny_grid, blas_get):
    get = blas_get
    before = get()
    cfg = tiny_eval(tiny_grid, batch=20)
    genie = GenieReceiver(get_scheme("qpsk"), tiny_grid)
    during = []

    class Counting(RecordingReceiver):
        def llrs(self, tb):
            during.append(get())
            return super().llrs(tb)

    run_bler(cfg, Counting(genie))
    assert get() == before
    if len(os.sched_getaffinity(0)) > 1:
        assert set(during) == {1}

    boom = RuntimeError("receiver failed on its second shard")

    class FailingOnSecondShard(RecordingReceiver):
        calls = itertools.count()  # next() is atomic: one call alone draws 1

        def llrs(self, tb):
            if next(self.calls) == 1:
                raise boom
            return super().llrs(tb)

    with pytest.raises(RuntimeError) as err:
        run_bler(cfg, FailingOnSecondShard(genie))
    assert err.value is boom
    assert get() == before


# ---------------------------------------------------------------------------
# result files


def demo_curve():
    points = [BlerPoint(-4.0, 96, 80, 5120), BlerPoint(8.0, 96, 3, 17)]
    return BlerCurve(points, "fine_tuning", 0.35, 7, "aaaabbbbcccc", "ddddeeeeffff")


def test_curve_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(demo_curve(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "fine_tuning,0.35,-4.0,96,80,0.8333333333333334,5120,7,aaaabbbbcccc,ddddeeeeffff"

    assert read_curve_csv(path) == demo_curve()


FINGERPRINTS = st.text(alphabet="0123456789abcdef", max_size=12)


@st.composite
def bler_points(draw):
    blocks = draw(st.integers(1, 10**6))
    errors = draw(st.integers(0, blocks))
    return BlerPoint(
        draw(st.floats(-50, 50, allow_nan=False)), blocks, errors, draw(st.integers(errors, 10**9))
    )


@given(
    points=st.lists(bler_points(), min_size=1, max_size=5),
    technique=st.sampled_from(["fine_tuning", "without_tl", "model_transfer", "genie", "eval", "neural"]),
    alpha=st.none() | st.floats(allow_nan=False),
    seed=st.integers(0, 2**63 - 1),
    source_fp=FINGERPRINTS,
    target_fp=FINGERPRINTS,
)
def test_every_curve_reads_back_equal_to_the_one_written(
    tmp_path_factory, points, technique, alpha, seed, source_fp, target_fp
):
    curve = BlerCurve(points, technique, alpha, seed, source_fp, target_fp)
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    write_curve_csv(curve, path)
    assert read_curve_csv(path) == curve


@pytest.mark.parametrize(
    "name, value",
    [("technique", "other"), ("alpha", "0.5"), ("seed", "8"), ("source_fp", "other"), ("target_fp", "other")],
)
def test_csv_reader_rejects_rows_that_disagree_on_a_run_column(tmp_path, name, value):
    path = tmp_path / "curve.csv"
    write_curve_csv(demo_curve(), path)
    header, first, second = path.read_text().splitlines()
    fields = second.split(",")
    fields[CSV_HEADER.split(",").index(name)] = value
    path.write_text("\n".join([header, first, ",".join(fields)]) + "\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: rows disagree on {name}"):
        read_curve_csv(path)


def test_csv_reader_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: no rows"):
        read_curve_csv(path)


def test_csv_reader_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("ebno,bler\n0.0,0.5\n")
    with pytest.raises(ConfigError, match="unexpected header"):
        read_curve_csv(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text(CSV_HEADER + "\nonly,three,fields\n")
    with pytest.raises(ConfigError, match="malformed row"):
        read_curve_csv(bad_row)
    not_a_number = tmp_path / "c.csv"
    not_a_number.write_text(CSV_HEADER + "\nfine_tuning,,0.0,many,1,0.5,3,0,,\n")
    with pytest.raises(ConfigError, match="malformed row"):
        read_curve_csv(not_a_number)


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
    ev = make_eval_config("desk", ebno_grid_db=[0, 8], max_blocks=4)
    assert ev.ebno_grid_db == (0, 8)
    assert ev.max_blocks == 4
    assert ev.batch == SCALES["desk"]["eval_batch"]


def test_none_overrides_keep_the_preset():
    assert make_train_config("desk", iterations=None, batch=None) == make_train_config("desk")
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
        scale="desk",
        source_modulation="qpsk",
        source_profile="flat",
        target_modulation="16qam",
        target_profile="flat",
        alphas=(0.5,),
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
    # The two sweep modes are one loop now; an old config naming one fails.
    with pytest.raises(ConfigError, match="unknown sweep config keys"):
        SweepConfig.from_dict({**cfg.to_dict(), "mode": "alpha"})
    with pytest.raises(ConfigError, match="unknown technique"):
        tiny_sweep_config(techniques=("fine_tuning", "prompting"))


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"benchmarks": ("model_transfer", "oracle")}, "benchmark"),
        ({"alphas": (0.0,)}, "alpha"),
        ({"alphas": (float("nan"),)}, "alpha"),
        ({"alphas": ("0.1",)}, "alpha"),
        ({"alphas": (0.0, 2.0)}, "alpha"),
        ({"alphas": (0.5, 2.0)}, "alpha"),
        ({"seeds": ()}, "seeds"),
        # a scalar where a list belongs
        ({"seeds": 3}, "seeds must be a list"),
        ({"alphas": 0.5}, "alphas must be a list"),
        ({"techniques": "fine_tuning"}, "techniques must be a list"),
        ({"ebno_grid_db": 8.0}, "ebno_grid_db must be a list"),
        # modulations and profiles, checked before the source trains
        ({"target_modulation": "8psk"}, "unknown modulation"),
        ({"source_modulation": 8}, "unknown modulation"),
        ({"target_profile": "cdl_z"}, "unknown profile"),
        ({"source_profile": 5}, "profile must be"),
        # seeds reach SeedSequence, which takes no negative entropy
        ({"source_seed": -1}, "integers >= 0"),
        ({"seeds": (0, -1)}, "integers >= 0"),
        ({"seeds": (0.5,)}, "integers >= 0"),
        # a repeated entry would run one variant twice under one file name
        ({"alphas": (0.5, 1.0, 0.5)}, "alphas repeats"),
        ({"alphas": (1, 1.0)}, "alphas repeats"),
        ({"seeds": (0, 0)}, "seeds repeats"),
        ({"techniques": ("fine_tuning", "fine_tuning")}, "techniques repeats"),
    ],
)
def test_sweep_config_rejects_bad_values_before_any_training(bad, match):
    with pytest.raises(ConfigError, match=match):
        tiny_sweep_config(**bad)


def test_technique_sweep_produces_a_curve_per_variant(tmp_path):
    out = tmp_path / "sweep"
    result = sweep(tiny_sweep_config(include_genie=True), out)
    produced = {os.path.basename(p) for p in result.curve_paths}
    assert produced == {
        "fine_tuning_a0.5_s0.csv",
        "fine_tuning_plus_a0.5_s0.csv",
        "feature_extraction_a0.5_s0.csv",
        "without_tl_a0.5_s0.csv",
        "model_transfer_s0.csv",
        "genie.csv",
    }
    assert read_curve_csv(out / "genie.csv").technique == "genie"
    assert os.path.basename(result.source_checkpoint_path) == "source.ckpt"
    assert all(os.path.exists(p) for p in result.checkpoint_paths)
    # model_transfer trains nothing, so it leaves no run log
    logged = {os.path.basename(p) for p in result.log_paths}
    assert "model_transfer_s0_log.csv" not in logged
    assert "source_log.csv" in logged
    manifest = read_manifest(result.manifest_path)
    assert manifest["config"]["alphas"] == [0.5]
    assert manifest["config"]["include_genie"] is True
    # the manifest names every file the sweep wrote, and nothing else
    assert manifest["files"] == sorted(set(os.listdir(out)) - {"manifest.yaml"})
    written = result.curve_paths + result.checkpoint_paths + result.log_paths
    assert manifest["files"] == sorted(os.path.basename(p) for p in written)


def test_sweep_runs_every_technique_at_every_alpha(tmp_path):
    iterations = 4
    cfg = tiny_sweep_config(
        techniques=("fine_tuning", "feature_extraction"), alphas=(0.25, 1.0), iterations=iterations
    )
    result = sweep(cfg, tmp_path / "grid")
    assert sorted(os.path.basename(p) for p in result.curve_paths) == sorted([
        "fine_tuning_a0.25_s0.csv", "fine_tuning_a1.0_s0.csv",
        "feature_extraction_a0.25_s0.csv", "feature_extraction_a1.0_s0.csv",
        "without_tl_a0.25_s0.csv", "without_tl_a1.0_s0.csv",
        "model_transfer_s0.csv",
    ])
    steps = {}
    for path in result.log_paths:
        name = os.path.basename(path)
        if name != "source_log.csv":
            steps[name] = len(Path(path).read_text().splitlines()) - 1  # minus the header
    assert steps == {
        f"{variant}_a{a}_s0_log.csv": round(a * iterations)
        for variant in ("fine_tuning", "feature_extraction", "without_tl")
        for a in (0.25, 1.0)
    }


def test_alpha_sweep_budgets_scale_with_alpha(tmp_path):
    cfg = tiny_sweep_config(
        techniques=("fine_tuning",),
        benchmarks=(),
        alphas=(0.25, 0.5, 1.0),
        seeds=(0, 3),
        iterations=8,
    )
    result = sweep(cfg, tmp_path / "alpha")
    assert len(result.curve_paths) == 6  # every alpha for every seed
    steps = {}
    for path in result.log_paths:
        name = os.path.basename(path)
        if name == "source_log.csv":
            continue
        rows = Path(path).read_text().splitlines()
        alpha, seed = name[len("fine_tuning_a"):-len("_log.csv")].split("_s")
        steps[float(alpha), int(seed)] = len(rows) - 1  # minus the header
        assert rows[-1].endswith(f",{seed}")  # the run log's seed column
    assert steps == {(a, seed): round(a * 8) for a in (0.25, 0.5, 1.0) for seed in (0, 3)}
    for path in result.curve_paths:
        seed = os.path.basename(path)[: -len(".csv")].split("_s")[-1]
        assert read_curve_csv(path).seed == int(seed)


def test_sweep_reruns_from_its_manifest_byte_for_byte(tmp_path):
    cfg = tiny_sweep_config(
        techniques=("feature_extraction",), benchmarks=(), alphas=(0.5,), iterations=2
    )
    first = sweep(cfg, tmp_path / "one")
    replay_cfg = SweepConfig.from_dict(read_manifest(first.manifest_path)["config"])
    second = sweep(replay_cfg, tmp_path / "two")
    for a, b in zip(sorted(first.curve_paths), sorted(second.curve_paths)):
        assert os.path.basename(a) == os.path.basename(b)
        assert Path(a).read_bytes() == Path(b).read_bytes()
    a_src = Path(first.source_checkpoint_path).read_bytes()
    b_src = Path(second.source_checkpoint_path).read_bytes()
    assert a_src == b_src


def test_sweep_can_start_from_an_existing_checkpoint(tmp_path):
    first = sweep(
        tiny_sweep_config(techniques=("fine_tuning",), benchmarks=()), tmp_path / "one"
    )
    cfg = tiny_sweep_config(
        techniques=("fine_tuning",), benchmarks=(), source_checkpoint=first.source_checkpoint_path
    )
    second = sweep(cfg, tmp_path / "two")
    assert second.source_checkpoint_path == first.source_checkpoint_path
    assert not os.path.exists(tmp_path / "two" / "source.ckpt")
    assert "source.ckpt" not in read_manifest(second.manifest_path)["files"]


def test_demo_04_sweeps_alpha_end_to_end(tmp_path, monkeypatch, capsys):
    import runpy

    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "04_alpha_budget_sweep.py")
    out = tmp_path / "demo"
    argv = [demo, "--iterations", "4", "--alphas", "0.5", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(demo, run_name="__main__")
    printed = capsys.readouterr().out
    assert "fine_tuning_a0.5_s0_log.csv" in printed
    assert "alpha   0.5:" in printed
    assert "5 files" in printed  # source checkpoint and log, adapted ones, one CSV
    assert sorted(os.listdir(out)) == [
        "fine_tuning_a0.5_s0.ckpt", "fine_tuning_a0.5_s0.csv", "fine_tuning_a0.5_s0_log.csv",
        "manifest.yaml", "source.ckpt", "source_log.csv",
    ]


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
    assert curve.technique == "genie"
    assert curve.points[0].bler < 0.5  # the genie is clean at 8 dB


def test_cli_sweep_runs_a_yaml_config(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_sweep_config(techniques=("fine_tuning",), benchmarks=()).to_dict()))
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


@pytest.mark.parametrize(
    "content", [b"techniques: [a\n", b"techniques: [\xff]\n", None], ids=["unclosed", "not-utf8", "missing"]
)
def test_cli_sweep_rejects_an_unreadable_config_file_with_one_error_line(tmp_path, capsys, content):
    cfg_path = tmp_path / "sweep.yaml"
    if content is not None:
        cfg_path.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: cannot read YAML: ")
    assert not out.exists()
    with pytest.raises(ConfigError, match="cannot read YAML") as exc:
        read_manifest(cfg_path)
    assert str(cfg_path) in str(exc.value)


def cli_sweep_rejects_before_any_training(tmp_path, capsys, monkeypatch, bad: dict, match: str):
    def no_training(cfg):
        raise AssertionError("trained before rejecting the config")

    monkeypatch.setattr(simorx.harness.sweep, "train_source", no_training)
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


@pytest.mark.parametrize(
    "key, value, error",
    [("batch", 0, "batch must be an integer >= 1, got 0"),
     ("iterations", 2.5, "iterations must be an integer >= 0, got 2.5")],
)
def test_cli_sweep_rejects_a_bad_training_config_before_making_out(tmp_path, capsys, key, value, error):
    # The source and target training configs are built before --out is
    # made, so a bad budget stops the sweep with one error line and leaves
    # no directory behind.
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**tiny_sweep_config().to_dict(), key: value}))
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "baseline"])
@pytest.mark.parametrize("form", [["--ebno", "-2,2,6"], ["--ebno=-2,2,6"]], ids=["space", "equals"])
def test_cli_parses_an_ebno_grid_that_starts_below_zero(monkeypatch, verb, form):
    from simorx.harness import cli

    seen = []
    monkeypatch.setitem(cli._COMMANDS, verb, lambda args: seen.append(args.ebno) or 0)
    checkpoint = ["--checkpoint", "c"] if verb == "eval" else []
    assert main([verb, *checkpoint, *form, "--max-blocks", "1"]) == 0
    assert seen == [(-2.0, 2.0, 6.0)]


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
    save_checkpoint(checkpoint_from_model(ReceiverModel(ModelSpec(2, 4, 6, 1, 2))), path)
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


@pytest.mark.parametrize(
    "spec, key, have, want",
    [(ModelSpec(4, 4, 6, 1, 2), "out_bits", 2, 4), (ModelSpec(2, 4, 6, 1, 4), "in_channels", 2, 4)],
    ids=["modulation", "antennas"],
)
def test_cli_eval_rejects_a_receiver_that_does_not_fit_before_any_batch(
    tmp_path, capsys, monkeypatch, spec, key, have, want
):
    def no_batch(*args):
        raise AssertionError("simulated a batch before rejecting the checkpoint")

    monkeypatch.setattr(simorx.harness.bler, "simulate_batch", no_batch)
    path = tmp_path / "rx.ckpt"
    save_checkpoint(checkpoint_from_model(ReceiverModel(spec)), path)
    out = tmp_path / "eval"
    code = run_cli(
        "eval", "--checkpoint", str(path), "--modulation", "16qam", "--scale", "desk",
        "--profile", "flat", "--ebno", "8", "--max-blocks", "4", "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: the receiver has {key}={have}, but 16qam with 2 antennas needs {key}={want}"
    ]
    assert not out.exists()


def test_cli_rejects_a_negative_seed_with_exit_two(tmp_path, capsys):
    for verb in ("train-source", "baseline"):
        out = tmp_path / verb
        code = run_cli(verb, "--scale", "desk", "--profile", "flat", "--seed", "-1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: seed must be an integer >= 0, got -1"]
        assert not out.exists()


# Each verb's job, which an unusable --out must stop before it starts.
OUT_JOBS = {
    "train-source": ("simorx.training", "train_source"),
    "adapt": ("simorx.transfer", "adapt"),
    "eval": ("simorx.harness.bler", "run_bler"),
    "baseline": ("simorx.harness.bler", "run_bler"),
    "sweep": ("simorx.harness.sweep", "train_source"),
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("verb", list(OUT_JOBS))
def test_cli_rejects_an_out_path_that_cannot_be_a_directory_before_any_work(
    tmp_path, capsys, monkeypatch, verb, under
):
    def no_job(*args, **kwargs):
        raise AssertionError(f"{verb} started its job before checking --out")

    module, name = OUT_JOBS[verb]
    monkeypatch.setattr(sys.modules[module], name, no_job)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if under else taken
    domain = ["--scale", "desk", "--profile", "flat"]
    ckpt = tmp_path / "rx.ckpt"
    save_checkpoint(checkpoint_from_model(ReceiverModel(ModelSpec(4, 4, 6, 1, 2))), ckpt)
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_sweep_config().to_dict()))
    argv = {
        "train-source": ["train-source", *domain],
        "adapt": ["adapt", "--source", str(ckpt), "--technique", "fine_tuning", *domain],
        "eval": ["eval", "--checkpoint", str(ckpt), *domain, "--ebno", "6", "--max-blocks", "4"],
        "baseline": ["baseline", *domain, "--ebno", "6", "--max-blocks", "4"],
        "sweep": ["sweep", "--config", str(cfg_path)],
    }[verb]
    assert run_cli(*argv, "--out", str(out)) == 2
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out}: cannot make the output directory: {reason}"
    ]
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("verb", ["adapt", "sweep"])
def test_a_missing_source_checkpoint_leaves_no_output_directory(tmp_path, capsys, monkeypatch, verb):
    # The source is read before --out is made, so a missing one stops the
    # verb with one error line and nothing left behind.
    def no_job(*args, **kwargs):
        raise AssertionError(f"{verb} started its job before reading the source")

    module, name = OUT_JOBS[verb]
    monkeypatch.setattr(sys.modules[module], name, no_job)
    missing = tmp_path / "missing.ckpt"
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_sweep_config(source_checkpoint=str(missing)).to_dict()))
    argv = {
        "adapt": ["adapt", "--source", str(missing), "--technique", "fine_tuning", "--profile", "flat"],
        "sweep": ["sweep", "--config", str(cfg_path)],
    }[verb]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {missing}: cannot read: No such file or directory"
    ]
    assert not out.exists()


def test_cli_reports_a_non_finite_gradient_as_exit_two(tmp_path, capsys, monkeypatch):
    import simorx.training

    monkeypatch.setattr(simorx.training, "bmd_loss_grad", lambda llrs, bits, count: np.full_like(llrs, np.nan))
    code = run_cli(
        "train-source", "--scale", "desk", "--profile", "flat",
        "--iterations", "2", "--batch", "2", "--out", str(tmp_path / "src"),
    )
    assert code == 2
    assert "non-finite gradient at iteration 0" in capsys.readouterr().err
