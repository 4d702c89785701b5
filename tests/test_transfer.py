"""Checkpoint format, model surgery, the freeze rule, and adaptation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simorx.channel.profiles import PACKAGED_PROFILES
from simorx.checkpoint import (
    MAGIC,
    Checkpoint,
    checkpoint_bytes,
    checkpoint_from_model,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from simorx.errors import CheckpointError, ConfigError
from simorx.phy.grid import SUPPORTED_SCS_KHZ, GridConfig
from simorx.receiver import ModelSpec, ReceiverModel
from simorx.training import TrainConfig, TrainResult, run_training
from simorx.transfer import (
    FROZEN_PREFIX,
    REFERENCE_PARAM_TOTALS,
    TECHNIQUES,
    AdaptConfig,
    add_resnet_block,
    adapt,
    alpha_steps,
    count_params,
    reference_comparison,
    run_benchmark,
    set_trainable,
)


def tiny_cfg(grid, **kw):
    base = dict(
        modulation="qpsk",
        profile="flat",
        grid=grid,
        n_rx=1,
        width_in=4,
        width_res=6,
        num_blocks=4,
        batch=2,
        iterations=20,
        lr=1e-3,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def model_weights(model):
    return {
        f"{qual}.{pname}": arr.copy()
        for qual, _, pname, arr in model.named_param_items()
    }


# ---------------------------------------------------------------------------
# checkpoint round trips


def test_file_round_trip_is_bit_exact(tmp_path):
    model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    model.trainable["block1"] = False
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, fingerprint={"modulation": "qpsk", "seed": 5})
    ck = read_checkpoint(path)

    loaded = load_checkpoint(ck)
    assert loaded.reinitialized == []
    before = model_weights(model)
    after = model_weights(loaded.model)
    assert before.keys() == after.keys()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])
    assert loaded.model.trainable == model.trainable

    # Serialising the parsed checkpoint reproduces the file byte for byte.
    assert checkpoint_bytes(ck) == path.read_bytes()


def test_fingerprint_id_is_stable_and_order_free():
    a = Checkpoint({"x": "1", "y": "2"}, [])
    b = Checkpoint({"y": "2", "x": "1"}, [])
    assert a.fingerprint_id == b.fingerprint_id
    assert len(a.fingerprint_id) == 12
    assert a.fingerprint_id != Checkpoint({"x": "1", "y": "3"}, []).fingerprint_id


def valid_blob(tmp_path):
    model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    path = tmp_path / "ok.ckpt"
    save_checkpoint(model, path)
    return path, path.read_bytes()


def corrupt(tmp_path, blob, old, new):
    assert len(old) == len(new), "corruption must preserve offsets"
    assert blob.count(old) == 1
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob.replace(old, new))
    return path


def test_rejects_bad_magic(tmp_path):
    path, blob = valid_blob(tmp_path)
    bad = corrupt(tmp_path, blob, b"NRXCKPT1", b"NRXCKPT9")
    with pytest.raises(CheckpointError, match="bad magic"):
        read_checkpoint(bad)


def test_rejects_truncated_file(tmp_path):
    path, blob = valid_blob(tmp_path)
    path.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="truncated or oversized"):
        read_checkpoint(path)


def test_rejects_unsupported_format(tmp_path):
    _, blob = valid_blob(tmp_path)
    bad = corrupt(tmp_path, blob, b"format=1\n", b"format=2\n")
    with pytest.raises(CheckpointError, match="unsupported format"):
        read_checkpoint(bad)


def test_rejects_unknown_layer_kind(tmp_path):
    _, blob = valid_blob(tmp_path)
    bad = corrupt(tmp_path, blob, b"layer.0.kind=conv2d\n", b"layer.0.kind=conv3d\n")
    with pytest.raises(CheckpointError, match="unknown layer kind"):
        read_checkpoint(bad)


def test_rejects_offset_gap(tmp_path):
    _, blob = valid_blob(tmp_path)
    bad = corrupt(tmp_path, blob, b"layer.0.offset=0\n", b"layer.0.offset=4\n")
    with pytest.raises(CheckpointError, match="tile exactly"):
        read_checkpoint(bad)


def test_rejects_size_shape_disagreement(tmp_path):
    _, blob = valid_blob(tmp_path)
    # input conv is 4x2x3x3 + 4 bias floats = 304 bytes
    bad = corrupt(tmp_path, blob, b"layer.0.nbytes=304\n", b"layer.0.nbytes=300\n")
    with pytest.raises(CheckpointError, match="disagrees with its shape"):
        read_checkpoint(bad)


def test_rejects_non_header_garbage(tmp_path):
    _, blob = valid_blob(tmp_path)
    bad = corrupt(tmp_path, blob, b"format=1\n", b"format+1\n")
    with pytest.raises(CheckpointError, match="not key=value"):
        read_checkpoint(bad)


def split_blob(blob):
    header_len = int.from_bytes(blob[8:16], "little")
    return blob[24 : 24 + header_len], blob[24 + header_len :]


def frame(header, payload):
    """A file with correct length fields around ``header`` and ``payload``."""
    return MAGIC + len(header).to_bytes(8, "little") + len(payload).to_bytes(8, "little") + header + payload


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"layer.0.kernel=3x3\n", b"layer.0.kernel=3\n", "layer.0.kernel must read KHxKW"),
        (b"layer.0.kernel=3x3\n", b"layer.0.kernel=3xc\n", "layer.0.kernel must be an integer >= 1"),
        (b"layer.0.in=2\n", b"layer.0.in=two\n", "layer.0.in must be an integer >= 1"),
        (b"layer.0.out=4\n", b"layer.0.out=-4\n", "layer.0.out must be an integer >= 1"),
        (b"layer.1.channels=4\n", b"layer.1.channels=0\n", "layer.1.channels must be an integer >= 1"),
        (b"fingerprint.width_in=4\n", b"fingerprint.width_in=four\n", "fingerprint.width_in must be"),
        (b"fingerprint.num_blocks=2\n", b"", "fingerprint.num_blocks must be an integer >= 1, got None"),
        (b"fingerprint.width_res=6\n", b"fingerprint.width_res=60000\n", "widths disagree with the conv"),
    ],
)
def test_malformed_numbers_name_the_file_and_the_key(tmp_path, old, new, message):
    _, blob = valid_blob(tmp_path)
    header, payload = split_blob(blob)
    assert header.count(old) == 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(frame(header.replace(old, new), payload))
    with pytest.raises(CheckpointError, match=message) as err:
        load_checkpoint(bad)
    assert str(err.value).startswith(f"{bad}: ")


def test_malformed_seed_is_a_checkpoint_error():
    model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    for seed in ("-1", "five", "2.5"):
        with pytest.raises(CheckpointError, match="fingerprint.seed must be an integer >= 0"):
            load_checkpoint(checkpoint_from_model(model, {"seed": seed}))


def _fuzz_sources():
    """Two valid checkpoint files of different architectures."""
    a = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    b = ReceiverModel(ModelSpec(4, 6, 6, 1, 4), seed=7)
    return [checkpoint_bytes(checkpoint_from_model(m, {"seed": m.seed})) for m in (a, b)]


FUZZ_SOURCES = _fuzz_sources()


@st.composite
def fuzzed_checkpoints(draw):
    """A valid checkpoint with one byte replaced, cut short, spliced with
    another at a byte or line boundary, in the header, the payload or the
    whole file; header and payload edits keep the length fields right."""
    blob, other = draw(st.permutations(FUZZ_SOURCES))
    part = draw(st.sampled_from(["header", "payload", "file"]))
    edit = draw(st.sampled_from(["replace", "truncate", "splice", "swap lines"]))
    (header, payload), (other_header, other_payload) = split_blob(blob), split_blob(other)
    data, donor = {
        "header": (header, other_header), "payload": (payload, other_payload), "file": (blob, other)
    }[part]
    i = draw(st.integers(0, len(data)))
    if edit == "replace" and data:
        i = min(i, len(data) - 1)
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    elif edit == "truncate":
        data = data[:i]
    elif edit == "splice":
        data = data[:i] + donor[draw(st.integers(0, len(donor))) :]
    elif edit == "swap lines":
        lines, donor_lines = data.split(b"\n"), donor.split(b"\n")
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(donor_lines))
        data = b"\n".join(lines)
    if part == "header":
        return frame(data, payload)
    if part == "payload":
        return frame(header, data)
    return data


@settings(max_examples=300)
@given(blob=fuzzed_checkpoints())
def test_fuzzed_checkpoints_load_or_raise_checkpoint_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError as err:
        assert str(err).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# loading with and without a target spec


def test_permissive_load_transplants_what_fits():
    source_model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    src = checkpoint_from_model(source_model)
    target_spec = ModelSpec(2, 4, 6, 2, 4)  # wider head: 4 bits per RE
    out = load_checkpoint(src, target_spec=target_spec, init_seed=9)

    assert [n for n, _ in out.reinitialized] == ["output_conv"]
    assert "shape mismatch" in out.delta[0]
    np.testing.assert_array_equal(out.model.input_conv.wmat, source_model.input_conv.wmat)
    np.testing.assert_array_equal(
        out.model.blocks[1].conv2.wmat, source_model.blocks[1].conv2.wmat
    )
    # The head falls back to the fresh init for the target seed.
    fresh = ReceiverModel(target_spec, seed=9)
    np.testing.assert_array_equal(out.model.output_conv.wmat, fresh.output_conv.wmat)


def test_strict_load_refuses_partial_application():
    # A checkpoint that lacks one tensor of the architecture it names:
    # without a target, every tensor of the rebuilt model must apply.
    model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    src = checkpoint_from_model(model)
    src.layers = [rec for rec in src.layers if rec.name != "block2.conv2"]
    with pytest.raises(CheckpointError, match="could not apply every tensor") as err:
        load_checkpoint(src)
    assert "block2.conv2 (not present in the checkpoint)" in str(err.value)
    # A fingerprint that names three blocks over the layer records of two:
    # with a target, what fits is transplanted and the rest reported.
    src = checkpoint_from_model(model, {"num_blocks": 3})
    block3 = {f"block3.{sub}" for sub in ("norm1", "conv1", "norm2", "conv2")}
    out = load_checkpoint(src, target_spec=ModelSpec(2, 4, 6, 3, 2))
    assert {n for n, _ in out.reinitialized} == block3


@pytest.mark.parametrize("num_blocks", [1, 3, 300])
def test_fingerprint_block_count_must_match_the_block_records(num_blocks):
    # Checked before any model is built: a bad count costs no allocation
    # and gives one short message.
    src = checkpoint_from_model(ReceiverModel(ModelSpec(2, 4, 6, 2, 2)), {"num_blocks": num_blocks})
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(src)
    assert str(err.value) == (
        f"checkpoint: fingerprint.num_blocks={num_blocks} disagrees with the 2 block records"
    )


def test_spec_comes_from_fingerprint_when_no_target_given():
    model = ReceiverModel(ModelSpec(2, 4, 6, 2, 2), seed=5)
    ck = checkpoint_from_model(model, {"seed": 5})
    out = load_checkpoint(ck)
    assert out.model.spec == model.spec
    assert out.model.seed == 5


# ---------------------------------------------------------------------------
# surgery and the freeze rule


def test_surgery_adds_one_block_to_a_four_block_model():
    model = ReceiverModel(ModelSpec(2, 4, 6, 4, 2), seed=1)
    before = model_weights(model)
    add_resnet_block(model)
    assert model.spec.num_blocks == 5
    assert "block5" in model.trainable
    after = model_weights(model)
    for key in before:  # existing tensors untouched by surgery
        np.testing.assert_array_equal(before[key], after[key])


def test_zeroed_new_block_is_a_pass_through(seeded):
    model = ReceiverModel(ModelSpec(2, 4, 6, 4, 2), seed=1)
    x = seeded(2).standard_normal((2, 2, 8, 9)).astype(np.float32)
    want = model.forward(x)
    add_resnet_block(model)
    model.blocks[4].conv2.wmat[:] = 0.0
    model.blocks[4].conv2.bias[:] = 0.0
    np.testing.assert_array_equal(model.forward(x), want)


def test_freeze_policies_set_exact_flags():
    model = add_resnet_block(ReceiverModel(ModelSpec(2, 4, 6, 4, 2), seed=1))
    names = [n for n, _ in model.coarse_layers()]
    assert names == ["input_conv", "block1", "block2", "block3", "block4", "block5", "output_conv"]
    assert TECHNIQUES == tuple(FROZEN_PREFIX) == ("fine_tuning", "fine_tuning_plus", "feature_extraction")

    want = {
        "fine_tuning": [True] * 7,
        "fine_tuning_plus": [False, False, True, True, True, True, True],
        "feature_extraction": [False] * 5 + [True, True],
    }
    for tech, k in FROZEN_PREFIX.items():
        set_trainable(model, k)
        assert [model.trainable[n] for n in names] == want[tech], tech

    # A layer holding a re-initialised tensor trains whatever k says.
    set_trainable(model, FROZEN_PREFIX["feature_extraction"], {"input_conv", "output_conv"})
    assert [model.trainable[n] for n in names] == [True] + [False] * 4 + [True, True]

    # The rule does not depend on the block count.
    one = add_resnet_block(ReceiverModel(ModelSpec(2, 4, 6, 1, 2), seed=1))
    set_trainable(one, FROZEN_PREFIX["feature_extraction"])
    assert one.trainable == {"input_conv": False, "block1": False, "block2": True, "output_conv": True}


# ---------------------------------------------------------------------------
# parameter accounting


def conv_params(c_in, c_out, k=3):
    return c_out * c_in * k * k + c_out


def block_params(c_in, c_out):
    n = 2 * c_in + conv_params(c_in, c_out) + 2 * c_out + conv_params(c_out, c_out)
    if c_in != c_out:
        n += conv_params(c_in, c_out, k=1)
    return n


def test_counts_match_closed_forms():
    model = ReceiverModel(ModelSpec(2, 4, 6, 4, 2), seed=0)
    report = count_params(model)
    by_name = {l.name: l.params for l in report.layers}
    assert by_name["input_conv"] == conv_params(2, 4)
    assert by_name["block1"] == block_params(4, 6)
    assert by_name["block2"] == block_params(6, 6)
    assert by_name["output_conv"] == conv_params(6, 2)
    assert report.total == sum(by_name.values())
    assert report.total == report.trainable_total + report.frozen_total


def test_accounting_identities_across_techniques():
    spec = ModelSpec(2, 4, 6, 4, 2)
    six_total = count_params(ReceiverModel(spec)).total

    model = add_resnet_block(ReceiverModel(spec, seed=0))
    seven = count_params(model)
    assert seven.total == six_total + block_params(6, 6)

    ftp = count_params(set_trainable(model, FROZEN_PREFIX["fine_tuning_plus"]))
    assert ftp.trainable_total == seven.total - conv_params(2, 4) - block_params(4, 6)
    assert ftp.frozen_total == conv_params(2, 4) + block_params(4, 6)

    fe = count_params(set_trainable(model, FROZEN_PREFIX["feature_extraction"]))
    assert fe.trainable_total == block_params(6, 6) + conv_params(6, 2)

    ft = count_params(set_trainable(ReceiverModel(spec), FROZEN_PREFIX["fine_tuning"]))
    assert ft.trainable_total == ft.total == six_total


def test_report_format_lists_every_layer_and_the_totals():
    model = set_trainable(add_resnet_block(ReceiverModel(ModelSpec(2, 4, 6, 4, 2))), FROZEN_PREFIX["feature_extraction"])
    text = count_params(model).format()
    for name in ("input_conv", "block5", "output_conv", "frozen", "trainable"):
        assert name in text
    assert f"total {count_params(model).total}" in text


def test_published_reference_totals_are_frozen():
    assert REFERENCE_PARAM_TOTALS == {
        "fine_tuning_trainable": 4_858_882,
        "seven_layer_total": 6_071_554,
        "feature_extraction_trainable": 1_214_978,
        "fine_tuning_plus_trainable": 4_852_994,
    }


def test_reference_comparison_prints_ours_beside_published(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    text = reference_comparison(cfg)
    for published in ("4858882", "6071554", "1214978", "4852994"):
        assert published in text
    spec = cfg.model_spec()
    ours_ft = count_params(ReceiverModel(spec)).total
    assert str(ours_ft) in text
    assert "differ" in text or "reference counts assume" in text


# ---------------------------------------------------------------------------
# adaptation


def test_adapt_config_budget_rounding(tiny_grid):
    target = tiny_cfg(tiny_grid, iterations=2000)
    for alpha, want in ((0.1, 200), (1.0, 2000), (0.0001, 1)):
        assert AdaptConfig("fine_tuning", alpha, target).steps == want
        assert alpha_steps(alpha, target.iterations) == want
    with pytest.raises(ConfigError, match="unknown technique"):
        AdaptConfig("distillation", 0.1, target)
    # Adaptation and the without_tl benchmark share one alpha rule.
    for bad_alpha in (0.0, -0.1, 1.5, 3.0, float("nan")):
        with pytest.raises(ConfigError, match="alpha"):
            AdaptConfig("fine_tuning", bad_alpha, target)
        with pytest.raises(ConfigError, match="alpha"):
            run_benchmark("without_tl", None, target, alpha=bad_alpha)


@pytest.fixture
def tiny_source(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    return checkpoint_from_model(model, cfg.fingerprint()), cfg


def changed(src_ck, model, coarse):
    """True if any tensor of the coarse layer differs from the checkpoint."""
    any_diff = False
    for rec in src_ck.layers:
        if rec.name.split(".")[0] != coarse:
            continue
        layer = dict(model.primitive_layers())[rec.name]
        now = [layer.weights, layer.bias] if rec.kind == "conv2d" else [layer.gamma, layer.beta]
        any_diff |= any(not np.array_equal(a, b) for a, b in zip(rec.arrays, now))
    return any_diff


def test_fine_tuning_updates_every_layer(tiny_source):
    src, cfg = tiny_source
    out = adapt(src, AdaptConfig("fine_tuning", 0.25, cfg))
    assert isinstance(out, TrainResult)
    assert out.steps == 5 == out.losses.size
    assert out.model.spec.num_blocks == 4
    for name, _ in out.model.coarse_layers():
        assert changed(src, out.model, name), f"{name} never moved"
    assert out.checkpoint.fingerprint["technique"] == "fine_tuning"
    assert out.checkpoint.fingerprint["alpha"] == repr(0.25)


def new_block_trained(model):
    # The surgery block's conv biases start at exactly zero, so any training
    # step that touches it leaves them nonzero.
    return np.any(model.blocks[4].conv1.bias != 0) or np.any(model.blocks[4].conv2.bias != 0)


def test_fine_tuning_plus_freezes_the_first_two_layers_bit_exactly(tiny_source):
    src, cfg = tiny_source
    out = adapt(src, AdaptConfig("fine_tuning_plus", 0.25, cfg))
    assert out.model.spec.num_blocks == 5
    for frozen in ("input_conv", "block1"):
        assert not changed(src, out.model, frozen), f"{frozen} should be bit-identical"
    for hot in ("block2", "block3", "block4", "output_conv"):
        assert changed(src, out.model, hot), f"{hot} never moved"
    assert new_block_trained(out.model)


def test_feature_extraction_trains_only_the_new_head(tiny_source):
    src, cfg = tiny_source
    out = adapt(src, AdaptConfig("feature_extraction", 0.25, cfg))
    assert out.model.spec.num_blocks == 5
    for frozen in ("input_conv", "block1", "block2", "block3", "block4"):
        assert not changed(src, out.model, frozen)
    assert changed(src, out.model, "output_conv")
    assert new_block_trained(out.model)


def test_modulation_change_reinitialises_the_head(tiny_source, tiny_grid):
    src, cfg = tiny_source
    target = tiny_cfg(tiny_grid, modulation="16qam")
    out = adapt(src, AdaptConfig("fine_tuning", 0.25, target))
    assert any("output_conv" in line for line in out.transplant_delta)
    assert out.model.spec.out_bits == 4
    assert out.model.trainable["output_conv"]


def test_antenna_count_mismatch_trains_the_input_conv(tiny_grid):
    # 2 -> 1 antennas: the input conv cannot be transplanted, so every
    # technique must train it rather than freeze its random initialisation.
    source_cfg = tiny_cfg(tiny_grid, n_rx=2)
    src = checkpoint_from_model(
        ReceiverModel(source_cfg.model_spec(), seed=source_cfg.seed), source_cfg.fingerprint()
    )
    target = tiny_cfg(tiny_grid, n_rx=1)
    fresh = ReceiverModel(target.model_spec(), seed=target.seed)
    for tech in TECHNIQUES:
        out = adapt(src, AdaptConfig(tech, 0.25, target))
        assert out.transplant_delta == ["reinitialized input_conv: shape mismatch"]
        assert out.model.trainable["input_conv"], tech
        assert not np.array_equal(out.model.input_conv.weights, fresh.input_conv.weights), tech


TINY_GRID = GridConfig(num_symbols=14, num_subcarriers=12, guard_lo=1, guard_hi=1)
TINY_SOURCE_CFG = tiny_cfg(TINY_GRID)
TINY_SOURCE = checkpoint_from_model(
    ReceiverModel(TINY_SOURCE_CFG.model_spec(), seed=TINY_SOURCE_CFG.seed), TINY_SOURCE_CFG.fingerprint()
)

# Every field of TrainConfig that can differ between source and target
# domains, including the architecture and the grid.
MISMATCH_AXES = {
    "modulation": st.sampled_from(["qpsk", "16qam", "64qam"]),
    "profile": st.sampled_from(PACKAGED_PROFILES + ("mixed_cdl",)),
    "n_rx": st.integers(1, 3),
    "width_in": st.sampled_from([4, 6]),
    "width_res": st.sampled_from([6, 8]),
    "num_blocks": st.integers(1, 5),
    "num_symbols": st.integers(12, 15),
    "num_subcarriers": st.integers(8, 14),
    "guard_lo": st.integers(0, 2),
    "guard_hi": st.integers(0, 2),
    "scs_khz": st.sampled_from(SUPPORTED_SCS_KHZ),
}
GRID_AXES = {f.name for f in dataclasses.fields(GridConfig)}


@settings(max_examples=60)
@given(st.fixed_dictionaries({}, optional=MISMATCH_AXES))
def test_freeze_rule_holds_on_every_mismatch_axis(changes):
    grid = dataclasses.replace(TINY_GRID, **{k: v for k, v in changes.items() if k in GRID_AXES})
    target = dataclasses.replace(
        TINY_SOURCE_CFG, grid=grid, **{k: v for k, v in changes.items() if k not in GRID_AXES}
    )
    for tech, k in FROZEN_PREFIX.items():
        out = adapt(TINY_SOURCE, AdaptConfig(tech, 0.05, target))
        names = [n for n, _ in out.model.coarse_layers()]
        # "reinitialized <tensor>: <why>"; a source tensor the target lacks
        # belongs to no layer of the target.
        fresh = {
            line.split()[1].split(".")[0].rstrip(":")
            for line in out.transplant_delta
            if not line.endswith("absent from the target architecture")
        }
        frozen = {n for n in names if not out.model.trainable[n]}
        assert frozen == set(names[:k]) - fresh, tech
        for qual, layer in out.model.primitive_layers():
            if qual.split(".")[0] in frozen:
                rec = TINY_SOURCE.layer(qual)  # a frozen tensor came from the source
                now = [layer.weights, layer.bias] if rec.kind == "conv2d" else [layer.gamma, layer.beta]
                assert [a.tobytes() for a in now] == [a.tobytes() for a in rec.arrays], (tech, qual)


def test_adapt_log_has_one_row_per_step(tiny_source, tmp_path):
    src, cfg = tiny_source
    out = adapt(src, AdaptConfig("feature_extraction", 0.25, cfg))
    assert len(out.log_lines) == out.steps + 1  # header + rows
    p = tmp_path / "adapt.csv"
    out.write_log(p)
    assert p.read_text().splitlines() == out.log_lines


def test_without_tl_benchmark_spends_the_alpha_budget(tiny_grid):
    cfg = tiny_cfg(tiny_grid)
    out = run_benchmark("without_tl", None, cfg, alpha=0.25)
    assert isinstance(out, TrainResult)
    assert out.steps == 5
    assert len(out.log_lines) == 6
    with pytest.raises(ConfigError, match="alpha budget"):
        run_benchmark("without_tl", None, cfg)


def test_model_transfer_benchmark_runs_zero_updates(tiny_source):
    src, cfg = tiny_source
    out = run_benchmark("model_transfer", src, cfg)
    assert isinstance(out, TrainResult)
    assert out.steps == 0
    assert out.log_lines == []
    for name, _ in out.model.coarse_layers():
        assert not changed(src, out.model, name)
    assert out.checkpoint.fingerprint["technique"] == "model_transfer"


def test_unknown_benchmark_rejected(tiny_source):
    src, cfg = tiny_source
    with pytest.raises(ConfigError, match="unknown benchmark"):
        run_benchmark("oracle", src, cfg)
