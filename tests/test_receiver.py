"""Receiver network, bit-metric loss, and LLR grid extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from simorx.config import make_train_config
from simorx.errors import ConfigError
from simorx.numerics.layers import LayerNorm
from simorx.phy.grid import DATA_SYMBOLS, NUM_SYMBOLS, PILOT_SYMBOLS, GridConfig
from simorx.receiver import (
    ModelSpec,
    ReceiverModel,
    ResNetBlock,
    bmd_loss,
    bmd_loss_grad,
    expit,
    extract_llr_bits,
    preprocess,
    scatter_llr_bit_grad,
)

from oracles import extract_data_res

# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_interleaves_real_and_imag_per_antenna():
    rx = (np.arange(24) + 1j * (100 + np.arange(24))).reshape(1, 2, 3, 4)
    planes = preprocess(rx)
    assert planes.shape == (1, 4, 3, 4)
    np.testing.assert_array_equal(planes[:, 0], rx.real[:, 0])
    np.testing.assert_array_equal(planes[:, 1], rx.imag[:, 0])
    np.testing.assert_array_equal(planes[:, 2], rx.real[:, 1])
    np.testing.assert_array_equal(planes[:, 3], rx.imag[:, 1])


@pytest.mark.parametrize(
    "cdtype,rdtype", [(np.complex64, np.float32), (np.complex128, np.float64)]
)
def test_preprocess_round_trip_is_bit_exact(cdtype, rdtype, seeded):
    rng = seeded(3)
    rx = (rng.standard_normal((2, 2, 5, 6)) + 1j * rng.standard_normal((2, 2, 5, 6))).astype(cdtype)
    planes = preprocess(rx)
    assert planes.dtype == rdtype
    back = planes[:, 0::2] + 1j * planes[:, 1::2]
    np.testing.assert_array_equal(back, rx)


def test_preprocess_rejects_non_complex_or_wrong_rank():
    with pytest.raises(ConfigError):
        preprocess(np.zeros((1, 2, 3, 4)))
    with pytest.raises(ConfigError):
        preprocess(np.zeros((2, 3, 4), dtype=np.complex128))


# ---------------------------------------------------------------------------
# model plumbing


def small_spec(**kw):
    base = dict(in_channels=4, width_in=6, width_res=8, num_blocks=2, out_bits=4)
    base.update(kw)
    return ModelSpec(**base)


def test_forward_shapes_and_dtype(seeded):
    model = ReceiverModel(small_spec(), seed=7)
    x = seeded(0).standard_normal((3, 4, 10, 12)).astype(np.float32)
    y = model.forward(x)
    assert y.shape == (3, 10, 12, 4)
    assert y.dtype == np.float32


def test_forward_rejects_channel_mismatch():
    model = ReceiverModel(small_spec())
    with pytest.raises(ConfigError):
        model.forward(np.zeros((2, 3, 10, 12), dtype=np.float32))
    with pytest.raises(ConfigError):
        model.forward(np.zeros((4, 10, 12), dtype=np.float32))


def test_spec_rejects_non_positive_fields():
    for field in ("in_channels", "width_in", "width_res", "num_blocks", "out_bits"):
        for bad in (0, -1, 1.5, 2.0, True, "4", None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
                small_spec(**{field: bad})
        assert getattr(small_spec(**{field: np.int64(4)}), field) == 4


def test_spec_edits_return_new_specs():
    spec = small_spec()
    assert replace(spec, num_blocks=spec.num_blocks + 1).num_blocks == 3
    assert replace(spec, out_bits=6).out_bits == 6
    with pytest.raises(ConfigError):
        replace(spec, out_bits=0)
    assert spec.num_blocks == 2  # originals untouched


def test_adding_a_block_leaves_other_layer_inits_alone():
    a = ReceiverModel(small_spec(), seed=11)
    b = ReceiverModel(replace(small_spec(), num_blocks=3), seed=11)
    np.testing.assert_array_equal(a.input_conv.wmat, b.input_conv.wmat)
    np.testing.assert_array_equal(a.blocks[0].conv1.wmat, b.blocks[0].conv1.wmat)
    np.testing.assert_array_equal(a.blocks[1].conv2.wmat, b.blocks[1].conv2.wmat)
    np.testing.assert_array_equal(a.output_conv.wmat, b.output_conv.wmat)


def test_different_seeds_give_different_weights():
    a = ReceiverModel(small_spec(), seed=0)
    b = ReceiverModel(small_spec(), seed=1)
    assert not np.array_equal(a.input_conv.wmat, b.input_conv.wmat)


def test_stage_forward_plan_reproduces_forward_exactly(seeded):
    model = ReceiverModel(small_spec(), seed=2)
    x = seeded(4).standard_normal((2, 4, 8, 9)).astype(np.float32)
    want = model.forward(x)
    y, stages = model.stage_forward_plan(x)
    for _, fn in stages:
        y = fn(y)
    np.testing.assert_array_equal(y, want)


# ---------------------------------------------------------------------------
# bit-metric decoding loss


def test_zero_logits_give_exactly_one_bit_of_cross_entropy():
    L, bce = bmd_loss(np.zeros(17), np.random.default_rng(0).integers(0, 2, 17))
    assert bce == 1.0
    assert L == 0.0


def test_single_bit_hand_values():
    # logit ln 3 means p(bit=1) = 3/4: matching bit costs log2(4/3),
    # mismatching bit costs log2 4 = 2 bits.
    _, bce = bmd_loss(np.array([math.log(3.0)]), np.array([1.0]))
    assert bce == pytest.approx(math.log2(4.0 / 3.0), abs=1e-15)
    L, bce = bmd_loss(np.array([math.log(3.0)]), np.array([0.0]))
    assert bce == pytest.approx(2.0, abs=1e-15)
    assert L == pytest.approx(-1.0, abs=1e-15)


def test_confident_correct_logits_approach_one_bit_per_bit(seeded):
    bits = seeded(1).integers(0, 2, 64).astype(float)
    llrs = 50.0 * (2 * bits - 1)
    L, bce = bmd_loss(llrs, bits)
    assert bce < 1e-12
    assert L == pytest.approx(1.0, abs=1e-12)


def test_loss_validates_shapes_and_finiteness():
    with pytest.raises(ConfigError, match="must match"):
        bmd_loss(np.zeros(3), np.zeros(4))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError, match="non-finite"):
            bmd_loss(np.array([0.0, bad]), np.zeros(2))


def test_loss_gradient_matches_central_differences(seeded):
    rng = seeded(6)
    llrs = rng.standard_normal(40)
    bits = rng.integers(0, 2, 40).astype(float)
    grad = bmd_loss_grad(llrs, bits, bits.size)
    eps = 1e-6
    for i in (0, 7, 19, 39):
        up, dn = llrs.copy(), llrs.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (bmd_loss(up, bits)[1] - bmd_loss(dn, bits)[1]) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_expit_is_stable_and_correct():
    with np.errstate(over="raise", under="ignore"):
        out = expit(np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0]))
    np.testing.assert_allclose(
        out[1:4], 1.0 / (1.0 + np.exp(-np.array([-1.0, 0.0, 1.0]))), rtol=1e-15
    )
    assert out[0] == 0.0 and out[4] == 1.0


# ---------------------------------------------------------------------------
# grid extraction and the masked objective


def coord_coded_grid(cfg: GridConfig, k: int) -> np.ndarray:
    """LLR grid whose value at (t, f, bit) encodes its own coordinates."""
    t = np.arange(NUM_SYMBOLS)[:, None, None]
    f = np.arange(cfg.num_subcarriers)[None, :, None]
    b = np.arange(k)[None, None, :]
    return (t * 10000.0 + f * 10.0 + b)[None]


def test_extraction_is_symbol_major_subcarrier_minor_bits_innermost(tiny_grid):
    k = 2
    flat = extract_llr_bits(coord_coded_grid(tiny_grid, k), tiny_grid)
    want = [
        t * 10000.0 + f * 10.0 + b
        for t in DATA_SYMBOLS
        for f in tiny_grid.active_subcarriers
        for b in range(k)
    ]
    np.testing.assert_array_equal(flat[0], want)


def test_extraction_agrees_with_grid_module_route(tiny_grid, seeded):
    grid = seeded(8).standard_normal((3, NUM_SYMBOLS, tiny_grid.num_subcarriers, 4))
    a = extract_llr_bits(grid, tiny_grid)
    b = extract_data_res(grid, tiny_grid).reshape(3, -1)
    np.testing.assert_array_equal(a, b)


def test_extraction_rejects_wrong_grid_shape(tiny_grid):
    with pytest.raises(ConfigError):
        extract_llr_bits(np.zeros((1, 9, 9, 2)), tiny_grid)


def test_scatter_is_the_exact_adjoint_of_extraction(tiny_grid, seeded):
    rng = seeded(9)
    k = 2
    grid = rng.standard_normal((2, NUM_SYMBOLS, tiny_grid.num_subcarriers, k))
    vec = rng.standard_normal((2, tiny_grid.num_data_res * k))
    lhs = float(np.vdot(extract_llr_bits(grid, tiny_grid), vec))
    rhs = float(np.vdot(grid, scatter_llr_bit_grad(vec, tiny_grid, k)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scatter_touches_only_data_resource_elements(tiny_grid, seeded):
    k = 2
    vec = seeded(10).standard_normal((1, tiny_grid.num_data_res * k))
    grid = scatter_llr_bit_grad(vec, tiny_grid, k)
    for t in PILOT_SYMBOLS:
        assert np.all(grid[:, t] == 0.0)
    assert np.all(grid[:, :, : tiny_grid.guard_lo] == 0.0)
    assert np.all(grid[:, :, tiny_grid.num_subcarriers - tiny_grid.guard_hi :] == 0.0)
    assert np.count_nonzero(grid) == np.count_nonzero(vec)


def objective_value(llr_grid, bits, cfg):
    """Mean BCE in bits over data REs, as ``run_training`` computes it."""
    return bmd_loss(extract_llr_bits(llr_grid, cfg), bits)[1]


def objective_grad(llr_grid, bits, cfg):
    flat = extract_llr_bits(llr_grid, cfg)
    return scatter_llr_bit_grad(bmd_loss_grad(flat, bits, bits.size), cfg, llr_grid.shape[-1])


def test_objective_ignores_pilot_and_guard_positions(tiny_grid, seeded):
    rng = seeded(11)
    k = 2
    bits = rng.integers(0, 2, (1, tiny_grid.num_data_res * k)).astype(float)
    grid = rng.standard_normal((1, NUM_SYMBOLS, tiny_grid.num_subcarriers, k))
    base = objective_value(grid, bits, tiny_grid)
    poked = grid.copy()
    poked[0, PILOT_SYMBOLS[0], :, :] += 100.0  # pilot symbol row
    poked[0, :, 0, :] += 100.0  # guard column
    assert objective_value(poked, bits, tiny_grid) == base
    g = objective_grad(grid, bits, tiny_grid)
    assert np.all(g[0, PILOT_SYMBOLS[0]] == 0.0)
    assert np.all(g[0, :, 0] == 0.0)


def test_objective_gradient_matches_central_differences(tiny_grid, seeded):
    rng = seeded(12)
    k = 2
    bits = rng.integers(0, 2, (1, tiny_grid.num_data_res * k)).astype(float)
    grid = rng.standard_normal((1, NUM_SYMBOLS, tiny_grid.num_subcarriers, k))
    g = objective_grad(grid, bits, tiny_grid)
    eps = 1e-6
    t0 = int(tiny_grid.data_symbol_index[5])
    f0 = int(tiny_grid.data_subcarrier_index[5])
    for bit in range(k):
        up, dn = grid.copy(), grid.copy()
        up[0, t0, f0, bit] += eps
        dn[0, t0, f0, bit] -= eps
        fd = (objective_value(up, bits, tiny_grid) - objective_value(dn, bits, tiny_grid)) / (2 * eps)
        assert g[0, t0, f0, bit] == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_objective_rejects_ragged_bit_counts(tiny_grid):
    grid = np.zeros((1, NUM_SYMBOLS, tiny_grid.num_subcarriers, 2))
    with pytest.raises(ConfigError, match="must match"):
        objective_value(grid, np.zeros((1, tiny_grid.num_data_res * 2 + 1)), tiny_grid)


# ---------------------------------------------------------------------------
# frozen-prefix backward


def _frozen_prefix_case(seeded, trainable_from):
    """Two identical models; in the first, coarse layers before index
    ``trainable_from`` are frozen (block2 stays frozen in both)."""
    spec = small_spec(num_blocks=3)
    full, truncated = ReceiverModel(spec, seed=5), ReceiverModel(spec, seed=5)
    for i, name in enumerate(n for n, _ in truncated.coarse_layers()):
        truncated.trainable[name] = i >= trainable_from and name != "block2"
    rng = seeded(trainable_from)
    x = rng.standard_normal((2, 4, 7, 9)).astype(np.float32)
    g = rng.standard_normal((2, 7, 9, 4)).astype(np.float32)
    return full, truncated, x, g


@pytest.mark.parametrize("trainable_from", [0, 1, 2, 4])
def test_truncated_backward_gives_the_full_backwards_gradients(seeded, trainable_from):
    full, truncated, x, g = _frozen_prefix_case(seeded, trainable_from)
    tape_t, tape_f = {}, {}
    np.testing.assert_array_equal(truncated.forward(x, tape_t), full.forward(x, tape_f))
    grads_t = iter(truncated.backward(g, tape_t))
    grads_f = full.backward(g, tape_f)
    assert len(grads_f) == len(list(full.named_param_items()))
    trained = [name for name, _ in truncated.coarse_layers() if truncated.trainable[name]]
    assert trained
    compared = 0
    for (qual, *_), gf in zip(full.named_param_items(), grads_f):
        if qual.split(".")[0] in trained:
            assert next(grads_t).tobytes() == gf.tobytes(), qual
            compared += 1
    assert compared and next(grads_t, None) is None


def taped_layers(model, skip=()):
    """``{layer: name}`` of what a forward with a tape must record: every
    block's norms and projection and the model's two convs, for the coarse
    layers not named in ``skip``.  Block ReLUs and 3x3 convs record nothing;
    backward rebuilds their activation from the norm's entry."""
    want = {}
    for name, layer in model.coarse_layers():
        if name in skip:
            continue
        if isinstance(layer, ResNetBlock):
            for sub in ("norm1", "norm2", "proj"):
                if getattr(layer, sub) is not None:
                    want[getattr(layer, sub)] = f"{name}.{sub}"
        else:
            want[layer] = name
    return want


@pytest.mark.parametrize("trainable_from", [1, 2, 4])
def test_frozen_prefix_layers_hold_no_cache(seeded, trainable_from):
    _, model, x, g = _frozen_prefix_case(seeded, trainable_from)
    names = [name for name, _ in model.coarse_layers()]
    prefix = names[: [model.trainable[n] for n in names].index(True)]
    tape = {}
    model.forward(x, tape)
    # Any other layer on the tape shows up under its class name.
    recorded = sorted(taped_layers(model).get(layer, type(layer).__name__) for layer in tape)
    frozen = [name for name in recorded if name.split(".")[0] in prefix]
    assert frozen == [], "frozen-prefix layers recorded activations"
    assert recorded == sorted(taped_layers(model, skip=prefix).values())
    model.backward(g, tape)
    assert tape == {}, "backward left entries on the tape"


def _root(arr: np.ndarray) -> np.ndarray:
    while arr.base is not None:
        arr = arr.base
    return arr


def test_a_desk_tape_holds_only_normalised_inputs_and_conv_inputs(seeded):
    # Each block keeps LayerNorm's (xhat, inv) twice and its projection's
    # input; the model keeps the inputs of its two convs.  No ReLU mask and
    # no padded copy: those cost more than the rest of the tape together.
    cfg = make_train_config("desk")
    spec, grid = cfg.model_spec(), cfg.grid
    model = ReceiverModel(spec, seed=3)
    m, f, s = 8, NUM_SYMBOLS, grid.num_subcarriers
    x = seeded(0).standard_normal((m, spec.in_channels, f, s)).astype(np.float32)
    tape = {}
    model.forward(x, tape)
    held = {}
    for entry in tape.values():
        for arr in entry if isinstance(entry, tuple) else (entry,):
            held[id(_root(arr))] = _root(arr).nbytes
    norms = [entry for layer, entry in tape.items() if isinstance(layer, LayerNorm)]
    assert len(norms) == 2 * spec.num_blocks
    norm_bytes = sum(xhat.nbytes + inv.nbytes for xhat, inv in norms)
    positions = m * f * s
    # input_conv's input, block1's projection input (the width changes
    # there only) and output_conv's input, four bytes per float32.
    conv_bytes = 4 * positions * (spec.in_channels + spec.width_in + spec.width_res)
    assert sum(held.values()) == norm_bytes + conv_bytes


def store_everything(block, x, g):
    """Forward of ``block`` with every primitive taped, then backward in
    reverse: the order a block ran in before it rebuilt its conv inputs.
    The oracle for ``ResNetBlock.backward``."""
    tape = {}
    h = block.norm1.forward(x, tape)
    h = block.relu1.forward(h, tape)
    h = block.conv1.forward(h, tape)
    h = block.norm2.forward(h, tape)
    h = block.relu2.forward(h, tape)
    h = block.conv2.forward(h, tape)
    h += x if block.proj is None else block.proj.forward(x, tape)
    gi, g_conv2 = block.conv2.backward(g, tape)
    gi, _ = block.relu2.backward(gi, tape)
    gi, g_norm2 = block.norm2.backward(gi, tape)
    gi, g_conv1 = block.conv1.backward(gi, tape)
    gi, _ = block.relu1.backward(gi, tape)
    gi, g_norm1 = block.norm1.backward(gi, tape)
    grads = g_norm1 + g_conv1 + g_norm2 + g_conv2
    if block.proj is None:
        gi += g
    else:
        g_skip, g_proj = block.proj.backward(g, tape)
        gi += g_skip
        grads += g_proj
    assert tape == {}
    return h, gi, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_channels", [6, 8], ids=["proj", "no-proj"])
def test_block_backward_matches_the_store_everything_oracle(seeded, dtype, in_channels):
    rng = seeded(in_channels)
    block = ResNetBlock(in_channels, 8, rng)
    for _, layer in block.primitive_items():
        layer.astype(dtype)
    # Non-trivial norm parameters, so that the rebuild must apply both.
    for norm in (block.norm1, block.norm2):
        norm.gamma[:] = rng.uniform(0.5, 1.5, norm.num_channels)
        norm.beta[:] = rng.uniform(-0.5, 0.5, norm.num_channels)
    assert (block.proj is None) == (in_channels == 8)
    x = rng.standard_normal((3, 7, 9, in_channels)).astype(dtype)
    g = rng.standard_normal((3, 7, 9, 8)).astype(dtype)
    want_y, want_gi, want_grads = store_everything(block, x, g)
    tape = {}
    y = block.forward(x, tape)
    assert set(tape) == {block.norm1, block.norm2} | ({block.proj} - {None})
    gi, grads = block.backward(g, tape)
    assert tape == {}
    assert y.dtype == gi.dtype == dtype
    assert y.tobytes() == want_y.tobytes()
    assert gi.tobytes() == want_gi.tobytes()
    assert len(grads) == len(want_grads) == sum(len(p.param_items()) for _, p in block.primitive_items())
    for got, want in zip(grads, want_grads):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trainable_from", [0, 2])
def test_two_tapes_backward_in_reverse_order_match_sequential_steps(seeded, trainable_from):
    # No call leaves state on the model, so two forwards may be in flight
    # at once and their backwards may run in either order.
    _, model, x1, g1 = _frozen_prefix_case(seeded, trainable_from)
    rng = seeded(100 + trainable_from)
    x2 = rng.standard_normal(x1.shape).astype(np.float32)
    g2 = rng.standard_normal(g1.shape).astype(np.float32)
    sequential = []
    for x, g in ((x1, g1), (x2, g2)):
        tape = {}
        y = model.forward(x, tape)
        sequential.append((y, model.backward(g, tape)))
    tape1, tape2 = {}, {}
    y1 = model.forward(x1, tape1)
    y2 = model.forward(x2, tape2)
    grads2 = model.backward(g2, tape2)
    grads1 = model.backward(g1, tape1)
    assert tape1 == {} and tape2 == {}
    for (y_seq, grads_seq), y, grads in zip(sequential, (y1, y2), (grads1, grads2)):
        assert y.tobytes() == y_seq.tobytes()
        assert len(grads) == len(grads_seq) == len(model.trainable_params())
        for a, b in zip(grads, grads_seq):
            assert a.tobytes() == b.tobytes()
