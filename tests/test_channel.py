"""Profile parsing, fading statistics, and noise calibration."""

import hashlib
import re

import numpy as np
import pytest

from simorx.channel.fading import (
    apply_channel_awgn,
    batch_frequency_response,
    ebno_to_n0,
    frequency_response,
    realize_channel,
)
from simorx.channel.profiles import (
    MIXED_MEMBERS,
    PACKAGED_PROFILES,
    ChannelProfile,
    ClusteredRandomProfile,
    MixedProfile,
    load_profile,
    parse_profile_text,
    profile_data_path,
)
from simorx.errors import ConfigError
from simorx.phy.grid import GridConfig

from oracles import per_block_frequency_response

# Shipped profile data is part of the numerical contract; any edit must be
# deliberate and show up here.
SHIPPED_SHA256 = {
    "cdl_a_like": "c4e196323b1732c549f93685decdd82d0ec645b849b0063c441bfe9e903c76b6",
    "cdl_b_like": "72f3032eb96895196916fe10bfa270a3c574f0b7d60983ef0f3af548be6974f6",
    "cdl_c_like": "d215b0e2f89ea7750eab4d71cc2b58c536746eca0b86445789f3884f04eb22ef",
    "cdl_d_like": "785ade7a0d2c415f1006559ec651eb99f4ac20aa57435ea5d1e8de19603e2962",
    "cdl_e_like": "e6058e158e7c82608db22a7e7da30014c52450dab3d299656e5e57cd5c72863b",
    "flat": "2006a29ce6320348c2d510e48d5a4acfaae8fae38d34ab8ec05712ec8d9aaca4",
    "umi_approx": "1f27f1f5e30927ae0de3ef691186537b698fa5a7502fb5f8e956458326009b46",
}


# ------------------------------------------------------------------- profiles


def test_shipped_files_are_unchanged():
    assert set(SHIPPED_SHA256) == set(PACKAGED_PROFILES)
    for name, want in SHIPPED_SHA256.items():
        data = profile_data_path(name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, name


def test_every_packaged_profile_loads():
    for name in PACKAGED_PROFILES:
        p = load_profile(name)
        assert p.name == name
        if isinstance(p, ChannelProfile):
            assert p.powers_linear.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(p.delays_s) >= 0)


def test_cdl_c_like_shape_and_normalization():
    p = load_profile("cdl_c_like")
    assert p.num_taps == 24
    assert not p.los
    assert p.powers_linear.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(p.k_factors_db).all()


def test_los_profiles_carry_a_k_factor_on_the_first_tap():
    for name in ("cdl_d_like", "cdl_e_like"):
        p = load_profile(name)
        assert p.los
        assert np.isfinite(p.k_factors_db[0])
        assert np.isnan(p.k_factors_db[1:]).all()
    assert load_profile("cdl_d_like").k_factors_db[0] == 13.3
    assert load_profile("cdl_e_like").k_factors_db[0] == 22.0


def test_flat_profile_is_single_tap():
    p = load_profile("flat")
    assert p.num_taps == 1
    assert p.delays_s[0] == 0.0
    assert p.powers_linear[0] == 1.0


def test_umi_approx_is_clustered_random():
    p = load_profile("umi_approx")
    assert isinstance(p, ClusteredRandomProfile)
    assert p.num_taps == 12
    assert p.delay_scale_s == 1e-7
    assert p.jitter_db == 3.0


def test_mixed_profile_members():
    p = load_profile("mixed_cdl")
    assert isinstance(p, MixedProfile)
    assert tuple(m.name for m in p.members) == MIXED_MEMBERS


def test_parsing_sorts_taps_and_normalizes():
    text = "# name=demo\n# los=false\n2e-7 -3\n0 0\n1e-7 -3\n"
    p = parse_profile_text(text)
    np.testing.assert_array_equal(p.delays_s, [0.0, 1e-7, 2e-7])
    lin = 10 ** (np.array([0.0, -3.0, -3.0]) / 10)
    np.testing.assert_allclose(p.powers_linear, lin / lin.sum())


def test_parsing_rejects_malformed_input():
    with pytest.raises(ConfigError, match="missing required metadata"):
        parse_profile_text("# name=x\n0 0\n")
    with pytest.raises(ConfigError, match=":3:"):
        parse_profile_text("# name=x\n# los=false\n0 0 0 0\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_profile_text("# name=x\n# los=false\n0 zero\n")
    with pytest.raises(ConfigError, match="delays"):
        parse_profile_text("# name=x\n# los=false\n-1e-9 0\n")
    with pytest.raises(ConfigError, match="no tap rows"):
        parse_profile_text("# name=x\n# los=false\n")
    with pytest.raises(ConfigError, match="los="):
        parse_profile_text("# name=x\n# los=maybe\n0 0\n")
    with pytest.raises(ConfigError, match="unknown profile kind"):
        parse_profile_text("# name=x\n# los=false\n# kind=geometric\n0 0\n")
    with pytest.raises(ConfigError):
        load_profile("cdl_f_like")
    with pytest.raises(ConfigError):
        load_profile("./no_such_profile_file.txt")


def test_load_profile_from_path(tmp_path):
    f = tmp_path / "custom.txt"
    f.write_text("# name=custom\n# los=false\n0 0\n5e-8 -10\n")
    p = load_profile(str(f))
    assert p.name == "custom"
    assert p.num_taps == 2
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# name=caf\xe9\n# los=false\n0 0\n")
    for path, why in ((tmp_path, "Is a directory"), (latin1, "'utf-8' codec can't decode byte 0xe9")):
        with pytest.raises(ConfigError, match=re.escape(f"profile file '{path}': cannot read: {why}")):
            load_profile(str(path))


def test_clustered_random_sampling_statistics():
    p = load_profile("umi_approx")
    rng = np.random.default_rng(0)
    delays, powers, k = p.sample_taps(rng)
    assert delays[0] == 0.0
    assert np.all(np.diff(delays[1:]) >= 0)
    assert powers.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(k).all()
    # same rng state, same draw
    d2, p2, _ = p.sample_taps(np.random.default_rng(0))
    np.testing.assert_array_equal(delays, d2)
    np.testing.assert_array_equal(powers, p2)


# ----------------------------------------------------------------- statistics


def test_realization_energy_is_normalized():
    p = load_profile("cdl_c_like")
    rng = np.random.default_rng(1)
    total = 0.0
    n = 4000
    for _ in range(n):
        r = realize_channel(p, 1, rng)
        total += float(np.sum(np.abs(r.gains) ** 2))
    assert total / n == pytest.approx(1.0, abs=0.05)


def test_los_tap_has_deterministic_component():
    # At a huge K-factor the first tap collapses onto sqrt(power), phase 0.
    text = "# name=k\n# los=true\n0 0 60\n1e-7 -20\n"
    p = parse_profile_text(text)
    r = realize_channel(p, 2, np.random.default_rng(2))
    want = np.sqrt(p.powers_linear[0])
    np.testing.assert_allclose(r.gains[:, 0], want, rtol=0.02)


def test_antennas_fade_independently():
    p = load_profile("cdl_b_like")
    rng = np.random.default_rng(3)
    draws = np.array([realize_channel(p, 2, rng).gains for _ in range(2000)])
    corr = np.mean(draws[:, 0, :] * np.conj(draws[:, 1, :]))
    assert abs(corr) < 0.02


def test_frequency_response_matches_direct_sum(desk_grid):
    p = load_profile("cdl_c_like")
    r = realize_channel(p, 2, np.random.default_rng(4))
    h = frequency_response(r, desk_grid)
    assert h.shape == (2, 32)
    # direct evaluation, one subcarrier at a time
    for k in (0, 7, 31):
        f = k * desk_grid.subcarrier_spacing_hz
        want = np.sum(r.gains * np.exp(-2j * np.pi * r.delays_s * f), axis=1)
        np.testing.assert_allclose(h[:, k], want, atol=1e-12)


def test_flat_profile_response_is_constant(desk_grid):
    r = realize_channel(load_profile("flat"), 2, np.random.default_rng(5))
    h = frequency_response(r, desk_grid)
    np.testing.assert_allclose(h, np.broadcast_to(h[:, :1], h.shape), atol=1e-15)


def test_batch_frequency_response_is_reproducible(desk_grid):
    p = load_profile("mixed_cdl")
    h1 = batch_frequency_response(p, 6, 2, desk_grid, np.random.default_rng(6))
    h2 = batch_frequency_response(p, 6, 2, desk_grid, np.random.default_rng(6))
    assert h1.shape == (6, 2, 32)
    np.testing.assert_array_equal(h1, h2)
    # different samples see different channels
    assert not np.allclose(h1[0], h1[1])


@pytest.mark.parametrize("name", PACKAGED_PROFILES + ("mixed_cdl",))
def test_batch_frequency_response_matches_per_sample_realizations(desk_grid, name):
    # Fixed members reuse their gain terms and phase matrix across the
    # batch; the bytes and the draws must be those of one realization per
    # sample.
    p = load_profile(name)
    batch, n_rx = 5, 2
    got_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    got = batch_frequency_response(p, batch, n_rx, desk_grid, got_rng)
    want = per_block_frequency_response(p, batch, n_rx, desk_grid, ref_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # both generators consumed exactly the same draws
    assert got_rng.integers(2**62) == ref_rng.integers(2**62)


# ---------------------------------------------------------------------- noise


def test_awgn_is_calibrated(desk_grid):
    rng = np.random.default_rng(7)
    tx = np.ones((200, 14, 32), dtype=np.complex128)
    h = np.zeros((200, 2, 32), dtype=np.complex128)  # kill the signal path
    n0 = 0.25
    rx = apply_channel_awgn(tx, h, n0, rng)
    assert rx.shape == (200, 2, 14, 32)
    assert np.mean(np.abs(rx) ** 2) == pytest.approx(n0, rel=0.02)
    # real and imaginary parts carry half the power each
    assert np.var(rx.real) == pytest.approx(n0 / 2, rel=0.03)


def test_zero_noise_reduces_to_pointwise_product(desk_grid):
    rng = np.random.default_rng(8)
    tx = rng.standard_normal((3, 14, 32)) + 1j * rng.standard_normal((3, 14, 32))
    h = rng.standard_normal((3, 2, 32)) + 1j * rng.standard_normal((3, 2, 32))
    rx = apply_channel_awgn(tx, h, 0.0, rng)
    want = h[:, :, None, :] * tx[:, None, :, :]
    np.testing.assert_allclose(rx, want, atol=1e-15)


def test_per_sample_noise_levels():
    rng = np.random.default_rng(9)
    tx = np.zeros((2, 14, 32), dtype=np.complex128)
    h = np.zeros((2, 1, 32), dtype=np.complex128)
    n0 = np.array([0.1, 10.0])
    rx = apply_channel_awgn(tx, h, n0, rng)
    p0 = np.mean(np.abs(rx[0]) ** 2)
    p1 = np.mean(np.abs(rx[1]) ** 2)
    assert p0 == pytest.approx(0.1, rel=0.15)
    assert p1 == pytest.approx(10.0, rel=0.15)


def sum_form_awgn(tx, h, n0, rng):
    """The channel with the noise built as ``a + 1j * b`` and added out of
    place: the byte-for-byte reference."""
    clean = h[..., :, None, :] * tx[..., None, :, :]
    n0 = np.asarray(n0, dtype=np.float64)
    if n0.ndim:
        n0 = n0.reshape(n0.shape + (1,) * (clean.ndim - n0.ndim))
    w = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    return clean + np.sqrt(n0 / 2.0) * w


@pytest.mark.parametrize("n0", [0.3, 0.0, [0.1, 2.5, 0.0]])
@pytest.mark.parametrize("n_rx", [1, 4])
def test_awgn_matches_the_sum_form_byte_for_byte(n_rx, n0):
    rng = np.random.default_rng(n_rx)
    tx = rng.standard_normal((3, 14, 32)) + 1j * rng.standard_normal((3, 14, 32))
    tx[0, 0] = -0.0  # signed zeros survive a zero noise level alike
    h = rng.standard_normal((3, n_rx, 32)) + 1j * rng.standard_normal((3, n_rx, 32))
    got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = apply_channel_awgn(tx, h, n0, got_rng)
    want = sum_form_awgn(tx, h, n0, ref_rng)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_awgn_validation():
    with pytest.raises(ConfigError):
        apply_channel_awgn(np.zeros((14, 32)), np.zeros((2, 31)), 0.1, np.random.default_rng(0))
    for bad in (-1.0, np.nan, np.inf, [0.1, np.nan]):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            apply_channel_awgn(
                np.zeros((2, 14, 32)), np.zeros((2, 2, 32)), bad, np.random.default_rng(0)
            )


def test_ebno_conversion_closed_form():
    assert ebno_to_n0(0.0, 2, 0.5) == pytest.approx(1.0)
    assert ebno_to_n0(10.0, 2, 0.5) == pytest.approx(0.1)
    assert ebno_to_n0(0.0, 4, 0.5) == pytest.approx(0.5)
    grid = ebno_to_n0(np.array([0.0, 10.0]), 2, 0.5)
    np.testing.assert_allclose(grid, [1.0, 0.1])
    with pytest.raises(ConfigError):
        ebno_to_n0(0.0, 0, 0.5)
    with pytest.raises(ConfigError):
        ebno_to_n0(0.0, 2, 1.5)
