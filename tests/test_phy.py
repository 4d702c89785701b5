"""Constellations, the resource grid, and the LDPC code."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simorx.errors import ConfigError
from simorx.phy.grid import GridConfig, build_grid, extract_data_res, pilot_values
from simorx.phy.ldpc import (
    COL_WEIGHT,
    ROW_WEIGHT,
    _rref_gf2,
    build_code,
    decode,
    encode,
    syndrome,
)
from simorx.phy.modulation import get_scheme, qam_map

# -------------------------------------------------------------- constellation


def test_unit_average_energy():
    for name in ("qpsk", "16qam", "64qam"):
        s = get_scheme(name)
        assert np.mean(np.abs(s.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_points_live_on_the_odd_integer_lattice():
    for name, denom in (("qpsk", 2), ("16qam", 10), ("64qam", 42)):
        s = get_scheme(name)
        assert s.energy_denominator == denom
        scaled = s.points * np.sqrt(float(denom))
        for axis in (scaled.real, scaled.imag):
            np.testing.assert_allclose(axis, np.round(axis), atol=1e-9)
            assert np.all(np.abs(np.round(axis)) % 2 == 1)


def test_axis_neighbours_differ_in_one_bit():
    # Gray property: two points adjacent along one axis (same coordinate on
    # the other) have labels at Hamming distance 1.
    for name in ("qpsk", "16qam", "64qam"):
        s = get_scheme(name)
        ints = s.int_points
        for a, b in [(ints.real, ints.imag), (ints.imag, ints.real)]:
            for i in range(s.num_points):
                for j in range(i + 1, s.num_points):
                    if b[i] == b[j] and abs(a[i] - a[j]) == 2:
                        assert bin(i ^ j).count("1") == 1


def test_qpsk_and_16qam_hand_points():
    qpsk = get_scheme("qpsk")
    np.testing.assert_allclose(qam_map(np.array([0, 0]), qpsk), [(1 + 1j) / np.sqrt(2)])
    np.testing.assert_allclose(qam_map(np.array([1, 1]), qpsk), [(-1 - 1j) / np.sqrt(2)])
    # 16qam, bits (b0,b1,b2,b3): I from (b0,b2), Q from (b1,b3),
    # level = (1-2 b_sign) * (2 - (1-2 b_inner))
    qam = get_scheme("16qam")
    got = qam_map(np.array([1, 0, 1, 1]), qam)[0]
    assert got == pytest.approx((-3 + 3j) / np.sqrt(10))
    got = qam_map(np.array([0, 0, 0, 0]), qam)[0]
    assert got == pytest.approx((1 + 1j) / np.sqrt(10))


def test_64qam_hand_point():
    s = get_scheme("64qam")
    got = qam_map(np.zeros(6, dtype=int), s)[0]
    assert got == pytest.approx((3 + 3j) / np.sqrt(42))
    got = qam_map(np.array([1, 1, 0, 0, 1, 1]), s)[0]
    # I bits (1,0,1): -(4 - 1*(2-(-1))) = -1; Q the same
    assert got == pytest.approx((-1 - 1j) / np.sqrt(42))


def test_qam_map_batches_and_label_lookup():
    rng = np.random.default_rng(0)
    s = get_scheme("16qam")
    bits = rng.integers(0, 2, size=(3, 5, 4 * s.bits_per_symbol))
    sym = qam_map(bits, s)
    assert sym.shape == (3, 5, 4)
    # MSB-first packing must agree with direct label lookup
    grouped = bits.reshape(3, 5, 4, s.bits_per_symbol)
    labels = np.zeros((3, 5, 4), dtype=int)
    for k in range(s.bits_per_symbol):
        labels = (labels << 1) | grouped[..., k]
    np.testing.assert_array_equal(sym, s.points[labels])


def test_random_bits_have_unit_mean_energy():
    rng = np.random.default_rng(1)
    s = get_scheme("64qam")
    bits = rng.integers(0, 2, size=(20000, s.bits_per_symbol))
    e = np.mean(np.abs(qam_map(bits.reshape(-1), s)) ** 2)
    assert e == pytest.approx(1.0, abs=0.02)


def test_qam_map_rejects_ragged_bit_count():
    with pytest.raises(ConfigError):
        qam_map(np.zeros(5, dtype=int), get_scheme("16qam"))
    with pytest.raises(ConfigError):
        get_scheme("8psk")


# ----------------------------------------------------------------------- grid


def test_data_re_counts():
    assert GridConfig().num_data_res == 1404                       # 117 * 12
    assert GridConfig(num_subcarriers=32, guard_lo=2, guard_hi=3).num_data_res == 324
    assert GridConfig(num_subcarriers=12, guard_lo=1, guard_hi=1).num_data_res == 120


def test_grid_round_trip_and_layout(desk_grid):
    cfg = desk_grid
    n = cfg.num_data_res
    symbols = (np.arange(n) + 1j * np.arange(n)[::-1]) / n
    grid = build_grid(symbols, cfg)
    assert grid.shape == (14, 32)
    np.testing.assert_array_equal(extract_data_res(grid, cfg), symbols)
    # canonical order: first data symbol, ascending active subcarriers
    assert grid[0, cfg.guard_lo] == symbols[0]
    assert grid[0, cfg.guard_lo + 1] == symbols[1]
    # guards stay zero on every symbol
    assert not grid[:, : cfg.guard_lo].any()
    assert not grid[:, -cfg.guard_hi :].any()


def test_pilots_are_placed_and_deterministic(desk_grid):
    cfg = desk_grid
    grid = build_grid(np.zeros(cfg.num_data_res), cfg)
    pil = pilot_values(cfg)
    for row, t in enumerate(cfg.pilot_symbols):
        np.testing.assert_array_equal(grid[t, cfg.active_subcarriers], pil[row])
    np.testing.assert_allclose(np.abs(pil), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pil, pilot_values(cfg))
    other = GridConfig(num_subcarriers=32, guard_lo=2, guard_hi=3, pilot_seed=7)
    assert not np.array_equal(pilot_values(other), pil)


def test_grid_leading_dims_and_feature_axis(desk_grid):
    cfg = desk_grid
    rng = np.random.default_rng(2)
    symbols = rng.standard_normal((2, 3, cfg.num_data_res)) + 0j
    grid = build_grid(symbols, cfg)
    assert grid.shape == (2, 3, 14, 32)
    np.testing.assert_array_equal(extract_data_res(grid, cfg), symbols)
    # trailing per-RE feature axis (e.g. bit LLRs) survives extraction
    feat = rng.standard_normal((2, 14, 32, 4))
    out = extract_data_res(feat, cfg)
    assert out.shape == (2, cfg.num_data_res, 4)
    np.testing.assert_array_equal(out[0, 0], feat[0, 0, cfg.guard_lo])


def test_data_symbols_exclude_pilot_symbols(desk_grid):
    ds = desk_grid.data_symbols
    assert len(ds) == 12
    assert 2 not in ds and 11 not in ds


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        GridConfig(num_subcarriers=8, guard_lo=4, guard_hi=4)
    with pytest.raises(ConfigError):
        GridConfig(pilot_symbols=(2, 2))
    with pytest.raises(ConfigError):
        GridConfig(pilot_symbols=(14,))
    with pytest.raises(ConfigError):
        GridConfig(scs_khz=15)
    with pytest.raises(ConfigError):
        build_grid(np.zeros(5), GridConfig())
    with pytest.raises(ConfigError):
        extract_data_res(np.zeros((7, 9)), GridConfig())


def test_subcarrier_spacing():
    assert GridConfig(scs_khz=30).subcarrier_spacing_hz == 30e3
    assert GridConfig(scs_khz=120).subcarrier_spacing_hz == 120e3


# ----------------------------------------------------------------------- ldpc


def bytewise_rref(h: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan on one byte per entry, one row operation per pivot: the oracle.

    Kept as the package shipped it before the bit-packed elimination.
    """
    h = h.copy()
    m, n = h.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        below = np.nonzero(h[r:, c])[0]
        if below.size == 0:
            continue
        pr = r + below[0]
        if pr != r:
            h[[r, pr]] = h[[pr, r]]
        mask = h[:, c].astype(bool)
        mask[r] = False
        h[mask] ^= h[r]
        pivots.append(c)
        r += 1
    return h, pivots


@settings(max_examples=80)
@given(
    m=st.integers(1, 150),
    n=st.integers(1, 200),
    rank=st.integers(0, 150),
    zero_cols=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_elimination_matches_the_bytewise_oracle(m, n, rank, zero_cols, seed):
    # Products of random factors cover full rank and every deficiency; the
    # sizes cross the 8- and 64-column word edges and 64 rows.
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    left = rng.integers(0, 2, size=(m, rank))
    right = rng.integers(0, 2, size=(rank, n))
    h = ((left @ right) % 2).astype(np.uint8)
    h[:, rng.random(n) < zero_cols] = 0
    words = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    words[:, : -(-n // 8)] = np.packbits(h, axis=1, bitorder="little")
    got, pivots = _rref_gf2(words.view("<u8"))
    assert got.dtype == np.dtype("<u8") and got.shape == (m, -(-n // 64))
    want, want_pivots = bytewise_rref(h)
    np.testing.assert_array_equal(np.unpackbits(got.view(np.uint8), axis=1, count=n, bitorder="little"), want)
    assert pivots == want_pivots


# SHA-256 of row_vars (int32), encoder_matrix (uint8) and var_slot_edges
# (int64) back to back, recorded from the byte-per-entry elimination.
CODE_DIGESTS = {
    (648, 1): "9dbfd6003596626d995dc2e95e26424b1cdc898c174742e8011f3c6717f35c5b",
    (648, 2): "06581c98e1a45f080af43f7dda243195c33440153207e1d3b59e9bfa4bfc063b",
    (1296, 1): "c5e4db3dc2fcb989a2a986fe628eb44dcbd06b62311ca3c5db063f428dbd5c9c",
    (1296, 2): "69a9723ae4bcabccfb6596934c014dc49d7bc33b24f9c472f9c6740bc3c9f091",
    (2808, 1): "a4485f7336105286dcee761d5fbce56ee18b4f7a6872bbf78cdf30764a56bfd5",
    (2808, 2): "957ee22dbb937f104fbb45ac579d1d0ab45d13676ed987431fbe139fc4529cff",
}


@pytest.mark.parametrize("n, seed", sorted(CODE_DIGESTS))
def test_codes_keep_their_bytes(n, seed):
    code = build_code(n, seed)
    assert (code.n, code.k, code.construction_seed) == (n, n // 2, seed)
    assert code.row_vars.dtype == np.int32 and code.encoder_matrix.dtype == np.uint8
    assert code.var_slot_edges.dtype == np.intp
    digest = hashlib.sha256(
        code.row_vars.astype("<i4").tobytes()
        + code.encoder_matrix.tobytes()
        + code.var_slot_edges.astype("<i8").tobytes()
    ).hexdigest()
    assert digest == CODE_DIGESTS[n, seed]


def test_parity_check_matrix_is_biregular_and_full_rank():
    code = build_code(48)
    h = code.to_dense()
    assert h.shape == (24, 48)
    np.testing.assert_array_equal(h.sum(axis=1), np.full(24, ROW_WEIGHT))
    np.testing.assert_array_equal(h.sum(axis=0), np.full(48, COL_WEIGHT))
    assert len(bytewise_rref(h)[1]) == 24


def test_every_codeword_has_zero_syndrome():
    code = build_code(48)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(200, code.k))
    cw = encode(bits, code)
    assert cw.shape == (200, 48)
    np.testing.assert_array_equal(cw[:, : code.k], bits)  # systematic prefix
    assert not syndrome(cw, code).any()
    # dual route: apply the dense parity-check matrix directly
    h = code.to_dense()
    np.testing.assert_array_equal((cw @ h.T) % 2, np.zeros((200, 24)))


def flooding_decode(llrs, code, max_iters=20, normalization=0.75):
    """The plain flooding min-sum decoder, block index outermost: the oracle.

    Kept as the package shipped it before the batch-minor decoder, apart
    from deriving its check-major edge index (edge ``c * 6 + j`` is slot
    ``j`` of check ``c``) from ``row_vars`` here.
    """
    var_edges = np.argsort(code.row_vars.reshape(-1), kind="stable").reshape(code.n, COL_WEIGHT)
    llrs = np.asarray(llrs)
    lead = llrs.shape[:-1]
    l0 = -llrs.reshape(-1, code.n).astype(np.float32)  # positive favours bit 0
    batch = l0.shape[0]
    m = code.m

    q = l0[:, code.row_vars]
    done = np.zeros(batch, dtype=bool)
    final = np.zeros((batch, code.n), dtype=np.uint8)
    hard = np.zeros_like(final)
    pos = np.arange(ROW_WEIGHT)

    for _ in range(max_iters):
        absq = np.abs(q)
        sg = np.where(q < 0, -1.0, 1.0).astype(np.float32)
        part = np.partition(absq, 1, axis=-1)
        min1, min2 = part[..., 0], part[..., 1]
        amin = np.argmin(absq, axis=-1)
        sign_ex = sg.prod(axis=-1, keepdims=True) * sg  # product excluding self
        mag_ex = np.where(pos == amin[..., None], min2[..., None], min1[..., None])
        r = normalization * sign_ex * mag_ex

        post = l0 + r.reshape(batch, m * ROW_WEIGHT)[:, var_edges].sum(axis=-1)
        hard = (post < 0).astype(np.uint8)
        parity = np.bitwise_xor.reduce(hard[:, code.row_vars], axis=-1)
        ok = ~parity.any(axis=-1) & post.any(axis=-1)
        newly = ok & ~done
        if newly.any():
            final[newly] = hard[newly]
            done = done | newly
        if done.all():
            break
        q = post[:, code.row_vars] - r

    final[~done] = hard[~done]
    info = final[:, : code.k]
    return info.reshape(lead + (code.k,)), done.reshape(lead)


def noisy_llrs(code, batch, rng, kind="real", zero_rows=0):
    """LLRs of random codewords, each block at its own SNR between -1 and 8 dB.

    The spread of SNRs makes blocks converge at different iterations (or
    not at all).  ``kind`` "integer" rounds to whole numbers, so check
    minima tie and zero LLRs appear; "wide" scales each LLR by 10**(-4..8),
    so float32 sums round and their order matters.  The first
    ``zero_rows`` blocks are all zero.
    """
    bits = rng.integers(0, 2, size=(batch, code.k))
    cw = encode(bits, code)
    snr = 10 ** (rng.uniform(-1.0, 8.0, size=(batch, 1)) / 10)
    sigma = np.sqrt(1.0 / (2.0 * 0.5 * snr))
    y = (2.0 * cw - 1.0) + sigma * rng.standard_normal(cw.shape)
    llrs = 2.0 * y / sigma**2
    if kind == "integer":
        llrs = np.round(llrs / 2.0)
    elif kind == "wide":
        llrs *= 10.0 ** rng.uniform(-4.0, 8.0, size=llrs.shape)
    llrs[:zero_rows] = 0.0
    return llrs


@pytest.mark.parametrize("max_iters", [1, 2, 20])
@pytest.mark.parametrize("batch", [0, 1, 37])
@pytest.mark.parametrize("n", [48, 96, 648])
@settings(max_examples=6)
@given(
    layout=st.sampled_from(["flat", "3d", "single"]),
    kind=st.sampled_from(["real", "integer", "wide"]),
    zero_rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_matches_the_flooding_oracle_bit_for_bit(
    n, batch, layout, max_iters, kind, zero_rows, seed
):
    code = build_code(n)
    llrs = noisy_llrs(code, batch, np.random.default_rng(seed), kind, min(zero_rows, batch))
    if layout == "3d":
        llrs = llrs.reshape(1, batch, 1, n)
    elif layout == "single" and batch == 1:
        llrs = llrs[0]
    info, converged = decode(llrs, code, max_iters=max_iters)
    want_info, want_converged = flooding_decode(llrs, code, max_iters=max_iters)
    assert info.dtype == want_info.dtype and converged.dtype == want_converged.dtype
    assert info.shape == want_info.shape and converged.shape == want_converged.shape
    np.testing.assert_array_equal(info, want_info)
    np.testing.assert_array_equal(converged, want_converged)


def test_blocks_leave_the_active_set_at_different_iterations():
    code = build_code(648)
    llrs = noisy_llrs(code, 37, np.random.default_rng(8), "integer", zero_rows=2)
    counts = []
    for max_iters in (1, 2, 5, 20):
        info, converged = decode(llrs, code, max_iters=max_iters)
        want_info, want_converged = flooding_decode(llrs, code, max_iters=max_iters)
        np.testing.assert_array_equal(info, want_info)
        np.testing.assert_array_equal(converged, want_converged)
        counts.append(int(converged.sum()))
    # Some blocks converge in the first iteration, more later, some never.
    assert 0 < counts[0] < counts[1] < counts[3] < 35


@pytest.mark.parametrize("small, negative, bit", [(2, 1, 0), (1, 2, 1)])
def test_variable_sum_rounds_in_check_order(small, negative, bit):
    # Variable v (channel value -0.5) gets +-3*2**24 from two of its checks
    # and +0.75 from the one in position ``small``.  Only the sum
    # ``l0 + ((r_0 + r_1) + r_2)`` in check order gives the hard bit ``bit``:
    # other orders round the 0.75 or the -0.5 away.
    code = build_code(96)
    checks_of = [np.nonzero((code.row_vars == v).any(axis=1))[0] for v in range(code.n)]
    for v in range(code.k):
        others = [set(code.row_vars[c]) - {v} for c in checks_of[v]]
        if not (others[0] & others[1] or others[0] & others[2] or others[1] & others[2]):
            break
    l0 = np.full(code.n, 2.0**26)  # decoder polarity: positive favours bit 0
    l0[min(others[negative])] = -(2.0**26)
    l0[min(others[small])] = 1.0
    l0[v] = -0.5
    info, _ = decode(-l0, code, max_iters=1)
    want, _ = flooding_decode(-l0, code, max_iters=1)
    assert want[v] == bit
    np.testing.assert_array_equal(info, want)


def test_noiseless_decode_is_exact():
    code = build_code(96)
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=(50, code.k))
    cw = encode(bits, code)
    llrs = 20.0 * (2.0 * cw - 1.0)  # positive favours bit 1
    info, converged = decode(llrs, code)
    np.testing.assert_array_equal(info, bits)
    assert converged.all()


def test_single_sign_flip_is_corrected_everywhere():
    code = build_code(48)
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=code.k)
    cw = encode(bits, code)
    base = 8.0 * (2.0 * cw - 1.0)
    flips = np.tile(base, (code.n, 1))
    flips[np.arange(code.n), np.arange(code.n)] *= -1.0
    info, converged = decode(flips, code)
    assert converged.all()
    np.testing.assert_array_equal(info, np.tile(bits, (code.n, 1)))


def test_all_zero_llrs_do_not_claim_convergence():
    code = build_code(48)
    info, converged = decode(np.zeros((3, 48)), code)
    assert not converged.any()
    np.testing.assert_array_equal(info, np.zeros((3, code.k), dtype=np.uint8))


def test_decode_recovers_from_moderate_noise():
    code = build_code(264)
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=(40, code.k))
    cw = encode(bits, code)
    # BPSK over AWGN around 3 dB Eb/N0 at rate 1/2
    sigma = np.sqrt(1.0 / (2.0 * 0.5 * 10 ** (3.0 / 10)))
    y = (2.0 * cw - 1.0) + sigma * rng.standard_normal(cw.shape)
    llrs = 2.0 * y / sigma**2
    info, converged = decode(llrs, code, max_iters=30)
    ok = (info == bits).all(axis=1)
    assert ok.mean() >= 0.8
    assert converged[ok].all()


def test_code_construction_validation_and_determinism():
    with pytest.raises(ConfigError):
        build_code(49)
    with pytest.raises(ConfigError):
        build_code(12)
    a, b = build_code(48, seed=1), build_code(48, seed=2)
    assert not np.array_equal(a.row_vars, b.row_vars)
    np.testing.assert_array_equal(build_code(48).row_vars, build_code(48).row_vars)


def test_decode_input_validation():
    code = build_code(48)
    with pytest.raises(ConfigError):
        decode(np.zeros(47), code)
    with pytest.raises(ConfigError):
        decode(np.float64(1.0), code)
    bad = np.zeros(48)
    bad[3] = np.inf
    with pytest.raises(ConfigError):
        decode(bad, code)
    bad[3] = 1e39  # finite, but not in float32
    with pytest.raises(ConfigError):
        decode(bad, code)
    llrs = np.ones((2, 48))  # every LLR favours bit 1
    for max_iters in (0, -1, 2.0, True, "3", None):
        with pytest.raises(ConfigError):
            decode(llrs, code, max_iters=max_iters)
    for normalization in (0.0, -0.5, 1.5, np.nan, np.inf, False, "0.75", None):
        with pytest.raises(ConfigError):
            decode(llrs, code, normalization=normalization)
    info, _ = decode(llrs, code, max_iters=np.int64(1), normalization=1)
    np.testing.assert_array_equal(info, np.ones((2, code.k), dtype=np.uint8))
