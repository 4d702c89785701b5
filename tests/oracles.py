"""Reference computations that only the tests use.

``uncoded_qpsk_ber`` is criterion 02's Monte-Carlo estimate of the genie
demapper's bit error rate; ``extract_data_res`` is the inverse of
``build_grid``'s placement, against which the receiver's LLR extraction
is checked.  ``per_block_frequency_response`` draws a batch of channels
one sample at a time, from the profile's data alone, in the draw order
that ``batch_frequency_response`` must match byte for byte.
``nine_tap_weight_grad`` is a conv's weight gradient through
a full ``kh * kw``-tap im2col of each image, the lowering ``Conv2D`` used
before its tap-row strips; the strips must give the same bits.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from simorx.channel.profiles import ClusteredRandomProfile, MixedProfile
from simorx.errors import ConfigError
from simorx.harness.genie import genie_lmmse_llrs
from simorx.phy.grid import NUM_SYMBOLS, SCS_KHZ, GridConfig
from simorx.phy.modulation import get_scheme, qam_map


def uncoded_qpsk_ber(ebno_db: float, num_bits: int, seed: int = 0) -> float:
    """Monte-Carlo BER of uncoded QPSK over AWGN using the genie demapper.

    A single unit antenna with ``h = 1``; hard decisions on the LLR sign.
    ``Eb/N0`` here is per uncoded bit (``n0 = 1 / (2 * 10**(ebno/10))``).
    """
    scheme = get_scheme("qpsk")
    if num_bits % 2:
        raise ConfigError("num_bits must be even for QPSK")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(round(ebno_db * 1000)),)))
    bits = rng.integers(0, 2, size=num_bits, dtype=np.uint8)
    sym = qam_map(bits, scheme)
    n0 = 1.0 / (2.0 * 10.0 ** (ebno_db / 10.0))
    noise = (rng.standard_normal(sym.shape) + 1j * rng.standard_normal(sym.shape)) * np.sqrt(n0 / 2.0)
    y = (sym + noise)[..., None]
    h = np.ones_like(y)
    llrs = genie_lmmse_llrs(y, h, n0, scheme)
    hard = (llrs.reshape(-1) > 0).astype(np.uint8)
    return float(np.mean(hard != bits))


def extract_data_res(grid: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Inverse of the placement step: ``[..., F, S, ...tail] -> [..., n_data, ...tail]``.

    Works on any array whose two leading-of-trailing axes are the grid; a
    trailing per-RE axis (for example per-bit LLRs) is preserved.
    """
    grid = np.asarray(grid)
    t, f = cfg.data_symbol_index, cfg.data_subcarrier_index
    # Locate the (F, S) axis pair: it is the last pair for plain grids, or
    # the pair before a trailing feature axis when one exists.
    if grid.ndim >= 2 and grid.shape[-2:] == (NUM_SYMBOLS, cfg.num_subcarriers):
        return grid[..., t, f]
    if grid.ndim >= 3 and grid.shape[-3:-1] == (NUM_SYMBOLS, cfg.num_subcarriers):
        return grid[..., t, f, :]
    raise ConfigError(
        f"no ({NUM_SYMBOLS}, {cfg.num_subcarriers}) axis pair in shape {grid.shape}"
    )


def per_block_frequency_response(profile, batch: int, n_rx: int, cfg: GridConfig, rng) -> np.ndarray:
    """``[batch, n_rx, S]`` in ``batch_frequency_response``'s draw order: a
    mixed profile picks every member up front, then each sample draws its
    taps (a clustered-random member only), its gains' real parts and then
    their imaginary parts, and sums the taps' phase rotations per subcarrier."""
    if isinstance(profile, MixedProfile):
        members = [profile.members[c] for c in rng.integers(len(profile.members), size=batch)]
    else:
        members = [profile] * batch
    freqs = np.arange(cfg.num_subcarriers) * SCS_KHZ * 1e3
    out = []
    for m in members:
        if isinstance(m, ClusteredRandomProfile):
            delays = np.concatenate([[0.0], np.sort(rng.exponential(m.delay_scale_s, size=m.num_taps - 1))])
            db = -10.0 * np.log10(np.e) * delays / m.delay_scale_s + rng.normal(0.0, m.jitter_db, size=m.num_taps)
            powers = 10.0 ** (db / 10.0)
            powers /= powers.sum()
            k_lin = np.zeros(m.num_taps)
        else:
            delays, powers = m.delays_s, m.powers_linear
            k_lin = np.where(np.isnan(m.k_factors_db), 0.0, 10.0 ** (m.k_factors_db / 10.0))
        specular = np.sqrt(powers * k_lin / (k_lin + 1.0))
        diffuse_std = np.sqrt(powers / (k_lin + 1.0) / 2.0)
        real = rng.standard_normal((n_rx, len(delays)))
        gains = specular + diffuse_std * (real + 1j * rng.standard_normal((n_rx, len(delays))))
        out.append(gains @ np.exp(-2j * np.pi * np.outer(delays, freqs)))
    return np.stack(out)


def nine_tap_weight_grad(conv, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """``conv``'s ``[kh * kw * c_in, c_out]`` weight gradient for input ``x``
    and output gradient ``grad_out``: per image, its ``[h * w, kh * kw *
    c_in]`` taps transposed times its rows of ``grad_out``, summed over the
    images in image order.  A 3x3 kernel's input is padded by one zero on
    every side.  A 1x1 kernel's taps are ``x`` itself, which the im2col
    lowering took as one image: one GEMM over the whole shard."""
    kh, kw = conv.kernel
    m, h, w, c = x.shape
    if (kh, kw) == (1, 1):
        return x.reshape(m * h * w, c).T @ grad_out.reshape(m * h * w, -1)
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    sm, sh, sw, sc = xp.strides
    taps = as_strided(xp, shape=(m, h, w, kh, kw, c), strides=(sm, sh, sw, sh, sw, sc))
    gm = grad_out.reshape(m, h * w, -1)
    total = None
    for img, g in zip(taps, gm):
        part = np.ascontiguousarray(img).reshape(h * w, kh * kw * c).T @ g
        total = part if total is None else total + part
    return total
