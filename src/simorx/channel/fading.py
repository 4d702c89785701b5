"""Block fading, frequency responses, and AWGN.

One realization covers one transport block: tap gains are drawn once and
held for all symbols of the grid (block fading), and the cyclic prefix is
assumed long enough that the channel acts per subcarrier in the frequency
domain.  Receive antennas fade independently.

Tap gains: a tap with mean power ``p`` and no K-factor is CN(0, p).  With a
K-factor ``K`` (linear) the tap is ``sqrt(p K/(K+1))`` deterministic plus a
CN(0, p/(K+1)) diffuse part; the specular phase is fixed at zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..phy.grid import GridConfig
from .profiles import ChannelProfile, MixedProfile


def _gain_terms(powers, k_db):
    """``(det, diffuse_std)`` per tap: the specular amplitude and the
    per-component standard deviation of the diffuse part."""
    k_lin = np.where(np.isnan(k_db), 0.0, 10.0 ** (np.asarray(k_db) / 10.0))
    return np.sqrt(powers * k_lin / (k_lin + 1.0)), np.sqrt(powers / (k_lin + 1.0) / 2.0)


def _draw_gains(det, diffuse_std, n_rx: int, rng: np.random.Generator) -> np.ndarray:
    t = len(det)
    noise = rng.standard_normal((n_rx, t)) + 1j * rng.standard_normal((n_rx, t))
    return det + diffuse_std * noise


def _phase(delays_s, cfg: GridConfig) -> np.ndarray:
    """``[T, S]``: each tap's phase rotation on each subcarrier."""
    freqs = np.arange(cfg.num_subcarriers) * cfg.subcarrier_spacing_hz
    return np.exp(-2j * np.pi * np.outer(delays_s, freqs))


def batch_frequency_response(
    profile, batch: int, n_rx: int, cfg: GridConfig, rng: np.random.Generator
) -> np.ndarray:
    """Independent block-fading realizations as responses ``[batch, n_rx, S]``.

    A mixed profile draws every sample's member up front, uniformly; then
    each sample in turn draws its member's taps and its antennas' gains, so
    the result is reproducible from the rng alone.  A fixed member's taps
    draw nothing, so its gain terms and phase matrix are computed once.
    """
    if n_rx < 1:
        raise ConfigError("n_rx must be positive")
    if isinstance(profile, MixedProfile):
        members = [profile.members[c] for c in rng.integers(len(profile.members), size=batch)]
    else:
        members = [profile] * batch
    fixed = {}   # id(member) -> (det, diffuse_std, phase)
    h = np.empty((batch, n_rx, cfg.num_subcarriers), dtype=np.complex128)
    for i, member in enumerate(members):
        terms = fixed.get(id(member))
        if terms is None:
            delays, powers, k_db = member.sample_taps(rng)
            terms = (*_gain_terms(powers, k_db), _phase(delays, cfg))
            if isinstance(member, ChannelProfile):
                fixed[id(member)] = terms
        det, diffuse_std, phase = terms
        h[i] = _draw_gains(det, diffuse_std, n_rx, rng) @ phase
    return h


def apply_channel_awgn(tx, h, n0, rng: np.random.Generator) -> np.ndarray:
    """``rx = h * tx + w`` in the frequency domain.

    ``tx`` is ``[..., F, S]``, ``h`` is ``[..., n_rx, S]`` (block fading:
    constant over symbols), ``n0`` is the complex noise variance per RE,
    scalar or one per leading batch entry.  Returns ``[..., n_rx, F, S]``.
    """
    tx = np.asarray(tx)
    h = np.asarray(h)
    if tx.shape[-1] != h.shape[-1]:
        raise ConfigError("tx and h disagree on the number of subcarriers")
    clean = h[..., :, None, :] * tx[..., None, :, :]
    n0 = np.asarray(n0, dtype=np.float64)
    if n0.ndim:
        n0 = n0.reshape(n0.shape + (1,) * (clean.ndim - n0.ndim))
    if not np.all(np.isfinite(n0)) or np.any(n0 < 0):
        raise ConfigError("noise variance must be finite and non-negative")
    # Real parts are drawn before imaginary ones; stored results rest on it.
    rx = np.empty(clean.shape, dtype=np.complex128)
    rx.real = rng.standard_normal(clean.shape)
    rx.imag = rng.standard_normal(clean.shape)
    rx *= np.sqrt(n0 / 2.0)
    rx += clean
    return rx


def ebno_to_n0(ebno_db, bits_per_symbol: int, code_rate: float):
    """Noise variance for unit-energy symbols at a given information-bit SNR.

    ``Es = 1`` carries ``bits_per_symbol * code_rate`` information bits, so
    ``n0 = 1 / (10**(ebno/10) * bits_per_symbol * code_rate)``.
    """
    if bits_per_symbol < 1 or not 0.0 < code_rate <= 1.0:
        raise ConfigError("bits_per_symbol must be >= 1 and 0 < code_rate <= 1")
    ebno = np.asarray(ebno_db, dtype=np.float64)
    n0 = 1.0 / (10.0 ** (ebno / 10.0) * bits_per_symbol * code_rate)
    return float(n0) if np.isscalar(ebno_db) else n0
