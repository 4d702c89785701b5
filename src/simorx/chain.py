"""End-to-end transmission generation shared by training and evaluation.

One batch element is one transport block: information bits are LDPC
encoded, Gray mapped, placed on the grid with pilots, sent through an
independent block-fading realization, and hit with AWGN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .channel.fading import apply_channel_awgn, batch_frequency_response
from .phy.grid import GridConfig, build_grid
from .phy.ldpc import LdpcCode, build_code, encode
from .phy.modulation import ModulationScheme, qam_map


@dataclass(frozen=True)
class TransmissionBatch:
    info_bits: np.ndarray = field(repr=False)   # [M, k] uint8
    coded_bits: np.ndarray = field(repr=False)  # [M, n] uint8
    tx_grid: np.ndarray = field(repr=False)     # [M, F, S] complex
    h: np.ndarray = field(repr=False)           # [M, n_rx, S] complex
    rx: np.ndarray = field(repr=False)          # [M, n_rx, F, S] complex
    n0: np.ndarray = field(repr=False)          # [M]

    @property
    def batch(self) -> int:
        return self.info_bits.shape[0]

    def blocks(self, start: int, stop: int) -> TransmissionBatch:
        """Blocks ``start:stop`` of this batch, as views of its arrays."""
        return TransmissionBatch(*(getattr(self, f.name)[start:stop] for f in fields(self)))


def code_for_grid(cfg: GridConfig, scheme: ModulationScheme, ldpc_seed: int = 1) -> LdpcCode:
    """The rate-1/2 code whose block length fills every data RE of the grid."""
    return build_code(cfg.num_data_res * scheme.bits_per_symbol, ldpc_seed)


def simulate_batch(
    cfg: GridConfig,
    scheme: ModulationScheme,
    code: LdpcCode,
    profile,
    n0,
    batch: int,
    n_rx: int,
    rng: np.random.Generator,
) -> TransmissionBatch:
    """Generate ``batch`` independent transport blocks at noise level ``n0``.

    ``n0`` is a scalar or one value per block.  Draw order is fixed (bits,
    then channel, then noise) so a given generator state always produces
    the same batch.
    """
    n_bits = cfg.num_data_res * scheme.bits_per_symbol
    if code.n != n_bits:
        raise ConfigError(
            f"code length {code.n} does not fill the grid ({n_bits} coded bits)"
        )
    n0 = np.broadcast_to(np.asarray(n0, dtype=np.float64), (batch,))
    info = rng.integers(0, 2, size=(batch, code.k), dtype=np.uint8)
    coded = encode(info, code)
    symbols = qam_map(coded, scheme)
    tx = build_grid(symbols, cfg)
    h = batch_frequency_response(profile, batch, n_rx, cfg, rng)
    rx = apply_channel_awgn(tx, h, n0, rng)
    return TransmissionBatch(info, coded, tx, h, rx, np.array(n0))
