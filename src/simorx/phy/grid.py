"""Resource grid bookkeeping for one transport block.

A grid is ``[NUM_SYMBOLS, num_subcarriers]`` complex, time first: one
14-symbol slot at ``SCS_KHZ`` = 30 kHz subcarrier spacing.  Guard bands
occupy the lowest ``guard_lo`` and highest ``guard_hi`` subcarriers and
stay zero.  Two full OFDM symbols, ``PILOT_SYMBOLS``, carry pilots on every
active subcarrier; everything else in the active region is data.  The
slot, the spacing and the pilot layout are constants, the same at every
scale; ``GridConfig`` holds only what the scale presets vary.

The canonical order for flattening data resource elements is symbol-major,
subcarrier-minor: all active subcarriers of the first data symbol, then the
next symbol.  With ``K`` bits per symbol the bit axis nests innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError

NUM_SYMBOLS = 14
PILOT_SYMBOLS = (2, 11)
SCS_KHZ = 30
PILOT_SEED = 4150


@dataclass(frozen=True)
class GridConfig:
    num_subcarriers: int = 128
    guard_lo: int = 5
    guard_hi: int = 6

    def __post_init__(self):
        if self.guard_lo < 0 or self.guard_hi < 0:
            raise ConfigError("guard band sizes cannot be negative")
        if self.guard_lo + self.guard_hi >= self.num_subcarriers:
            raise ConfigError("guard bands leave no active subcarriers")

    @property
    def num_active_subcarriers(self) -> int:
        return self.num_subcarriers - self.guard_lo - self.guard_hi

    @property
    def active_subcarriers(self) -> np.ndarray:
        return np.arange(self.guard_lo, self.num_subcarriers - self.guard_hi)

    @property
    def data_symbols(self) -> np.ndarray:
        return np.asarray([t for t in range(NUM_SYMBOLS) if t not in PILOT_SYMBOLS])

    @property
    def num_data_res(self) -> int:
        return self.num_active_subcarriers * (NUM_SYMBOLS - len(PILOT_SYMBOLS))

    @property
    def subcarrier_spacing_hz(self) -> float:
        return SCS_KHZ * 1e3

    @cached_property
    def _data_index(self) -> tuple[np.ndarray, np.ndarray]:
        # Symbol-major, subcarrier-minor flattening order.
        t = np.repeat(self.data_symbols, self.num_active_subcarriers)
        f = np.tile(self.active_subcarriers, len(self.data_symbols))
        return t, f

    @property
    def data_symbol_index(self) -> np.ndarray:
        return self._data_index[0]

    @property
    def data_subcarrier_index(self) -> np.ndarray:
        return self._data_index[1]


def pilot_values(cfg: GridConfig) -> np.ndarray:
    """Unit-power QPSK pilots for every pilot symbol, ``[len(PILOT_SYMBOLS), n_active]``.

    Drawn once from ``PILOT_SEED``; the same config always produces the same
    sequence.
    """
    rng = np.random.default_rng(PILOT_SEED)
    bits = rng.integers(0, 2, size=(len(PILOT_SYMBOLS), cfg.num_active_subcarriers, 2))
    return ((1 - 2 * bits[..., 0]) + 1j * (1 - 2 * bits[..., 1])) / np.sqrt(2.0)


def build_grid(symbols: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Place modulated data symbols and pilots; returns ``[..., F, S]`` complex.

    ``symbols`` is ``[..., num_data_res]`` in canonical order.  Guard bands
    are zero.
    """
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != cfg.num_data_res:
        raise ConfigError(
            f"expected {cfg.num_data_res} data symbols, got {symbols.shape[-1]}"
        )
    lead = symbols.shape[:-1]
    grid = np.zeros(lead + (NUM_SYMBOLS, cfg.num_subcarriers), dtype=np.complex128)
    t, f = cfg.data_symbol_index, cfg.data_subcarrier_index
    grid[..., t, f] = symbols
    pil = pilot_values(cfg)
    for row, tsym in enumerate(PILOT_SYMBOLS):
        grid[..., tsym, cfg.guard_lo : cfg.num_subcarriers - cfg.guard_hi] = pil[row]
    return grid
