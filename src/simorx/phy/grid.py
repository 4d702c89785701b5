"""Resource grid bookkeeping for one transport block.

A grid is ``[num_symbols, num_subcarriers]`` complex, time first.  Guard
bands occupy the lowest ``guard_lo`` and highest ``guard_hi`` subcarriers
and stay zero.  Two full OFDM symbols carry pilots on every active
subcarrier; everything else in the active region is data.

The canonical order for flattening data resource elements is symbol-major,
subcarrier-minor: all active subcarriers of the first data symbol, then the
next symbol.  With ``K`` bits per symbol the bit axis nests innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError

SUPPORTED_SCS_KHZ = (30, 60, 120)


@dataclass(frozen=True)
class GridConfig:
    num_symbols: int = 14
    num_subcarriers: int = 128
    guard_lo: int = 5
    guard_hi: int = 6
    pilot_symbols: tuple[int, ...] = (2, 11)
    scs_khz: int = 30
    pilot_seed: int = 4150

    def __post_init__(self):
        if self.num_symbols < 1 or self.num_subcarriers < 1:
            raise ConfigError("grid dimensions must be positive")
        if self.guard_lo < 0 or self.guard_hi < 0:
            raise ConfigError("guard band sizes cannot be negative")
        if self.guard_lo + self.guard_hi >= self.num_subcarriers:
            raise ConfigError("guard bands leave no active subcarriers")
        if len(set(self.pilot_symbols)) != len(self.pilot_symbols):
            raise ConfigError("pilot symbol indices must be distinct")
        for t in self.pilot_symbols:
            if not 0 <= t < self.num_symbols:
                raise ConfigError(f"pilot symbol index {t} outside the grid")
        if self.scs_khz not in SUPPORTED_SCS_KHZ:
            raise ConfigError(f"subcarrier spacing must be one of {SUPPORTED_SCS_KHZ} kHz")

    @property
    def num_active_subcarriers(self) -> int:
        return self.num_subcarriers - self.guard_lo - self.guard_hi

    @property
    def active_subcarriers(self) -> np.ndarray:
        return np.arange(self.guard_lo, self.num_subcarriers - self.guard_hi)

    @property
    def data_symbols(self) -> np.ndarray:
        pilots = set(self.pilot_symbols)
        return np.asarray([t for t in range(self.num_symbols) if t not in pilots])

    @property
    def num_data_res(self) -> int:
        return self.num_active_subcarriers * (self.num_symbols - len(self.pilot_symbols))

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.scs_khz * 1e3

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
    """Unit-power QPSK pilots for every pilot symbol, ``[len(pilot_symbols), n_active]``.

    Drawn once from ``pilot_seed``; the same config always produces the same
    sequence.
    """
    rng = np.random.default_rng(cfg.pilot_seed)
    bits = rng.integers(0, 2, size=(len(cfg.pilot_symbols), cfg.num_active_subcarriers, 2))
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
    grid = np.zeros(lead + (cfg.num_symbols, cfg.num_subcarriers), dtype=np.complex128)
    t, f = cfg.data_symbol_index, cfg.data_subcarrier_index
    grid[..., t, f] = symbols
    pil = pilot_values(cfg)
    for row, tsym in enumerate(cfg.pilot_symbols):
        grid[..., tsym, cfg.guard_lo : cfg.num_subcarriers - cfg.guard_hi] = pil[row]
    return grid
