"""Gray-mapped square QAM constellations, unit average energy.

Labels are read MSB first.  With ``b`` the label bits, the mapping follows
the standard NR pattern: even-indexed bits steer the in-phase axis,
odd-indexed bits the quadrature axis, and within one axis the bits select
amplitude levels so that neighbouring levels differ in exactly one bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class ModulationScheme:
    name: str
    bits_per_symbol: int
    points: np.ndarray = field(repr=False)       # [2**K] complex, indexed by label
    int_points: np.ndarray = field(repr=False)   # same points on the odd-integer lattice
    energy_denominator: int = 1                  # points = int_points / sqrt(denominator)

    @property
    def num_points(self) -> int:
        return 1 << self.bits_per_symbol

    def bit_masks(self) -> np.ndarray:
        """Boolean ``[K, 2**K]``: bit ``k`` (MSB first) of every label."""
        labels = np.arange(self.num_points)
        k = self.bits_per_symbol
        return ((labels >> (k - 1 - np.arange(k)[:, None])) & 1).astype(bool)


def _axis_levels(bits: np.ndarray) -> np.ndarray:
    # bits [..., n] for one axis, MSB first; returns odd-integer levels.
    s = 1 - 2 * bits
    n = bits.shape[-1]
    if n == 1:
        return s[..., 0]
    if n == 2:
        return s[..., 0] * (2 - s[..., 1])
    if n == 3:
        return s[..., 0] * (4 - s[..., 1] * (2 - s[..., 2]))
    raise ConfigError("only 1, 2 or 3 bits per axis are defined")


def _build(name: str, bits_per_symbol: int) -> ModulationScheme:
    k = bits_per_symbol
    labels = np.arange(1 << k)
    bits = ((labels[:, None] >> (k - 1 - np.arange(k))) & 1).astype(np.int64)
    i_levels = _axis_levels(bits[:, 0::2])
    q_levels = _axis_levels(bits[:, 1::2])
    ints = i_levels + 1j * q_levels
    denom = int(np.mean(i_levels**2 + q_levels**2))
    points = ints / np.sqrt(float(denom))
    return ModulationScheme(name, k, points, ints, denom)


_SCHEMES = {
    "qpsk": _build("qpsk", 2),
    "16qam": _build("16qam", 4),
    "64qam": _build("64qam", 6),
}


def get_scheme(name: str) -> ModulationScheme:
    try:
        return _SCHEMES[name.lower()]
    except (KeyError, AttributeError):  # AttributeError: not a string
        raise ConfigError(f"unknown modulation {name!r}; choose from {sorted(_SCHEMES)}") from None


def qam_map(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Map ``[..., n*K]`` bits to ``[..., n]`` symbols, MSB first within a symbol."""
    bits = np.asarray(bits)
    k = scheme.bits_per_symbol
    if bits.shape[-1] % k:
        raise ConfigError(f"bit count {bits.shape[-1]} is not a multiple of {k}")
    grouped = bits.reshape(bits.shape[:-1] + (-1, k))
    weights = 1 << np.arange(k - 1, -1, -1)
    labels = grouped @ weights
    return scheme.points[labels]
