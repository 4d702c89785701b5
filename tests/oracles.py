"""Reference computations that only the tests use.

``uncoded_qpsk_ber`` is criterion 02's Monte-Carlo estimate of the genie
demapper's bit error rate; ``extract_data_res`` is the inverse of
``build_grid``'s placement, against which the receiver's LLR extraction
is checked.
"""

import numpy as np

from simorx.errors import ConfigError
from simorx.harness.genie import genie_lmmse_llrs
from simorx.phy.grid import GridConfig
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
    if grid.ndim >= 2 and grid.shape[-2:] == (cfg.num_symbols, cfg.num_subcarriers):
        return grid[..., t, f]
    if grid.ndim >= 3 and grid.shape[-3:-1] == (cfg.num_symbols, cfg.num_subcarriers):
        return grid[..., t, f, :]
    raise ConfigError(
        f"no ({cfg.num_symbols}, {cfg.num_subcarriers}) axis pair in shape {grid.shape}"
    )
