"""End-to-end transmission generation shared by training and evaluation.

One batch element is one transport block: information bits are LDPC
encoded, Gray mapped, placed on the grid with pilots, sent through an
independent block-fading realization, and hit with AWGN.

Training and evaluation both cut each batch into shards of ``SHARD``
blocks (``shard_slices``) and run one task per shard through the ``map``
that ``shard_map`` yields.  When a batch has more than one shard and the
machine more than one usable CPU, that ``map`` runs the shards on two
threads, and OpenBLAS, which numpy bundles, is pinned to one thread until
the context closes: the two threads then fill both cores, where a BLAS
left at two threads would spin on the core a shard needs.  Otherwise, or
without that OpenBLAS, it is the builtin ``map``: the shards run one
after another with BLAS as it was.  Shard boundaries depend on the batch
size alone, so output bits never depend on the thread count.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .channel.fading import apply_channel_awgn, batch_frequency_response
from .phy.grid import GridConfig, build_grid
from .phy.ldpc import LdpcCode, build_code, encode
from .phy.modulation import ModulationScheme, qam_map

SHARD = 8  # blocks per shard; the output bits depend on it


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

    def blocks(self, index: slice) -> TransmissionBatch:
        """The blocks at ``index`` of this batch, as views of its arrays."""
        return TransmissionBatch(*(getattr(self, f.name)[index] for f in fields(self)))


def shard_slices(stop: int) -> list:
    """The shards that hold blocks ``0:stop``, as slices of ``SHARD`` blocks.

    The last slice may run past ``stop``: the boundaries are multiples of
    ``SHARD``, so they depend on the batch alone.
    """
    return [slice(i, i + SHARD) for i in range(0, stop, SHARD)]


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of the OpenBLAS that numpy
    bundles, or None when that library or its setter is not found."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def shard_map(batch: int):
    """The ``map`` that runs the shards of ``batch``-block batches: a
    two-thread pool's, with BLAS pinned to one thread until the context
    closes, or the builtin ``map`` when the batch has one shard, the
    OpenBLAS setter is missing or only one CPU is usable."""
    blas = _openblas() if batch > SHARD else None
    if blas is None or len(os.sched_getaffinity(0)) < 2:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor

    get, set_ = blas
    before = get()
    set_(1)
    pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="simorx-shard")
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)
        set_(before)


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
