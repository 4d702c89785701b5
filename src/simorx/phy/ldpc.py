"""Regular rate-1/2 LDPC code with a normalised min-sum decoder.

The parity-check matrix is a seeded biregular construction: column weight
3, row weight 6, ``m = n/2`` checks, built by matching column stubs to
check stubs and swapping away duplicate edges.  (The classic banded
variant is useless here: every band sums to the all-ones row, so two bands
are always linearly dependent and the matrix can never reach full rank.)
Gauss-Jordan elimination over GF(2) turns the matrix into systematic form;
codewords are ``[info | parity]``.  Constructions that end up
rank-deficient are regenerated with the next seed (logged), so a given
``(n, seed)`` pair always yields the same code.

The elimination works on rows packed 64 columns to a little-endian
``uint64`` word (column ``c`` is bit ``c % 64`` of word ``c // 64``, and
bit ``c % 8`` of byte ``c // 8`` of the row).  The check adjacency is
packed straight into words and the encoder's free columns are read from
the reduced words, so no dense matrix of ``n / 2`` by ``n`` bytes is ever
formed: at n = 8,424 that is 35 MB a copy.  It takes the columns
eight at a time, one byte of every row (the "method of the Four
Russians", Albrecht, Bard & Hart, ACM TOMS 2010): it finds the pivots of
those eight columns from the byte values below the current row, tabulates
every sum of the chosen pivot rows, and clears the eight columns of all
other rows with one table lookup per row, XORing only from the strip's
word onward.  The reduced row echelon form of a matrix is unique, so this
gives the same matrix and pivot columns as one row operation per pivot on
a byte per entry, which the tests keep as the oracle.  Construction uses
no numpy set routine (``np.unique``, ``np.setdiff1d``): they import
``numpy.ma``, which costs every process about 20 ms and nothing else in
the package needs.

LLR convention throughout the package: positive means bit 1 is more likely
(``log P(b=1)/P(b=0)``).  The decoder works internally in the opposite
polarity, which is the one the standard min-sum update rules are written
in, and converts at the boundary.

The decoder is normalised min-sum (Chen et al., "Reduced-Complexity
Decoding of LDPC Codes", IEEE Trans. Commun. 2005) laid out around the
blocks of the batch.  Blocks sit on the contiguous inner axis: edge
messages are ``[6, m, B]`` (slot ``j`` of check ``c`` at row ``j * m +
c``) and posteriors ``[n, B]``, so every gather between the two copies
whole rows.  The minimum over a check's other five edges comes from
prefix and suffix running minima over the six slots, and the sign from
the XOR of the check's sign bits with the edge's own.  A block whose hard
decision satisfies every check is written out and leaves the active set;
only unconverged blocks keep iterating.  Blocks never interact, and every
per-edge float operation rounds as in the textbook flooding decoder, so
the output is bit-identical to that decoder, which the tests keep as the
oracle.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, is_finite_real, is_integer

logger = logging.getLogger(__name__)

ROW_WEIGHT = 6
COL_WEIGHT = 3
DEFAULT_CONSTRUCTION_SEED = 1
_SIGN_BIT = np.uint32(0x80000000)


@dataclass(frozen=True)
class LdpcCode:
    n: int
    k: int
    construction_seed: int
    row_vars: np.ndarray = field(repr=False)         # [m, 6] variable indices per check
    var_slot_edges: np.ndarray = field(repr=False)   # [3, n] slot-major edges per variable
    encoder_matrix: np.ndarray = field(repr=False)   # [m, k] uint8, parity = A @ info

    @property
    def m(self) -> int:
        return self.n - self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[np.repeat(np.arange(self.m), ROW_WEIGHT), self.row_vars.reshape(-1)] = 1
        return h


def _biregular_rows(n: int, rng: np.random.Generator, max_repair: int = 200):
    """Check-node adjacency ``[m, 6]`` with every column used exactly 3 times.

    Duplicate edges (one column twice in a row) are swapped with random
    stubs until none remain; returns None if that fails to settle.
    """
    m = n // 2
    stubs = np.repeat(np.arange(n), COL_WEIGHT)
    rng.shuffle(stubs)
    rows = stubs.reshape(m, ROW_WEIGHT)
    flat = rows.reshape(-1)
    for _ in range(max_repair):
        sorted_rows = np.sort(rows, axis=1)
        dup_rows = np.nonzero((sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1))[0]
        if dup_rows.size == 0:
            return rows
        for r in dup_rows:
            s = sorted_rows[r].tolist()
            for col in sorted({b for a, b in zip(s, s[1:]) if a == b}):
                pos = r * ROW_WEIGHT + int(np.nonzero(rows[r] == col)[0][0])
                j = int(rng.integers(flat.size))
                flat[pos], flat[j] = flat[j], flat[pos]
    return None


def _packed_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The parity-check matrix of check adjacency ``rows``, packed to
    ``[m, ceil(n / 64)]`` little-endian ``uint64`` words."""
    m = rows.shape[0]
    words = np.zeros((m, -(-n // 64)), dtype="<u8")
    bits = np.left_shift(np.uint64(1), (rows % 64).astype(np.uint64))
    np.bitwise_or.at(words, (np.arange(m)[:, None], rows // 64), bits)
    return words


def _rref_gf2(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a matrix packed to little-endian
    ``uint64`` words (column ``c`` is bit ``c % 64`` of word ``c // 64``),
    computed in place on ``rows``, and its pivot columns."""
    m, n_words = rows.shape
    packed = rows.view(np.uint8)
    # The sum table and the sums a pass applies live in buffers taken once:
    # temporaries of up to ``m * n_words`` words, one per pass, would each
    # be a fresh mapping, faulted in page by page.
    table = np.empty((256, n_words), dtype=rows.dtype)
    scratch = np.empty(rows.size, dtype=rows.dtype)
    r = 0
    pivots: list[int] = []
    for j in range(8 * n_words):
        if r == m:
            break
        w = j // 8
        strip = packed[r:, j]
        # The reduced echelon basis of the byte values at or below row r:
        # pivot bit -> (byte, mask of the chosen rows whose sum it is).
        # Each pivot bit is the lowest bit of its byte and set in no other.
        basis: dict[int, tuple[int, int]] = {}
        chosen: list[int] = []
        for v in np.flatnonzero(np.bincount(strip, minlength=256)).tolist():
            x, mask = v, 1 << len(chosen)
            for pivot, (bx, bmask) in basis.items():
                if x & pivot:
                    x, mask = x ^ bx, mask ^ bmask
            if x:
                low = x & -x
                for pivot, (bx, bmask) in list(basis.items()):
                    if bx & low:
                        basis[pivot] = (bx ^ x, bmask ^ mask)
                basis[low] = (x, mask)
                chosen.append(v)
                if len(chosen) == 8:
                    break
        if not chosen:
            continue
        lows = sorted(basis)
        k = len(chosen)
        sel = (r + np.argmax(strip[:, None] == np.array(chosen, dtype=np.uint8), axis=0)).tolist()
        # sums[mask]: XOR of the chosen rows in ``mask``, from word w on
        sums = table[: 1 << k, w:]
        sums[0] = 0
        for i, s in enumerate(sel):
            np.bitwise_xor(sums[: 1 << i], rows[s, w:], out=sums[1 << i : 2 << i])
        # lut[byte]: the chosen rows whose sum matches ``byte`` on every pivot bit
        lut = np.zeros(256, dtype=np.intp)
        for bit in range(8):
            np.bitwise_xor(lut[: 1 << bit], basis.get(1 << bit, (0, 0))[1], out=lut[1 << bit : 2 << bit])
        # Rows r..r+k-1 become the reduced pivot rows; the rows they
        # displace take the places of chosen rows further down.
        rows[[s for s in sel if s >= r + k], w:] = rows[[t for t in range(r, r + k) if t not in sel], w:]
        rows[r : r + k, w:] = sums[[basis[low][1] for low in lows]]
        add = lut[packed[:, j]]
        add[r : r + k] = 0
        hit = np.flatnonzero(add)
        upd = scratch[: hit.size * (n_words - w)].reshape(hit.size, n_words - w)
        rows[hit, w:] ^= np.take(sums, add[hit], axis=0, out=upd, mode="clip")
        pivots.extend(8 * j + low.bit_length() - 1 for low in lows)
        r += k
    return rows, pivots


@functools.lru_cache(maxsize=32)
def build_code(n: int, seed: int = DEFAULT_CONSTRUCTION_SEED, max_attempts: int = 32) -> LdpcCode:
    """Construct the rate-1/2 code of block length ``n`` (``n`` divisible by 6)."""
    if n % 2 or n < 4 * ROW_WEIGHT:
        raise ConfigError(f"block length must be even and at least {4 * ROW_WEIGHT}, got {n}")
    m = n // 2
    for attempt in range(max_attempts):
        rng = np.random.default_rng(seed + attempt)
        rows = _biregular_rows(n, rng)
        if rows is None:
            logger.info("ldpc n=%d seed %d: edge repair did not settle, retrying", n, seed + attempt)
            continue
        rref, pivots = _rref_gf2(_packed_rows(rows, n))
        if len(pivots) == m:
            if attempt:
                logger.info("ldpc n=%d: seed %d unusable, using seed %d", n, seed, seed + attempt)
            break
        logger.info("ldpc n=%d seed %d: rank %d < %d, retrying", n, seed + attempt, len(pivots), m)
    else:
        raise ConfigError(f"no full-rank construction for n={n} within {max_attempts} seeds")

    pivot_cols = np.asarray(pivots)
    is_free = np.ones(n, dtype=bool)
    is_free[pivot_cols] = False
    free_cols = np.flatnonzero(is_free)
    # Systematic column order: information positions first, then parity.
    order = np.concatenate([free_cols, pivot_cols])
    # The free columns of the reduced rows, one byte per bit.
    encoder = np.take(rref.view(np.uint8), free_cols // 8, axis=1)
    encoder >>= (free_cols % 8).astype(np.uint8)
    encoder &= 1

    # Each check's variables at their systematic positions, ascending.
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n)
    row_vars = np.sort(position[rows], axis=1)
    flat_vars = row_vars.reshape(-1)
    if not np.all(np.bincount(flat_vars, minlength=n) == COL_WEIGHT):
        raise ConfigError("construction lost the regular column weight")
    # Each variable's three edges in check order, renumbered from
    # check-major (c * 6 + j) to slot-major (j * m + c).
    edges = np.argsort(flat_vars, kind="stable").reshape(n, COL_WEIGHT)
    slot_major = (edges % ROW_WEIGHT) * m + edges // ROW_WEIGHT
    var_slot_edges = np.ascontiguousarray(slot_major.T, dtype=np.intp)
    return LdpcCode(n, n - m, seed, row_vars, var_slot_edges, encoder)


def encode(bits: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Systematic encoding, ``[..., k] -> [..., n]`` uint8."""
    bits = np.asarray(bits)
    if bits.shape[-1] != code.k:
        raise ConfigError(f"expected {code.k} information bits, got {bits.shape[-1]}")
    # Counts stay far below 2**24, so a float32 GEMM is exact and much
    # faster than integer matmul.
    parity = (bits.astype(np.float32) @ code.encoder_matrix.T.astype(np.float32)) % 2
    return np.concatenate([bits.astype(np.uint8), parity.astype(np.uint8)], axis=-1)


def syndrome(codeword: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Parity of every check, ``[..., n] -> [..., m]`` uint8."""
    cw = np.asarray(codeword, dtype=np.uint8)
    return np.bitwise_xor.reduce(cw[..., code.row_vars], axis=-1)


def decode(
    llrs: np.ndarray,
    code: LdpcCode,
    max_iters: int = 20,
    normalization: float = 0.75,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalised min-sum decoding with flooding schedule and early stop.

    Returns ``(info_bits, converged)``: hard information bits ``[..., k]``
    uint8 and a boolean per block.  A block converges when its hard decision
    satisfies every check; its output freezes at that point and it leaves
    the active set.  A block that never converges returns the hard decision
    of iteration ``max_iters``.  A posterior of exactly zero carries no
    decision (the bit defaults to 0), so all-zero input LLRs report
    ``converged=False`` even though the zero word trivially satisfies the
    checks.

    Blocks are the inner axis of every array (see the module docstring):
    messages are ``[6 * m, B]`` slot-major, posteriors ``[n, B]``, where
    ``B`` counts the blocks still active.  Each check computes the minimum
    over its other five edges from prefix and suffix running minima, and
    the sign over its other five edges as the XOR of the check's sign
    bits with the edge's own.  Every per-edge value is rounded as in the
    textbook flooding decoder (``normalization * min`` in float32, the
    variable sum as ``channel + ((r_0 + r_1) + r_2)`` in check order), so
    bits and flags are bit-identical to it, whichever other blocks share
    the batch; ``tests/test_phy.py`` keeps that decoder as the oracle.

    ``max_iters`` must be an integer >= 1 and ``normalization`` a finite
    number in (0, 1]; it is applied in float32.
    """
    if not (is_integer(max_iters) and max_iters >= 1):
        raise ConfigError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    if not (is_finite_real(normalization) and 0.0 < normalization <= 1.0):
        raise ConfigError(f"normalization must be a finite number in (0, 1], got {normalization!r}")
    llrs = np.asarray(llrs)
    if llrs.ndim == 0 or llrs.shape[-1] != code.n:
        raise ConfigError(f"expected {code.n} LLRs per block, got shape {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ConfigError("LLRs must be finite")
    lead = llrs.shape[:-1]
    flat = llrs.reshape(-1, code.n)
    batch = flat.shape[0]
    m, k = code.m, code.k

    # Channel values [n, B], positive favouring bit 0.
    with np.errstate(over="ignore"):
        l0 = np.array(flat.T, dtype=np.float32, order="C")
    if not np.all(np.isfinite(l0)):
        raise ConfigError("LLRs must fit in float32")
    np.negative(l0, out=l0)
    check_vars = code.row_vars.T.reshape(-1)  # slot j of check c at j * m + c
    e0, e1, e2 = code.var_slot_edges
    norm = np.float32(normalization)

    info = np.zeros((batch, k), dtype=np.uint8)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    q = np.take(l0, check_vars, axis=0)  # variable-to-check messages [6m, B]
    for it in range(max_iters):
        if active.size == 0:
            break
        r = _check_update(q.reshape(ROW_WEIGHT, m, active.size), norm)
        post = np.take(r, e0, axis=0)
        post += np.take(r, e1, axis=0)
        post += np.take(r, e2, axis=0)
        np.add(l0, post, out=post)
        # Posteriors gathered per check serve both the syndrome and the
        # next variable-to-check messages.
        q = np.take(post, check_vars, axis=0)
        neg = (q < 0).reshape(ROW_WEIGHT, m, -1)
        unsat = neg[0] ^ neg[1]
        for j in range(2, ROW_WEIGHT):
            unsat ^= neg[j]
        ok = ~unsat.any(axis=0)
        if ok.any():
            ok[ok] = post[:, ok].any(axis=0)
        last = it == max_iters - 1
        if last or ok.any():
            out = np.ones_like(ok) if last else ok
            info[active[out]] = (post[:k, out] < 0).T
            converged[active[ok]] = True
            if last:
                break
            keep = ~ok
            active = active[keep]
            l0, q, r = l0[:, keep], q[:, keep], r[:, keep]
        np.subtract(q, r, out=q)

    return info.reshape(lead + (k,)), converged.reshape(lead)


def _check_update(q: np.ndarray, norm: np.float32) -> np.ndarray:
    """Check-to-variable messages ``[6m, B]`` from messages ``q`` ``[6, m, B]``.

    Edge ``j`` gets ``norm`` times the minimum magnitude over the other
    five edges of its check, ``min(prefix_{j-1}, suffix_{j+1})``, with the
    product of their signs: the check's sign-bit parity XOR the edge's own
    sign bit.  A message of -0.0 counts as negative here and as positive in
    the flooding decoder; that flips only messages whose magnitude is 0,
    since the minimum over the other edges then includes it, and the sign
    of a zero changes no posterior's value or comparison.
    """
    a = np.abs(q)
    r = np.empty_like(a)
    p1 = np.minimum(a[0], a[1])
    p2 = np.minimum(p1, a[2])
    p3 = np.minimum(p2, a[3])
    s4 = np.minimum(a[4], a[5])
    s3 = np.minimum(a[3], s4)
    s2 = np.minimum(a[2], s3)
    np.minimum(a[1], s2, out=r[0])
    np.minimum(a[0], s2, out=r[1])
    np.minimum(p1, s3, out=r[2])
    np.minimum(p2, s4, out=r[3])
    np.minimum(p3, a[5], out=r[4])
    np.minimum(p3, a[4], out=r[5])
    r *= norm
    sign = q.view(np.uint32) & _SIGN_BIT
    parity = sign[0] ^ sign[1]
    for j in range(2, ROW_WEIGHT):
        parity ^= sign[j]
    sign ^= parity
    bits = r.view(np.uint32)
    bits |= sign
    return r.reshape(-1, q.shape[-1])
