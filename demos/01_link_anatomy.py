"""Walk one transport block through the whole link, printing each stage.

No training here: the receiver is the genie-aided baseline, which knows the
true channel.  The point is to see every moving part once — coding, Gray
mapping, the pilot/guard layout, block fading, noise scaling — and to watch
the decoder clean up a moderately noisy block.

Run:  python3 demos/01_link_anatomy.py [--ebno-db 4] [--seed 0]
"""

import argparse

import numpy as np

from simorx.chain import code_for_grid, simulate_batch
from simorx.channel.fading import ebno_to_n0
from simorx.channel.profiles import load_profile
from simorx.config import DESK_GRID
from simorx.harness.genie import genie_lmmse_baseline
from simorx.phy.grid import NUM_SYMBOLS, PILOT_SYMBOLS, SCS_KHZ, pilot_values
from simorx.phy.ldpc import decode, syndrome
from simorx.phy.modulation import get_scheme


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ebno-db", type=float, default=4.0)
    parser.add_argument("--profile", default="cdl_d_like")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grid = DESK_GRID
    scheme = get_scheme("qpsk")
    rng = np.random.default_rng(args.seed)

    print("=== the stage ===")
    print(f"grid: {NUM_SYMBOLS} OFDM symbols x {grid.num_subcarriers} subcarriers at {SCS_KHZ} kHz")
    print(f"  guards: {grid.guard_lo} low + {grid.guard_hi} high subcarriers stay silent")
    print(f"  pilots: full symbols at t={PILOT_SYMBOLS} at every scale, known at the receiver")
    print(f"  leaves {grid.num_data_res} data resource elements")
    pil = pilot_values(grid)
    print(f"  pilot magnitude check: |p| = {np.abs(pil).max():.3f} (unit power QPSK)")

    print("\n=== coding and mapping ===")
    code = code_for_grid(grid, scheme, ldpc_seed=1)
    print(f"rate-1/2 LDPC: n={code.n} coded bits <- k={code.k} information bits")
    print(f"  exactly fills the grid: {grid.num_data_res} REs x {scheme.bits_per_symbol} bits")

    n0 = ebno_to_n0(args.ebno_db, scheme.bits_per_symbol, code.rate)
    print(f"\n=== one block at Eb/N0 = {args.ebno_db:g} dB (n0 = {n0:.4f}) ===")
    profile = load_profile(args.profile)
    tb = simulate_batch(grid, scheme, code, profile, n0, batch=1, n_rx=2, rng=rng)

    print(f"tx grid shape {tb.tx_grid.shape}, mean symbol energy "
          f"{np.mean(np.abs(tb.tx_grid[0][grid.data_symbol_index, grid.data_subcarrier_index])**2):.3f}")
    print(f"encoder sanity: syndrome bits set = {int(syndrome(tb.coded_bits, code).sum())} (want 0)")
    print(f"channel: {tb.h.shape[1]} antennas, per-subcarrier response, block fading")
    print(f"rx grid shape {tb.rx.shape} (antenna-major complex)")

    print("\n=== genie receiver ===")
    llrs = genie_lmmse_baseline(tb.rx, tb.h, tb.n0, scheme, grid)
    hard = (llrs > 0).astype(np.uint8)
    pre_ber = float(np.mean(hard != tb.coded_bits))
    print(f"raw hard-decision BER before decoding: {pre_ber:.4f}")

    info_hat, converged = decode(llrs, code)
    bit_errors = int((info_hat != tb.info_bits).sum())
    print(f"after 20 min-sum iterations: {bit_errors} info-bit errors, "
          f"converged={bool(converged[0])}")
    verdict = "clean" if bit_errors == 0 else "in error"
    print(f"the block is {verdict}; rerun with a lower --ebno-db to watch it fail")


if __name__ == "__main__":
    main()
