"""How much target data does adaptation need?  Sweep the alpha budget.

alpha is the fraction of the source sample budget the target domain gets.
A sweep at several alphas answers "how little can we get away with": each
adaptation runs round(alpha x iterations) steps, and every variant is
evaluated to its own BLER curve.  This demo sweeps one technique; list
more in ``techniques`` and keep the benchmarks to get the paper's whole
techniques x alpha grid in one directory.  The sweep directory is
self-describing — run logs prove the spent budget, the manifest echoes
the full config and names every file, and rerunning the same config
reproduces every file byte for byte.

Run:  python3 demos/04_alpha_budget_sweep.py [--out runs/demo_alpha]
"""

import argparse
import os

from simorx.harness.results import read_curve_csv, read_manifest
from simorx.harness.sweep import SweepConfig, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", default="0.05,0.35,1.0")
    parser.add_argument("--iterations", type=int, default=200,
                        help="source-scale budget that alpha divides")
    parser.add_argument("--profile", default="cdl_d_like")
    parser.add_argument("--out", default="runs/demo_alpha")
    args = parser.parse_args()

    alphas = tuple(float(a) for a in args.alphas.split(","))
    cfg = SweepConfig(
        scale="desk",
        source_profile=args.profile,
        target_modulation="16qam",
        target_profile=args.profile,
        techniques=("fine_tuning",),   # one technique across the alphas,
        benchmarks=(),                 # without the bracketing benchmarks
        alphas=alphas,
        iterations=args.iterations,
        ebno_grid_db=(4.0, 6.0, 8.0),
        eval_max_blocks=64,
    )
    print(f"sweeping alpha over {alphas} (base budget {args.iterations} iterations)")
    print("this trains one source, then one adaptation per alpha; a minute or two...\n")
    result = sweep(cfg, args.out)

    print("=== spent budgets, straight from the run logs ===")
    print(f"  {'alpha':>6} {'steps':>6} {'log file':<40}")
    for path in sorted(result.log_paths):
        name = os.path.basename(path)
        if name == "source_log.csv":
            continue
        with open(path) as fh:
            steps = len(fh.read().splitlines()) - 1  # header row
        alpha = name.split("_a")[1].split("_s")[0]
        print(f"  {alpha:>6} {steps:>6} {name:<40}")

    print("\n=== one BLER curve per alpha ===")
    for path in sorted(result.curve_paths):
        curve = read_curve_csv(path)
        blers = " ".join(f"{p.bler:.3f}@{p.ebno_db:g}dB" for p in curve.points)
        print(f"  alpha {curve.alpha:>5}: {blers}")

    manifest = read_manifest(result.manifest_path)
    print(f"\nmanifest: {result.manifest_path}")
    print(f"  package {manifest['package_version']}, "
          f"{len(manifest['files'])} files, profiles checksummed: "
          f"{', '.join(manifest['profiles'])}")
    print("feed SweepConfig.from_dict(manifest['config']) back into sweep() "
          "to reproduce the run exactly")


if __name__ == "__main__":
    main()
