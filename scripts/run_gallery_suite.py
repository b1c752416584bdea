#!/usr/bin/env python3
"""Run the three estimators across the whole gallery and print the scoreboard.

For every bundled system this reports the direct orbit-metric estimate, the
compact-exhaustion estimate, the lifted-shift estimate, the wall time, the
process's peak resident memory so far (``ru_maxrss``, in MiB), and the
cross-definition verdict.  The full run takes a couple of minutes; pass
--only to look at one system.  Per-bundle CSV output lives in the CLI:
`entro gallery NAME --out-dir DIR`.
"""

import argparse
import resource
import sys

from entro import inequality_report
from entro.gallery import default_suite, run_bundle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default=None, help="run just this bundle name")
    parser.add_argument("--slack", type=float, default=0.15)
    args = parser.parse_args()

    bundles = [
        b for b in default_suite() if args.only is None or b.name == args.only
    ]
    if not bundles:
        names = ", ".join(b.name for b in default_suite())
        print(f"no bundle named {args.only!r}; choose from {names}", file=sys.stderr)
        return 1

    header = (
        f"{'system':<18} {'direct':>8} {'compacta':>9} {'lifted':>8}"
        f" {'target':>8} {'time':>6} {'peak':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    all_ok = True
    for bundle in bundles:
        run = run_bundle(bundle)
        verdict = inequality_report(run.bd, run.bc, run.fr, slack=args.slack)
        all_ok = all_ok and verdict.passed
        target = f"{bundle.target:.4f}" if bundle.target is not None else "-"
        # ru_maxrss is in KiB on Linux
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{bundle.name:<18} {run.bd.headline:>8.4f} {run.bc.headline:>9.4f}"
            f" {run.fr.headline:>8.4f} {target:>8} {run.elapsed:>5.1f}s"
            f" {peak_mib:>5.0f}MiB  {verdict.line()}"
        )
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
