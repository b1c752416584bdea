#!/usr/bin/env python3
"""Sweep a geometric ladder of scales for one system and show how the
headline rate is chosen.

Prints one row per scale: the fitted growth rate, the window of orbit
lengths the fit used, and whether counts hit the saturation ceiling.
Rows where adjacent scales agree within the stabilization tolerance are
marked; the headline is the rate at the smallest marked scale.

Useful when the default three-scale ladder looks too coarse and you want
to see where the estimate settles (or fails to).
"""

import argparse
import csv
import sys

from entro import bd_count_table, build_bundle, entropy_estimate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("system", help="gallery name, e.g. doubling or crumple")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="builder parameter, repeatable")
    parser.add_argument("--eps-hi", type=float, default=0.8,
                        help="largest scale in the ladder")
    parser.add_argument("--factor", type=float, default=1.6,
                        help="ratio between consecutive scales")
    parser.add_argument("--count", type=int, default=6,
                        help="number of scales (>= 3)")
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--tol", type=float, default=0.05,
                        help="stabilization tolerance between adjacent scales")
    parser.add_argument("--csv", default=None, help="also write rows to this file")
    args = parser.parse_args()

    if args.count < 3 or args.factor <= 1.0 or args.eps_hi <= 0:
        print("need --count >= 3, --factor > 1, --eps-hi > 0", file=sys.stderr)
        return 1

    bundle = build_bundle(args.system, **_parse_params(args.param))
    eps_list = [args.eps_hi / args.factor ** i for i in range(args.count)]
    n_max = args.n_max or bundle.n_max

    table = bd_count_table(bundle.system, bundle.cloud, bundle.metric,
                           eps_list, n_max)
    est = entropy_estimate(table, stabilization_tol=args.tol)

    print(f"{bundle.name}: {bundle.cloud.size} points, orders 1..{n_max}")
    print(f"{'epsilon':>10} {'rate':>8} {'window':>9} {'saturated':>9}  stable-pair")
    stable_eps = {
        est.per_eps[i].epsilon
        for i in range(1, len(est.per_eps))
        if abs(est.per_eps[i].rate - est.per_eps[i - 1].rate) < args.tol
    }
    for row in est.per_eps:
        lo, hi = row.window
        mark = "yes" if row.epsilon in stable_eps else ""
        print(f"{row.epsilon:>10.5f} {row.rate:>8.4f} {lo:>4}..{hi:<4}"
              f" {str(row.saturated):>9}  {mark}")
    print(f"headline: {est.headline:.4f} nats"
          f" ({'stable' if est.stable else 'UNSTABLE'})")
    for note in est.diagnostics:
        print(f"  note: {note}")

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epsilon", "rate", "window_lo", "window_hi",
                             "saturated", "stable_pair"])
            for row in est.per_eps:
                writer.writerow([row.epsilon, row.rate, row.window[0],
                                 row.window[1], row.saturated,
                                 row.epsilon in stable_eps])
    return 0


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"bad --param {pair!r}, expected KEY=VALUE")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


if __name__ == "__main__":
    sys.exit(main())
