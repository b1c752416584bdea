#!/usr/bin/env python3
"""Print one digest line per default gallery bundle, for diffing two checkouts.

Each line holds the bundle name, its cloud size N, the direct, compacta and
lifted headlines as ``repr``, the verdict line, and a sha256 of the repr of
the run's count tables, estimates and verdict.  The bundle itself (it holds
functions) and the timings are left out, so two checkouts that count alike
print the same lines:

    PYTHONPATH=src python3 scripts/bundle_digest.py > digest.txt

``--only NAME`` restricts the run to one bundle.
"""

import argparse
import hashlib
import sys

from entro.gallery import default_suite, run_bundle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="digest just this bundle name")
    args = parser.parse_args()

    bundles = [b for b in default_suite() if args.only is None or b.name == args.only]
    if not bundles:
        names = ", ".join(b.name for b in default_suite())
        print(f"no bundle named {args.only!r}; choose from {names}", file=sys.stderr)
        return 1
    for bundle in bundles:
        run = run_bundle(bundle)
        record = repr((run.bd_table, run.fr_table, run.bd, run.bc, run.fr, run.verdict))
        digest = hashlib.sha256(record.encode()).hexdigest()
        print(
            f"{bundle.name} N={bundle.cloud.size} bd={run.bd.headline!r}"
            f" bc={run.bc.headline!r} fr={run.fr.headline!r}"
            f" [{run.verdict.line()}] sha256={digest}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
