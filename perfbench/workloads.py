"""The benchmark's workloads: set-up, the operations of one pass, and the
values each operation's output is checked on.

Every workload is a closed loop with one client: each operation starts only
after the previous one has returned, in one process and one thread.

* ``doubling``: the README library calls on ``build_doubling()`` (N = 4096).
  Its compact family nests into the full cloud (1024/2048/4096 points), so
  compacta is about a third of the pass; orbit stepping is vectorised.
* ``annulus-disc``: the same calls on ``build_annulus("disc")`` (N = 7032),
  the largest default cloud and the highest peak memory.  Its compact
  members are separate clouds of at most 1066 points, so compacta is about
  2% of the pass: a compacta change must show no change here.
* ``cli-quickstart``: four README quick-start commands through
  ``entro.cli.main`` in a temporary working directory.  Small clouds, scalar
  Python steps and exact counts in ``verify``; the only workload that
  reaches the ``cli`` and ``coding`` layers.

Only ``verify --seed`` takes a random input; the estimation workloads are
deterministic, so the same seed always gives the same inputs.

Run as a script (``python3 perfbench/workloads.py NAME``) it performs the
set-up of one workload in this fresh process and prints its seconds.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("doubling", "annulus-disc", "cli-quickstart")

# gallery.build_bundle arguments; these are the default gallery parameters
# that the README table reports.
_BUNDLES = {
    "doubling": ("doubling", {}),
    "annulus-disc": ("annulus", {"variant": "disc"}),
}

# A float output may drift by this much from the reference (the README table
# gate); everything else must match exactly.
FLOAT_TOL = 1e-9


def import_package(name: str) -> None:
    """First half of set-up: import the package (and the CLI where used)."""
    importlib.import_module("entro")
    if name == "cli-quickstart":
        importlib.import_module("entro.cli")


def build(name: str):
    """Second half of set-up: the workload's bundle, or None for the CLI."""
    if name not in _BUNDLES:
        return None
    entro = sys.modules["entro"]
    system, params = _BUNDLES[name]
    return entro.build_bundle(system, **params)


def operations(name: str, bundle, seed: int) -> list[tuple[str, object, object]]:
    """``(op name, call, extract)`` triples for one pass, in order.

    ``call()`` does the timed work and returns its raw output; ``extract``
    turns that into the plain values compared against the reference, after
    the timing has stopped.
    """
    if name == "cli-quickstart":
        return _cli_operations(seed)
    return _library_operations(bundle)


# ---------------------------------------------------------------------------
# library workloads: the README "Quick start, library" calls


def _estimate_values(est) -> dict:
    return {"headline": est.headline, "rates": [pe.rate for pe in est.per_eps]}


def _library_operations(b) -> list[tuple[str, object, object]]:
    entro = sys.modules["entro"]
    done: dict = {}

    def direct():
        table = entro.bd_count_table(b.system, b.cloud, b.metric, b.eps_list, b.n_max)
        done["bd"] = entro.entropy_estimate(table)
        return done["bd"]

    def compacta():
        done["bc"] = entro.compacta_estimate(
            b.system, b.metric, b.family, b.eps_list, b.n_max
        )
        return done["bc"]

    def lifted():
        fr = entro.friedland_estimate(b.system, b.cloud, b.eps_list, b.n_max, rho=b.rho)
        return fr, entro.inequality_report(done["bd"], done["bc"], fr)

    def lifted_values(raw) -> dict:
        fr, verdict = raw
        return {**_estimate_values(fr), "verdict": [verdict.fr_bd_ok, verdict.bd_bc_ok]}

    return [
        ("direct", direct, _estimate_values),
        ("compacta", compacta, _estimate_values),
        ("lifted", lifted, lifted_values),
    ]


# ---------------------------------------------------------------------------
# CLI workload: README "Quick start, CLI" commands, run in-process

_HEADLINE = re.compile(r"^(bowen-dinaburg|compacta|friedland)\s+(\S+) nats", re.M)
_VERDICT = re.compile(r"FR≈BD: (\w+); BD≥Bc: (\w+)")
_CHECK = re.compile(r"^([a-z-]+)(?:\([^)]*\))?: (pass|FAIL|skipped)\b", re.M)
_ESTIMATES = re.compile(r"^estimates: bd=(\S+) compacta=(\S+) friedland=(\S+)", re.M)
_FACTOR = re.compile(r"^p\((\d+)\) = (\d+)$", re.M)
_CODED = re.compile(r"^coded entropy rate: (\S+) nats", re.M)
_FREQ = re.compile(r"^symbol-0 frequency: (\S+)", re.M)


def _report_values(text: str) -> dict:
    return {
        "headlines": {m[1]: float(m[2]) for m in _HEADLINE.finditer(text)},
        "verdicts": [list(v) for v in _VERDICT.findall(text)],
    }


def _counts_csv_values(path: Path) -> list:
    """(metric, eps, n, sep, span, rate) rows, read by column name so that
    columns added later do not count as differences."""
    with open(path, newline="") as fh:
        return [
            [r["metric"], float(r["epsilon"]), int(r["n"]), int(r["sep"]),
             int(r["span"]), float(r["rate"])]
            for r in csv.DictReader(fh)
        ]


def _estimate_command_values(counts_csv: str):
    def extract(raw) -> dict:
        rc, text = raw
        return {"rc": rc, **_report_values(text), "counts": _counts_csv_values(Path(counts_csv))}

    return extract


def _verify_values(raw) -> dict:
    rc, text = raw
    bundles = {}
    for block in text.split("== verify ")[1:]:
        name, _, body = block.partition(" ==")
        bundles[name] = {
            "checks": {m[1]: m[2] for m in _CHECK.finditer(body)},
            "estimates": [float(v) for m in _ESTIMATES.finditer(body) for v in m.groups()],
            "verdicts": [list(v) for v in _VERDICT.findall(body)],
        }
    return {"rc": rc, "bundles": bundles}


def _coding_values(raw) -> dict:
    rc, text = raw
    return {
        "rc": rc,
        "p": [[int(a), int(b)] for a, b in _FACTOR.findall(text)],
        "coded_entropy": [float(v) for v in _CODED.findall(text)],
        "frequency": [float(v) for v in _FREQ.findall(text)],
    }


def _cli_operations(seed: int) -> list[tuple[str, object, object]]:
    cli = sys.modules["entro.cli"]
    configs = ROOT / "configs"

    def command(argv: list[str]):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
            return rc, out.getvalue()

        return call

    # numpy's default_rng rejects negative seeds; map any integer into [0, 2**32).
    verify_seed = seed % 2**32
    return [
        ("estimate", command(["estimate", str(configs / "doubling.json")]),
         _estimate_command_values("out/doubling/doubling-1024_counts.csv")),
        ("gallery", command(["gallery", "crumple", "--n", "2", "--direction", "inverse",
                             "--out-dir", "out/crumple"]),
         _estimate_command_values("out/crumple/crumple2-inverse_counts.csv")),
        ("verify", command(["verify", str(configs / "verify_quick.json"),
                            "--seed", str(verify_seed)]),
         _verify_values),
        ("coding", command(["coding", "--alpha", "832040/1346269", "--lmax", "20"]),
         _coding_values),
    ]


# ---------------------------------------------------------------------------
# output check


def mismatches(observed, expected, where: str = "") -> list[str]:
    """Differences between observed and reference values, empty when equal."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        if set(observed) != set(expected):
            return [f"{where}: keys {sorted(observed)} != {sorted(expected)}"]
        return [d for k in expected for d in mismatches(observed[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(observed, (list, tuple)):
        if len(observed) != len(expected):
            return [f"{where}: length {len(observed)} != {len(expected)}"]
        return [
            d for i, (o, e) in enumerate(zip(observed, expected))
            for d in mismatches(o, e, f"{where}[{i}]")
        ]
    if isinstance(expected, float) and isinstance(observed, float):
        return [] if abs(observed - expected) <= FLOAT_TOL else [f"{where}: {observed!r} != {expected!r}"]
    return [] if observed == expected and type(observed) is type(expected) else [
        f"{where}: {observed!r} != {expected!r}"
    ]


if __name__ == "__main__":
    start = time.perf_counter()
    import_package(sys.argv[1])
    build(sys.argv[1])
    print(repr(time.perf_counter() - start))
