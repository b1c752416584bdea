"""Command line front end.

Subcommands:

* ``estimate <config.json>``: run the requested estimators on a gallery
  system; write a combined counts CSV, per-method estimate CSVs (that
  method's rows of the counts CSV), and a plain-text report.  The config
  may be one object or an array of them.
* ``gallery <name> [flags]``: same pipeline, configured from flags.  Flags
  pass through the same validation as a config file.
* ``verify <config.json>``: run the consistency checks (subsample counts,
  orbit-metric comparison, factor counts, inverse transport) plus the
  three-estimator comparison; exit 3 if any verdict fails.
* ``coding --alpha p/q --lmax L``: factor-count table for the coded
  interval exchange.

``estimate``, ``gallery`` and ``verify`` all run the estimators through
``gallery.run_bundle`` and render its record, so they report the same
numbers for the same system and settings.

Exit codes: 0 success, 1 bad configuration or command line, 2 runtime or
io failure, 3 a verdict line reported a failure.  All outputs are
deterministic for a fixed config, and files are written atomically
(tmp + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .coding import coded_entropy, symbol_frequency, word_complexity
from .dynamics import inverse_transport_check
from .errors import ConfigError, EntroError, MeshError
from .estimators import EntropyEstimate, counts_csv_text
from .gallery import ALL_METHODS, GalleryBundle, build_bundle, run_bundle
from .metric_core import (
    EXACT_CAP,
    CountTable,
    dense_subsample,
    subsample_count_check,
)
from .orbit_space import lift_orbit, metric_comparison_check, semiconj_check, shift_system

_METHOD_ALIASES = {
    "bd": "bowen_dinaburg",
    "bowen_dinaburg": "bowen_dinaburg",
    "bowen-dinaburg": "bowen_dinaburg",
    "compacta": "compacta",
    "friedland": "friedland",
}


@dataclass
class RunConfig:
    """One estimation run, as read from a config file or CLI flags."""

    system: str
    params: dict = field(default_factory=dict)
    eps_list: tuple[float, ...] | None = None
    n_max: int | None = None
    rho: float | None = None
    methods: tuple[str, ...] = ALL_METHODS
    allow_coarse_mesh: bool = False
    out_dir: str | None = None
    label: str | None = None

    @classmethod
    def from_dict(cls, raw: object, where: str = "") -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config: {where}expected an object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"config: {where}unknown keys {sorted(unknown)}")
        if "system" not in raw or not isinstance(raw["system"], str):
            raise ConfigError(f"config: {where}system name is required")
        eps_list = None
        if raw.get("eps_list") is not None:
            eps_list = _validate_eps(raw["eps_list"], where)
        n_max = raw.get("n_max")
        if n_max is not None and (
            not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1
        ):
            raise ConfigError(f"config: {where}n_max must be a positive integer")
        rho = raw.get("rho")
        if rho is not None:
            if not _is_number(rho) or not 1 < rho < math.inf:
                raise ConfigError(f"config: {where}rho must be a finite number > 1")
            rho = float(rho)
        methods = _validate_methods(raw.get("methods"), where)
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError(f"config: {where}params must be an object")
        allow_coarse_mesh = raw.get("allow_coarse_mesh", False)
        if not isinstance(allow_coarse_mesh, bool):
            raise ConfigError(f"config: {where}allow_coarse_mesh must be true or false")
        for key in ("out_dir", "label"):
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise ConfigError(f"config: {where}{key} must be a string")
        return cls(
            system=raw["system"],
            params=params,
            eps_list=eps_list,
            n_max=n_max,
            rho=rho,
            methods=methods,
            allow_coarse_mesh=allow_coarse_mesh,
            out_dir=raw.get("out_dir"),
            label=raw.get("label"),
        )


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_eps(value: object, where: str = "") -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config: {where}eps_list must be a list")
    eps = []
    for v in value:
        if not _is_number(v) or not 0 < v < math.inf:
            raise ConfigError(f"config: {where}eps_list entries must be finite positive numbers")
        eps.append(float(v))
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"config: {where}eps_list must be strictly decreasing")
    return tuple(eps)


def _validate_methods(value: object, where: str = "") -> tuple[str, ...]:
    if value is None:
        return ALL_METHODS
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config: {where}methods must be a non-empty list")
    out = []
    for m in value:
        key = str(m).lower()
        if key not in _METHOD_ALIASES:
            raise ConfigError(f"config: {where}unknown method {m!r}")
        name = _METHOD_ALIASES[key]
        if name not in out:
            out.append(name)
    if "bowen_dinaburg" not in out:
        raise ConfigError(f"config: {where}methods must include bowen_dinaburg")
    return tuple(out)


def _load_configs(path: Path) -> list[RunConfig]:
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config: {path}: no such file") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path}: invalid JSON ({exc})") from None
    if isinstance(raw, list):
        return [RunConfig.from_dict(d, where=f"entry {i}: ") for i, d in enumerate(raw)]
    return [RunConfig.from_dict(raw)]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _checked_bundle(cfg: RunConfig) -> GalleryBundle:
    """The configured bundle with the run's settings, after the mesh guard."""
    bundle = build_bundle(cfg.system, **cfg.params).with_settings(
        cfg.eps_list, cfg.n_max, cfg.rho
    )
    eps_list = bundle.eps_list
    if cfg.allow_coarse_mesh or bundle.mesh_exempt or not eps_list:
        return bundle
    limit = min(eps_list) / 4.0
    if bundle.cloud.mesh > limit + 1e-12:
        raise MeshError(
            f"mesh: cloud mesh {bundle.cloud.mesh:g} exceeds min(eps)/4 = {limit:g};"
            " set allow_coarse_mesh to run anyway"
        )
    return bundle


@dataclass
class RunResult:
    report: str
    verdict_passed: bool | None


def _estimate_block(name: str, est: EntropyEstimate, extra: str = "") -> list[str]:
    lines = [
        f"{name:<15} {est.headline:.6f} nats  {est.headline_log2:.6f} log2{extra}"
    ]
    for pe in est.per_eps:
        sat = "  saturated" if pe.saturated else ""
        lines.append(
            f"    eps={pe.epsilon:g}: rate {pe.rate:.6f}, window"
            f" {pe.window[0]}..{pe.window[1]}{sat}"
        )
    for note in est.diagnostics:
        lines.append(f"    note: {note}")
    return lines


def run_single(cfg: RunConfig) -> RunResult:
    bundle = _checked_bundle(cfg)
    lines = [f"== {bundle.name} =="]
    lines.append(
        f"cloud: {bundle.cloud.size} points, mesh {bundle.cloud.mesh:g},"
        f" metric {bundle.metric.describe()}"
    )
    if not bundle.eps_list:
        lines.append("no scales requested; counts CSV is header-only")
        report = "\n".join(lines) + "\n"
        _write_outputs(cfg, bundle, [], report)
        return RunResult(report, None)

    lines.append(
        "scales: " + " ".join(f"{e:g}" for e in bundle.eps_list)
        + f"   orders: 1..{bundle.n_max}"
    )
    run = run_bundle(bundle, methods=cfg.methods)
    tables = [(bundle.metric.describe(), run.bd_table, run.bd)]
    lines.extend(_estimate_block("bowen-dinaburg", run.bd))
    if run.bc is not None:
        lines.extend(
            _estimate_block("compacta", run.bc, f"  ({len(bundle.family.members)} members)")
        )
    if run.fr is not None:
        tables.append((f"dhat(rho={bundle.rho:g})", run.fr_table, run.fr))
        lines.extend(_estimate_block("friedland", run.fr, f"  (rho={bundle.rho:g})"))
    if run.verdict is not None:
        lines.append(run.verdict.line())
    if bundle.target is not None:
        lines.append(f"target: {bundle.target:.6f} nats")

    report = "\n".join(lines) + "\n"
    _write_outputs(cfg, bundle, tables, report)
    return RunResult(report, run.verdict.passed if run.verdict is not None else None)


def _write_outputs(
    cfg: RunConfig,
    bundle: GalleryBundle,
    tables: list[tuple[str, CountTable, EntropyEstimate]],
    report: str,
) -> None:
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    prefix = cfg.label or bundle.name
    _atomic_write(out / f"{prefix}_counts.csv", counts_csv_text(bundle.name, tables))
    _atomic_write(out / f"{prefix}_report.txt", report)
    for metric_name, table, est in tables:
        kind = "friedland" if est.method == "friedland" else "bd"
        text = counts_csv_text(bundle.name, [(metric_name, table, est)])
        _atomic_write(out / f"{prefix}_{kind}_estimate.csv", text)


def cmd_estimate(args: argparse.Namespace) -> int:
    failed = False
    for cfg in _load_configs(Path(args.config)):
        result = run_single(cfg)
        # printed as each entry finishes, so a later failing entry keeps it
        print(result.report.rstrip("\n"), flush=True)
        failed = failed or result.verdict_passed is False
    return 3 if failed else 0


def cmd_gallery(args: argparse.Namespace) -> int:
    params = {}
    for key in ("N", "depth", "L_max", "orbit_len", "grid", "direction", "variant", "mesh"):
        v = getattr(args, key.lower(), None)
        if v is not None:
            params[key] = v
    raw = {
        "system": args.name,
        "params": params,
        "n_max": args.n_max,
        "rho": args.rho,
        "allow_coarse_mesh": args.allow_coarse_mesh,
        "out_dir": args.out_dir,
        "label": args.label,
    }
    if args.eps:
        try:
            raw["eps_list"] = [float(t) for t in args.eps.split(",")]
        except ValueError:
            raise ConfigError(f"config: --eps {args.eps!r} is not a list of numbers") from None
    if args.methods:
        raw["methods"] = args.methods.split(",")
    result = run_single(RunConfig.from_dict(raw))
    print(result.report.rstrip("\n"))
    return 3 if result.verdict_passed is False else 0


def _verify_bundle(cfg: RunConfig, pairs: int, seed: int) -> tuple[str, bool]:
    bundle = _checked_bundle(cfg)
    eps_list, n_max, rho = bundle.eps_list, bundle.n_max, bundle.rho
    if not eps_list:
        raise ConfigError("config: eps_list must be non-empty for verify")
    mid_eps = eps_list[len(eps_list) // 2]
    rng = np.random.default_rng(seed)
    flags: list[bool] = []
    lines = [f"== verify {bundle.name} =="]

    # exact count inequalities under subsampling, on a small random sub-cloud
    k = min(EXACT_CAP, bundle.cloud.size)
    idx = np.sort(rng.choice(bundle.cloud.size, size=k, replace=False))
    sub = bundle.cloud.subset(idx, f"{bundle.name}|verify{k}")
    kept = dense_subsample(sub, 0.7, seed=seed)
    eps0 = max(mid_eps, 4.0 * (kept.mesh - sub.mesh) + 1e-6)
    rep = subsample_count_check(sub, kept, bundle.metric, eps0)
    flags.append(rep.passed)
    lines.append(
        f"subsample-counts: {'pass' if rep.passed else 'FAIL'}"
        f" [eps={rep.eps:g}, sep {rep.sep_parent}->{rep.sep_sub},"
        f" span {rep.span_parent}->{rep.span_sub}]"
    )

    # orbit-sequence metric versus the order-n running maximum
    mc = metric_comparison_check(
        bundle.system, bundle.cloud, rho=rho, eps=mid_eps, sample_pairs=pairs, seed=seed
    )
    flags.append(mc.passed)
    lines.append(mc.line())

    # factor counts through the block projection from the shift on 2-block lifts
    k2 = min(20, bundle.cloud.size)
    idx2 = np.sort(rng.choice(bundle.cloud.size, size=k2, replace=False))
    sub2 = bundle.cloud.subset(idx2, f"{bundle.name}|factor{k2}")
    dim = bundle.system.dim
    semi = semiconj_check(
        shift_system(bundle.system, 2),
        bundle.system,
        lambda v: v[:, :dim],
        lift_orbit(bundle.system, sub2, 2),
        eps_down=mid_eps,
        n=min(4, n_max),
        down_spec=bundle.metric,
    )
    flags.append(semi.passed)
    lines.append(semi.line())

    # separated witnesses ride backward through the inverse
    if bundle.system.invertible:
        tv = inverse_transport_check(
            bundle.system, bundle.cloud, bundle.metric, eps=mid_eps, n=min(4, n_max)
        )
        flags.append(tv.passed)
        lines.append(tv.line())
    else:
        lines.append("inverse-transport: skipped (system not invertible)")

    # the three estimators against each other
    run = run_bundle(bundle)
    flags.append(run.verdict.passed)
    lines.append(
        f"estimates: bd={run.bd.headline:.4f} compacta={run.bc.headline:.4f}"
        f" friedland={run.fr.headline:.4f} (nats)"
    )
    lines.append(run.verdict.line())
    return "\n".join(lines) + "\n", all(flags)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError("config: --seed must be >= 0")
    all_ok = True
    for cfg in _load_configs(Path(args.config)):
        text, ok = _verify_bundle(cfg, pairs=args.pairs, seed=args.seed)
        # printed as each entry finishes, so a later failing entry keeps it
        print(text.rstrip("\n"), flush=True)
        all_ok = all_ok and ok
    return 0 if all_ok else 3


def _parse_alpha(text: str):
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            value = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"config: alpha {text!r} is not a valid fraction") from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"config: alpha {text!r} is not a number") from None
    if not 0 < value < 1:
        raise ConfigError("config: alpha must lie in (0, 1)")
    return value


def cmd_coding(args: argparse.Namespace) -> int:
    alpha = _parse_alpha(args.alpha)
    orbit_len = max(10 * args.lmax, 20_000) if args.orbit_len is None else args.orbit_len
    wc = word_complexity(alpha, args.lmax, orbit_len)
    lines = [f"alpha = {alpha}   orbit length {wc.orbit_len}, guard hits {wc.guard_hits}"]
    for L in range(1, args.lmax + 1):
        lines.append(f"p({L}) = {wc.of(L)}")
    ent = coded_entropy(alpha, L_max=max(args.lmax, 40))
    freq = symbol_frequency(alpha)
    lines.append(f"coded entropy rate: {ent:.6f} nats ({ent / math.log(2):.6f} log2)")
    lines.append(f"symbol-0 frequency: {freq:.6f} (cut at {float(alpha):.6f})")
    print("\n".join(lines))
    if args.out:
        rows = ["L,p"] + [f"{L},{wc.of(L)}" for L in range(1, args.lmax + 1)]
        _atomic_write(Path(args.out), "\n".join(rows) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code for bad input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entro",
        description="entropy estimates for maps of totally bounded metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run estimators from a JSON config")
    est.add_argument("config", help="config file: one object or an array")
    est.set_defaults(func=cmd_estimate)

    gal = sub.add_parser("gallery", help="run estimators on a named example")
    gal.add_argument("name", help="doubling | crumple | escape | annulus | interval-homeo")
    gal.add_argument("--n", type=int, default=None, help="branching factor N")
    gal.add_argument("--direction", choices=("forward", "inverse"), default=None)
    gal.add_argument("--depth", type=int, default=None, help="largest lap index")
    gal.add_argument("--mesh", type=float, default=None)
    gal.add_argument("--variant", choices=("disc", "inverted", "sphere"), default=None)
    gal.add_argument("--l-max", dest="l_max", type=int, default=None)
    gal.add_argument("--orbit-len", dest="orbit_len", type=int, default=None)
    gal.add_argument("--grid", type=int, default=None)
    gal.add_argument("--eps", default=None, help="comma-separated decreasing scales")
    gal.add_argument("--n-max", dest="n_max", type=int, default=None)
    gal.add_argument("--rho", type=float, default=None)
    gal.add_argument("--methods", default=None, help="comma list: bd,compacta,friedland")
    gal.add_argument("--allow-coarse-mesh", action="store_true")
    gal.add_argument("--out-dir", default=None)
    gal.add_argument("--label", default=None)
    gal.set_defaults(func=cmd_gallery)

    ver = sub.add_parser("verify", help="run consistency checks from a JSON config")
    ver.add_argument("config")
    ver.add_argument("--pairs", type=int, default=500)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    cod = sub.add_parser("coding", help="factor counts of the coded interval exchange")
    cod.add_argument("--alpha", required=True, help="cut point, e.g. 832040/1346269")
    cod.add_argument("--lmax", type=int, default=20)
    cod.add_argument("--orbit-len", dest="orbit_len", type=int, default=None)
    cod.add_argument("--out", default=None, help="write a L,p CSV here")
    cod.set_defaults(func=cmd_coding)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EntroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
