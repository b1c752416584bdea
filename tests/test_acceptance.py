"""End-to-end acceptance run: one test and one summary line per criterion.

Each test records a pass/fail line through ``record_criterion`` (printed in
the terminal summary) and then asserts, so a failure still leaves the full
scoreboard visible.
"""

import math
import time

import numpy as np

from entro import (
    GOLDEN_ALPHA,
    MetricSpec,
    PointCloud,
    akm_cover_demo,
    bd_count_table,
    coded_entropy,
    counts_from_matrix,
    dense_subsample,
    distance_matrix,
    inverse_transport_check,
    lift_orbit,
    metric_comparison_check,
    semiconj_check,
    shift_system,
    subsample_count_check,
    word_complexity,
)
from entro.gallery import build_doubling

from conftest import record_criterion

INVERTIBLE = (
    "crumple2-forward",
    "crumple2-inverse",
    "crumple3-forward",
    "crumple3-inverse",
    "escape2",
    "escape3",
    "interval-homeo",
)


def random_cloud_and_spec(rng, index: int):
    kind = index % 3
    size = int(rng.integers(4, 25))
    if kind == 0:
        d = int(rng.integers(1, 4))
        spec = MetricSpec.euclidean()
        pts = rng.normal(size=(size, d))
    elif kind == 1:
        arity = int(rng.integers(2, 5))
        block = int(rng.integers(1, 3))
        spec = MetricSpec.max_product(arity)
        pts = rng.normal(size=(size, arity * block))
    else:
        trunc = int(rng.integers(2, 6))
        block = int(rng.integers(1, 3))
        spec = MetricSpec.sequence_rho(2.0, trunc)
        pts = rng.normal(size=(size, trunc * block))
    return PointCloud(pts, 0.1, f"random{index}"), spec


def test_c1_sandwich_counts(rng):
    """Exact counts obey span(eps) <= sep(eps) <= span(eps/2) on every cloud."""
    start = time.monotonic()
    clouds = 200
    violations = 0
    for i in range(clouds):
        cloud, spec = random_cloud_and_spec(rng, i)
        dmat = distance_matrix(cloud.points, cloud.points, spec)
        positive = dmat[dmat > 0]
        eps = 0.8 * float(np.median(positive))
        sep, span = counts_from_matrix(dmat, eps)
        _, span_half = counts_from_matrix(dmat, eps / 2.0)
        if not len(span) <= len(sep) <= len(span_half):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    record_criterion(
        "1 count sandwich",
        ok,
        f"{clouds} clouds x 3 metric kinds, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_c2_doubling_baseline(suite_results, log2):
    res = suite_results["doubling"]
    err = abs(res.bd.headline - log2)
    ok = err <= 0.15 and res.elapsed < 120.0
    record_criterion(
        "2 doubling baseline",
        ok,
        f"bd={res.bd.headline:.4f} vs log2={log2:.4f} (err {err:.4f}), "
        f"{res.elapsed:.0f}s",
    )
    assert err <= 0.15
    assert res.elapsed < 120.0


def test_c3_crumple_directions(suite_results):
    details = []
    ok = True
    for N in (2, 3):
        target = math.log(N)
        fwd = suite_results[f"crumple{N}-forward"]
        inv = suite_results[f"crumple{N}-inverse"]
        checks = [
            abs(fwd.bd.headline - target) <= 0.15,
            abs(fwd.bc.headline - target) <= 0.15,
            abs(inv.bd.headline - target) <= 0.15,
            inv.bc.headline < 0.15,
        ]
        elapsed = fwd.elapsed + inv.elapsed
        checks.append(elapsed < 600.0)
        ok = ok and all(checks)
        details.append(
            f"N={N}: fwd bd {fwd.bd.headline:.3f} bc {fwd.bc.headline:.3f},"
            f" inv bd {inv.bd.headline:.3f} bc {inv.bc.headline:.3f},"
            f" {elapsed:.0f}s"
        )
    record_criterion("3 crumple directions", ok, "; ".join(details))
    assert ok


def test_c4_annulus_trio(suite_results, log2):
    disc = suite_results["annulus-disc"]
    inverted = suite_results["annulus-inverted"]
    sphere = suite_results["annulus-sphere"]
    elapsed = disc.elapsed + inverted.elapsed + sphere.elapsed
    checks = [
        abs(disc.bd.headline - log2) <= 0.15,
        disc.bc.headline < 0.15,
        abs(inverted.bc.headline - log2) <= 0.15,
        sphere.bd.headline < 0.15,
        elapsed < 600.0,
    ]
    record_criterion(
        "4 annulus trio",
        all(checks),
        f"disc bd {disc.bd.headline:.3f} bc {disc.bc.headline:.3f},"
        f" inverted bc {inverted.bc.headline:.3f},"
        f" sphere bd {sphere.bd.headline:.3f}, {elapsed:.0f}s",
    )
    assert all(checks)


def test_c5_escape_exact_counts(suite_results):
    """At scale 1 the counts are the word counts: N^n with no tolerance."""
    bad = []
    for N in (2, 3):
        bundle = suite_results[f"escape{N}"].bundle
        table = bd_count_table(
            bundle.system, bundle.cloud, bundle.metric, [1.0], 6
        )
        for n, count in table.counts_for(1.0, "sep"):
            if count != N**n:
                bad.append((N, n, count))
        for n in range(1, 6):
            rec = akm_cover_demo(N, n, 6)
            if rec.entropy != n * math.log(N) or rec.has_proper_subcover:
                bad.append((N, n, "cover"))
    record_criterion(
        "5 escape exact counts",
        not bad,
        "sep(1, n) = N^n for n <= 6 and cover entropy n*log N for n <= 5"
        + (f"; failures {bad}" if bad else ""),
    )
    assert not bad


def test_c6_three_definitions_agree(suite_results):
    failing = [
        name for name, res in suite_results.items() if not res.verdict.passed
    ]
    detail = "; ".join(
        f"{name}: bd {res.bd.headline:.3f} bc {res.bc.headline:.3f}"
        f" fr {res.fr.headline:.3f}"
        for name, res in suite_results.items()
    )
    record_criterion(
        "6 cross-definition suite",
        not failing,
        f"{len(suite_results) - len(failing)}/{len(suite_results)} bundles"
        + (f"; failing {failing}" if failing else "")
        + f" [{detail}]",
    )
    assert not failing


def test_c7_comparison_lemmas(suite_results, rng):
    # (a) two-sided metric comparison on every gallery system
    mc_bad = []
    for name, res in suite_results.items():
        bundle = res.bundle
        eps = bundle.eps_list[len(bundle.eps_list) // 2]
        report = metric_comparison_check(
            bundle.system,
            bundle.cloud,
            rho=bundle.rho,
            eps=eps,
            sample_pairs=500,
            seed=11,
        )
        if not report.passed:
            mc_bad.append(name)

    # (b) factor-count domination: block projection and a 2-to-1 collapse
    doubling = build_doubling(grid=256)
    theta = np.arange(16) * (2.0 * math.pi / 16)
    ring = PointCloud(
        np.column_stack([np.cos(theta), np.sin(theta)]), 0.4, "ring16"
    )
    lifted = lift_orbit(doubling.system, ring, 4)
    projection = semiconj_check(
        shift_system(doubling.system, 4),
        doubling.system,
        lambda v: v[:, :2],
        lifted,
        eps_down=0.4,
        n=5,
    )
    collapse = semiconj_check(
        doubling.system,
        doubling.system,
        doubling.system.step,
        ring,
        eps_down=0.4,
        n=5,
        delta_up=0.2,
        modulus=lambda t: 2.0 * t,
    )
    semi_ok = projection.passed and collapse.passed

    # (c) count transfer under subsampling, 100 independent draws; the
    # subsample is seed-deterministic, so the scale can be sized to its
    # covering radius before the check runs
    sub_bad = 0
    euclid = MetricSpec.euclidean()
    base = build_doubling(grid=4096).cloud
    for draw in range(100):
        idx = np.sort(rng.choice(base.size, size=24, replace=False))
        small = base.subset(idx, f"sub{draw}")
        kept = dense_subsample(small, 0.7, seed=draw)
        radius = float(
            distance_matrix(small.points, kept.points, euclid).min(axis=1).max()
        )
        eps = max(0.4, 4.0 * radius + 1e-6)
        report = subsample_count_check(small, euclid, eps, 0.7, seed=draw)
        if not report.passed:
            sub_bad += 1

    ok = not mc_bad and semi_ok and sub_bad == 0
    record_criterion(
        "7 comparison lemmas",
        ok,
        f"metric comparison 500 pairs x {len(suite_results)} systems"
        + (f" (bad: {mc_bad})" if mc_bad else "")
        + f"; factor counts {'ok' if semi_ok else 'FAIL'};"
        f" subsample draws 100, {sub_bad} violations",
    )
    assert ok


def test_c8_inverse_transport(suite_results):
    bad = []
    details = []
    for name in INVERTIBLE:
        bundle = suite_results[name].bundle
        eps = bundle.eps_list[len(bundle.eps_list) // 2]
        verdict = inverse_transport_check(
            bundle.system, bundle.cloud, bundle.metric, eps=eps, n=4
        )
        details.append(f"{name}: witness {verdict.witness_size}")
        if not verdict.passed:
            bad.append(name)
    record_criterion(
        "8 inverse transport",
        not bad,
        f"{len(INVERTIBLE) - len(bad)}/{len(INVERTIBLE)} systems exact"
        + (f"; failing {bad}" if bad else ""),
    )
    assert not bad


def test_c9_coding_complexity():
    start = time.monotonic()
    wc = word_complexity(GOLDEN_ALPHA, 20, 100_000)
    linear = wc.counts == tuple(L + 1 for L in range(1, 21))
    entropy = coded_entropy(GOLDEN_ALPHA)
    elapsed = time.monotonic() - start
    ok = linear and entropy < 0.02 and elapsed < 60.0
    record_criterion(
        "9 coded complexity",
        ok,
        f"p(L) = L+1 for L <= 20 over 1e5 symbols: {linear};"
        f" coded entropy {entropy:.4f} < 0.02, {elapsed:.1f}s",
    )
    assert linear
    assert entropy < 0.02
    assert elapsed < 60.0
