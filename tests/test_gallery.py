"""Gallery builders checked against closed-form values for each system."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entro import (
    ConfigError,
    MeshError,
    UndefinedPointError,
    akm_cover_demo,
    build_annulus,
    build_bundle,
    build_crumple,
    build_doubling,
    build_escape,
    build_interval_homeo,
    default_suite,
    iterate_orbit,
)
from entro.dynamics import DynSystem, build_orbit_table, pointwise
from entro.gallery import (
    GRID_OFFSET,
    _crumple_heights,
    crumple_height,
    crumple_system,
    interval_of_lap,
    interval_step,
    interval_step_inv,
    lap_endpoint,
    lap_image,
    lap_start_index,
    run_bundle,
    word_concatenation,
)
from entro.orbit_space import _iterate_diameter, choose_truncation


class TestLapBookkeeping:
    def test_start_indices_are_geometric_partial_sums(self):
        for N in (2, 3, 4):
            for j in range(1, 7):
                want = sum(N**i for i in range(j - 1))
                assert lap_start_index(N, j) == want

    def test_interval_lap_counts(self):
        for N in (2, 3):
            for j in range(1, 6):
                width = lap_start_index(N, j + 1) - lap_start_index(N, j)
                assert width == N ** (j - 1)

    def test_interval_of_lap_inverts_start_index(self):
        for N in (2, 3):
            for k in range(0, 50):
                j = interval_of_lap(N, k)
                assert lap_start_index(N, j) <= k < lap_start_index(N, j + 1)

    def test_interval_of_lap_rejects_negative(self):
        with pytest.raises(ConfigError):
            interval_of_lap(2, -1)

    def test_endpoint_prefix_hand_values(self):
        # N=2: lap 0 is all of [1/2, 1]; interval 2 holds laps 1 and 2
        want = [1.0, 0.5, 5.0 / 12.0, 1.0 / 3.0]
        got = [lap_endpoint(2, k) for k in range(4)]
        assert got == pytest.approx(want, abs=1e-15)

    def test_interval_right_end_is_reciprocal(self):
        for N in (2, 3):
            for j in range(1, 7):
                k = lap_start_index(N, j)
                assert lap_endpoint(N, k) == pytest.approx(1.0 / j, abs=1e-15)

    def test_endpoints_decrease_and_fill_each_interval(self):
        for N in (2, 3):
            ends = [lap_endpoint(N, k) for k in range(lap_start_index(N, 5))]
            for a, b in zip(ends, ends[1:]):
                assert a > b
            # exact lap widths: interval j is split into N^(j-1) equal laps
            for j in (2, 3, 4):
                width = Fraction(1, j) - Fraction(1, j + 1)
                lap_w = width / N ** (j - 1)
                k0 = lap_start_index(N, j)
                for i in range(N ** (j - 1)):
                    lo = lap_endpoint(N, k0 + i + 1)
                    hi = lap_endpoint(N, k0 + i)
                    assert hi - lo == pytest.approx(float(lap_w), abs=1e-15)


class TestLapImage:
    def test_endpoints_map_onto_image_range(self):
        """The slide is affine on each interval, so lap ends land on lap ends."""
        for N in (2, 3):
            for k in range(1, lap_start_index(N, 5)):
                base, hi = lap_image(N, k)
                right = interval_step(lap_endpoint(N, k))
                left = interval_step(lap_endpoint(N, k + 1))
                assert right == pytest.approx(lap_endpoint(N, base), abs=1e-12)
                assert left == pytest.approx(lap_endpoint(N, hi + 1), abs=1e-12)

    def test_image_width_is_n_laps(self):
        for N in (2, 3):
            for k in range(1, 30):
                base, hi = lap_image(N, k)
                assert hi - base + 1 == N
                assert interval_of_lap(N, base) == interval_of_lap(N, k) + 1

    def test_images_tile_the_next_interval(self):
        N = 2
        j = 3
        covered = []
        for k in range(lap_start_index(N, j), lap_start_index(N, j + 1)):
            base, hi = lap_image(N, k)
            covered.extend(range(base, hi + 1))
        assert covered == list(
            range(lap_start_index(N, j + 1), lap_start_index(N, j + 2))
        )

    def test_lap_zero_has_no_single_image(self):
        with pytest.raises(ConfigError):
            lap_image(2, 0)


class TestCrumpleHeight:
    def test_matches_materialized_segments(self):
        """Oracle: build each lap's straight segment and sample it directly."""
        for N in (2, 3):
            for k in range(0, lap_start_index(N, 5)):
                right = lap_endpoint(N, k)
                left = lap_endpoint(N, k + 1)
                sign = 1.0 if k % 2 == 0 else -1.0
                for u in (0.1, 0.35, 0.5, 0.65, 0.9):
                    x = right - u * (right - left)
                    want = sign * (1.0 - 2.0 * u)
                    assert crumple_height(N, x) == pytest.approx(want, abs=1e-9)

    def test_boundary_heights_alternate(self):
        # adjacent laps share endpoints, where the height is +-1
        for N in (2, 3):
            for k in range(1, 20):
                x = lap_endpoint(N, k)
                assert abs(crumple_height(N, x)) == pytest.approx(1.0, abs=1e-9)

    def test_right_end_and_guard(self):
        assert crumple_height(2, 1.0) == 1.0
        assert crumple_height(2, 1.5) == 1.0
        with pytest.raises(UndefinedPointError):
            crumple_height(2, 0.0)
        with pytest.raises(UndefinedPointError):
            crumple_height(2, -0.25)
        with pytest.raises(UndefinedPointError):
            _crumple_heights(2, np.array([0.5, 0.0, 0.25]))
        with pytest.raises(UndefinedPointError):
            _crumple_heights(3, np.array([-0.25]))

    @pytest.mark.parametrize("N, deep", [(2, 62), (3, 40)])
    def test_array_rule_past_the_int64_lap_count(self, N, deep):
        """Intervals from j = deep on have more laps than int64 holds, so the
        array rule hands them to the scalar one; mixed with shallow laps,
        every entry still equals ``crumple_height``."""
        js = np.array([1, 2, 5, deep - 1, deep, deep + 7, 3, 200])
        x = np.concatenate([1.0 / (js + 0.3), 1.0 / (js + 0.71), [1.0, 1.2]])
        want = np.array([crumple_height(N, float(v)) for v in x])
        assert np.array_equal(_crumple_heights(N, x), want)


class TestIntervalStep:
    def test_slides_interval_onto_next(self):
        for j in range(2, 8):
            right, left = 1.0 / j, 1.0 / (j + 1)
            assert interval_step(right) == pytest.approx(1.0 / (j + 1), abs=1e-12)
            assert interval_step(left) == pytest.approx(1.0 / (j + 2), abs=1e-12)

    def test_fixes_one_and_stretches_first_interval(self):
        assert interval_step(1.0) == 1.0
        # I_1 = [1/2, 1] covers [1/3, 1], two intervals' worth
        assert interval_step(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_inverse_roundtrip(self):
        for x in np.linspace(0.011, 1.0, 173):
            y = interval_step(float(x))
            assert interval_step_inv(y) == pytest.approx(float(x), abs=1e-9)

    def test_monotone(self):
        xs = np.linspace(0.02, 1.0, 400)
        ys = [interval_step(float(x)) for x in xs]
        assert all(a < b + 1e-15 for a, b in zip(ys, ys[1:]))


class TestCrumpleSystem:
    def test_orbit_stays_on_the_curve(self):
        system = crumple_system(2)
        x0 = 0.77
        orbit = iterate_orbit(system, [x0, crumple_height(2, x0)], 8)
        for x, y in orbit:
            assert y == pytest.approx(crumple_height(2, float(x)), abs=1e-9)

    def test_inverse_undoes_step(self):
        system = crumple_system(3)
        for x0 in (0.9, 0.45, 0.21):
            p = np.array([[x0, crumple_height(3, x0)]])
            q = system.inverse(system.step(p))
            assert q[0, 0] == pytest.approx(x0, abs=1e-9)

    def test_inverse_direction_swaps_roles(self):
        fwd = crumple_system(2, "forward")
        bwd = crumple_system(2, "inverse")
        p = np.array([[0.3, crumple_height(2, 0.3)]])
        assert np.allclose(bwd.step(p), fwd.inverse(p), atol=0)
        assert np.allclose(bwd.inverse(p), fwd.step(p), atol=0)

    def test_midlap_points_land_in_the_image_laps(self):
        N = 2
        system = crumple_system(N)
        for k in range(1, 15):
            mid = 0.5 * (lap_endpoint(N, k) + lap_endpoint(N, k + 1))
            out = system.step(np.array([[mid, crumple_height(N, mid)]]))[0]
            base, hi = lap_image(N, k)
            assert lap_endpoint(N, hi + 1) <= out[0] <= lap_endpoint(N, base)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            crumple_system(1)
        with pytest.raises(ConfigError):
            crumple_system(2, "sideways")


class TestCrumpleBundles:
    def test_forward_cloud_lies_on_the_curve(self):
        bundle = build_crumple(2)
        pts = bundle.cloud.points
        sample = pts[:: max(1, len(pts) // 97)]
        for x, y in sample:
            assert y == pytest.approx(crumple_height(2, float(x)), abs=1e-9)
        assert not bundle.mesh_exempt

    def test_inverse_cloud_one_point_per_lap(self):
        bundle = build_crumple(2, direction="inverse")
        xs = bundle.cloud.points[:, 0]
        laps = [interval_of_lap(2, k) for k in range(bundle.cloud.size)]
        # one representative per global lap, in index order
        for k, x in enumerate(xs):
            right = lap_endpoint(2, k)
            left = lap_endpoint(2, k + 1)
            assert left < x < right
        assert bundle.cloud.size >= 2000
        assert laps[-1] > laps[0]
        assert bundle.mesh_exempt

    def test_inverse_system_is_the_backward_map(self):
        bundle = build_crumple(2, direction="inverse")
        p = np.array([[0.4, crumple_height(2, 0.4)]])
        assert bundle.system.step(p)[0, 0] == pytest.approx(
            interval_step_inv(0.4), abs=1e-12
        )

    def test_family_members_nest_and_share_resolution(self):
        bundle = build_crumple(2)
        sizes = [m.size for m in bundle.family.members]
        assert sizes == sorted(sizes)
        assert all(m.mesh == bundle.cloud.mesh for m in bundle.family.members)

    def test_too_coarse_mesh_raises(self):
        with pytest.raises(MeshError):
            build_crumple(2, mesh=5.0)

    def test_nan_mesh_is_refused(self):
        with pytest.raises(ConfigError, match="mesh"):
            build_crumple(2, mesh=math.nan)

    def test_settings_no_cloud_reads_are_refused(self):
        """The inverse cloud is one sample per lap and the escape cloud one
        orbit, so neither takes a mesh: it would change no point."""
        with pytest.raises(ConfigError, match="mesh"):
            build_crumple(2, direction="inverse", mesh=0.01)
        for name, params in (("escape", {"mesh": 0.01}), ("crumple", {"family_mesh": 0.01}),
                             ("annulus", {"family_spacing": 0.01})):
            with pytest.raises(ConfigError, match=next(iter(params))):
                build_bundle(name, **params)

    def test_inverse_cloud_is_one_sample_per_lap_at_the_grid_offset(self):
        bundle = build_crumple(2, direction="inverse")
        pts = bundle.cloud.points
        for k in (0, 1, len(pts) - 1):
            right, left = lap_endpoint(2, k), lap_endpoint(2, k + 1)
            sign = 1.0 if k % 2 == 0 else -1.0
            assert pts[k].tolist() == [right - GRID_OFFSET * (right - left),
                                       sign * (1.0 - 2.0 * GRID_OFFSET)]
        assert bundle.cloud.mesh == 0.5

    def test_depth_guard(self):
        with pytest.raises(ConfigError):
            build_crumple(2, depth=1)
        with pytest.raises(ConfigError):
            build_crumple(2, depth=0, direction="inverse")


class TestWordConcatenation:
    def test_hand_prefix(self):
        # words over {0,1} of lengths 1 then 2, in lex order
        assert word_concatenation(2, 2) == [0, 1, 0, 0, 0, 1, 1, 0, 1, 1]

    def test_total_length(self):
        for N, L in ((2, 6), (3, 3)):
            want = sum(length * N**length for length in range(1, L + 1))
            assert len(word_concatenation(N, L)) == want

    def test_every_word_appears_as_a_window(self):
        for N, L_max in ((2, 5), (3, 3)):
            s = word_concatenation(N, L_max)
            for length in range(1, L_max + 1):
                seen = {
                    tuple(s[i : i + length]) for i in range(len(s) - length + 1)
                }
                assert len(seen) == N**length

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            word_concatenation(1, 3)
        with pytest.raises(ConfigError):
            word_concatenation(2, 0)


class TestEscapeBundle:
    def test_cloud_is_the_decorated_orbit(self):
        bundle = build_escape(2, L_max=4)
        pts = bundle.cloud.points
        s = word_concatenation(2, 4)
        assert bundle.cloud.size == len(s)
        for i in range(len(s)):
            assert pts[i, 0] == pytest.approx(1.0 / (1.0 + i), abs=1e-15)
            assert pts[i, 1] == s[i] + 1

    def test_step_advances_the_orbit(self):
        bundle = build_escape(2, L_max=4)
        pts = bundle.cloud.points
        for i in range(0, bundle.cloud.size - 1, 7):
            nxt = bundle.system.step(pts[i : i + 1])[0]
            assert np.allclose(nxt, pts[i + 1], atol=1e-12)

    def test_inverse_steps_back(self):
        bundle = build_escape(2, L_max=3)
        pts = bundle.cloud.points
        back = bundle.system.inverse(pts[5:6])[0]
        assert np.allclose(back, pts[4], atol=1e-12)
        with pytest.raises(UndefinedPointError):
            bundle.system.inverse(pts[:1])

    def test_domain_ends_with_the_window(self):
        bundle = build_escape(2, L_max=2, orbit_len=12)
        assert bundle.system.domain(np.array([[1.0 / 11.0, 1.0]]))[0]
        assert not bundle.system.domain(np.array([[1.0 / 12.0, 1.0]]))[0]
        assert not bundle.system.domain(np.array([[-0.1, 1.0]]))[0]

    def test_orbit_len_guard(self):
        """The domain ends at index orbit_len - 1, so orbit_len = 34, the
        length of the concatenation for L_max=3, would put the cloud's last
        point outside it."""
        with pytest.raises(ConfigError):
            build_escape(2, L_max=3, orbit_len=10)
        assert len(word_concatenation(2, 3)) == 34
        with pytest.raises(ConfigError, match="need orbit_len >= 35"):
            build_escape(2, L_max=3, orbit_len=34)
        bundle = build_escape(2, L_max=3, orbit_len=35)
        assert bundle.system.domain(bundle.cloud.points).all()


class TestAkmCoverDemo:
    def test_exact_entropy_and_full_refinement(self):
        for N in (2, 3):
            for n in range(1, 6):
                rec = akm_cover_demo(N, n, 6)
                assert rec.cover_size == N
                assert rec.refinement_size == N**n
                assert rec.entropy == n * math.log(N)
                assert rec.empty_cells == 0
                assert not rec.has_proper_subcover

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            akm_cover_demo(2, 0, 5)
        with pytest.raises(ConfigError):
            akm_cover_demo(2, 6, 5)


class TestAnnulusEmbeddings:
    def test_disc_step_is_complex_squaring(self, rng):
        system = build_annulus("disc").system
        for _ in range(20):
            p = rng.uniform(-0.7, 0.7, size=2)
            z = complex(p[0], p[1]) ** 2
            assert np.allclose(system.step(p[None])[0], [z.real, z.imag], atol=1e-12)

    def test_inverted_radius_law(self, rng):
        """Radii follow r -> r(2 - r); angles still double."""
        system = build_annulus("inverted").system
        for _ in range(20):
            r = rng.uniform(0.05, 0.99)
            t = rng.uniform(0.0, 2.0 * math.pi)
            p = np.array([[r * math.cos(t), r * math.sin(t)]])
            q = system.step(p)[0]
            assert math.hypot(*q) == pytest.approx(r * (2.0 - r), abs=1e-12)
            want = (2.0 * t) % (2.0 * math.pi)
            got = math.atan2(q[1], q[0]) % (2.0 * math.pi)
            delta = abs(want - got) % (2.0 * math.pi)
            assert min(delta, 2.0 * math.pi - delta) < 1e-9

    def test_inverted_rim_is_invariant(self):
        system = build_annulus("inverted").system
        p = np.array([[math.cos(0.3), math.sin(0.3)]])
        q = system.step(p)[0]
        assert math.hypot(*q) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_poles_are_fixed(self):
        system = build_annulus("sphere").system
        north = np.array([[0.0, 0.0, 1.0]])
        south = np.array([[0.0, 0.0, -1.0]])
        assert np.allclose(system.step(north), north, atol=1e-12)
        assert np.allclose(system.step(south), south, atol=1e-12)

    def test_sphere_cloud_on_unit_sphere(self):
        cloud = build_annulus("sphere").cloud
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_orbits_stay_in_each_domain(self):
        for variant in ("disc", "inverted", "sphere"):
            bundle = build_annulus(variant)
            p = bundle.cloud.points[bundle.cloud.size // 3]
            orbit = iterate_orbit(bundle.system, p, 12)
            assert bundle.system.domain(orbit[-1:])[0]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            build_annulus("torus")

    @pytest.mark.parametrize("variant", ["disc", "inverted", "sphere"])
    @pytest.mark.parametrize(
        "params",
        [{"mesh": -0.5}, {"mesh": 0.0}, {"mesh": math.nan}],
    )
    def test_non_positive_spacing_is_refused(self, variant, params):
        """Refused before any sampling loop: a negative spacing would never
        end the ring loop, and a zero one divides by zero."""
        with pytest.raises(ConfigError, match=next(iter(params))):
            build_annulus(variant, **params)


class TestDoublingBundle:
    def test_long_orbits_stay_on_the_circle(self):
        bundle = build_doubling(grid=64)
        orbit = iterate_orbit(bundle.system, bundle.cloud.points[7], 60)
        norms = np.linalg.norm(orbit, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_family_is_nested_arcs(self):
        bundle = build_doubling(grid=64)
        assert [m.size for m in bundle.family.members] == [16, 32, 64]

    def test_grid_guard(self):
        with pytest.raises(ConfigError):
            build_doubling(grid=8)


class TestIntervalHomeoBundle:
    def test_system_is_the_base_slide(self):
        bundle = build_interval_homeo()
        assert bundle.system.step(np.array([[0.5]]))[0, 0] == pytest.approx(
            interval_step(0.5), abs=0
        )
        assert bundle.system.invertible

    def test_mesh_guard(self):
        with pytest.raises(ConfigError):
            build_interval_homeo(mesh=0.3)
        with pytest.raises(ConfigError):
            build_interval_homeo(mesh=0.0)
        with pytest.raises(ConfigError):
            build_interval_homeo(mesh=math.nan)


class TestRegistry:
    def test_dispatch_with_params(self):
        assert build_bundle("doubling", grid=64).name == "doubling"
        assert build_bundle("crumple", N=2).name == "crumple2-forward"
        assert (
            build_bundle("crumple", N=3, direction="inverse").name
            == "crumple3-inverse"
        )

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="choose from"):
            build_bundle("lorenz")

    def test_bad_params_become_config_errors(self):
        with pytest.raises(ConfigError, match="bad parameters"):
            build_bundle("doubling", bogus=1)

    def test_default_suite_lineup(self):
        suite = default_suite()
        assert len(suite) == 11
        names = [b.name for b in suite]
        assert names == [
            "doubling",
            "crumple2-forward",
            "crumple2-inverse",
            "crumple3-forward",
            "crumple3-inverse",
            "annulus-disc",
            "annulus-inverted",
            "annulus-sphere",
            "escape2",
            "escape3",
            "interval-homeo",
        ]
        for bundle in suite:
            assert len(bundle.eps_list) >= 3
            assert all(
                a > b for a, b in zip(bundle.eps_list, bundle.eps_list[1:])
            )
            assert bundle.n_max >= 6
            assert bundle.rho > 1.0


class TestArrayRules:
    @pytest.mark.parametrize("bundle", default_suite(), ids=lambda b: b.name)
    def test_rules_map_rows_to_rows(self, bundle):
        """step and inverse give (k, dim) floats and domain k bools, row for row."""
        system = bundle.system
        pts = bundle.cloud.points[np.linspace(1, bundle.cloud.size - 1, 50).astype(int)]
        rules = [system.step, system.domain] + ([system.inverse] if system.invertible else [])
        for rule in rules:
            out = rule(pts)
            if rule is system.domain:
                assert out.shape == (50,) and out.dtype == bool
            else:
                assert out.shape == (50, system.dim) and out.dtype == np.float64
            for i in range(50):
                assert np.array_equal(rule(pts[i : i + 1])[0], out[i])


def scalar_crumple(N: int, direction: str) -> DynSystem:
    """The crumple system from the scalar reference rules, lifted row by row."""

    def fwd(p):
        x = interval_step(float(p[0]))
        return np.array([x, crumple_height(N, x)])

    def bwd(p):
        x = interval_step_inv(float(p[0]))
        return np.array([x, crumple_height(N, x)])

    step, inverse = (fwd, bwd) if direction == "forward" else (bwd, fwd)
    return DynSystem("scalar", 2, pointwise(step), pointwise(in_unit_interval),
                     pointwise(inverse))


def in_unit_interval(p) -> bool:
    return 0.0 < float(p[0]) <= 1.0 + 1e-9


def scalar_escape(N: int, L_max: int = 6) -> DynSystem:
    """The escape system with one symbol height per orbit index, rule by rule on one point."""
    word = word_concatenation(N, L_max)
    orbit_len = len(word) + 64
    heights = np.array([word[i % len(word)] + 1 for i in range(orbit_len)], dtype=float)

    def index(p) -> int:
        return int(round(1.0 / float(p[0]) - 1.0))

    def step(p):
        return np.array([p[0] / (1.0 + p[0]), heights[index(p) + 1]])

    def inverse(p):
        if index(p) < 1:
            raise UndefinedPointError(0, p)
        return np.array([p[0] / (1.0 - p[0]), heights[index(p) - 1]])

    def domain(p) -> bool:
        return in_unit_interval(p) and index(p) < orbit_len - 1

    return DynSystem("scalar", 2, pointwise(step), pointwise(domain), pointwise(inverse))


def scalar_interval() -> DynSystem:
    return DynSystem(
        "scalar", 1,
        pointwise(lambda p: np.array([interval_step(float(p[0]))])),
        pointwise(in_unit_interval),
        pointwise(lambda p: np.array([interval_step_inv(float(p[0]))])),
    )


class TestArrayRulesMatchScalarRules:
    """Orbit tables from the array rules equal, bit for bit, the tables of
    the scalar reference rules lifted by ``pointwise``."""

    @pytest.mark.parametrize(
        "bundle, reference",
        [pytest.param(build_crumple(N, direction=d), scalar_crumple(N, d), id=f"crumple{N}-{d}")
         for N in (2, 3) for d in ("forward", "inverse")]
        + [pytest.param(build_escape(N), scalar_escape(N), id=f"escape{N}") for N in (2, 3)]
        + [pytest.param(build_interval_homeo(), scalar_interval(), id="interval-homeo")],
    )
    def test_orbit_tables(self, bundle, reference):
        n_max = bundle.n_max
        m = choose_truncation(bundle.rho, _iterate_diameter(bundle.system, bundle.cloud, n_max))
        lifted = m + n_max - 1
        clouds = [bundle.cloud] + [
            c for c in bundle.family.members if not np.array_equal(c.points, bundle.cloud.points)
        ]
        for cloud in clouds:
            want = build_orbit_table(reference, cloud, lifted).orbits
            assert np.array_equal(build_orbit_table(bundle.system, cloud, lifted).orbits, want)
            assert np.array_equal(
                build_orbit_table(bundle.system, cloud, n_max).orbits, want[:, :n_max]
            )
        pts = bundle.cloud.points[1:]  # the escape inverse is undefined at the first point
        assert np.array_equal(bundle.system.inverse(pts), reference.inverse(pts))

    def test_sphere_domain(self):
        """The sphere's array domain gives the scalar rule's answer,
        ``abs(float(np.dot(p, p)) - 1.0) < 1e-6``, on every iterate of the
        lifted orbit table and on those iterates scaled off the sphere, where
        both answers occur; the iterates sit far inside the tolerance."""
        bundle = build_annulus("sphere")
        n_max = bundle.n_max
        m = choose_truncation(bundle.rho, _iterate_diameter(bundle.system, bundle.cloud, n_max))
        table = build_orbit_table(bundle.system, bundle.cloud, m + n_max - 1)
        iterates = table.orbits.reshape(-1, 3)
        assert np.abs(np.einsum("ij,ij->i", iterates, iterates) - 1.0).max() < 1e-12
        scalar = pointwise(lambda p: abs(float(np.dot(p, p)) - 1.0) < 1e-6)
        for k in (0, -20, -6, -4, 4, 6, 20):
            pts = iterates * (1.0 + k * 1e-7)
            want = scalar(pts)
            assert want.all() == (abs(k) < 5) and want.any() == (abs(k) < 5)
            assert np.array_equal(bundle.system.domain(pts), want)


class TestRunBundle:
    @pytest.mark.parametrize("methods", [("bd",), ("bowen_dinaburg", "lifted")],
                             ids=["cli-alias", "unknown-name"])
    def test_unknown_method_is_refused(self, methods):
        with pytest.raises(ConfigError, match="choose from bowen_dinaburg, compacta, friedland"):
            run_bundle(build_doubling(grid=256), methods=methods)

    def test_methods_pick_the_estimators(self, monkeypatch):
        def no_lift(*args, **kwargs):
            raise AssertionError("lifted table built for a direct-only run")

        monkeypatch.setattr("entro.gallery.friedland_count_table", no_lift)
        run = run_bundle(
            build_doubling(grid=256).with_settings((0.8, 0.4, 0.2), 6),
            methods=("bowen_dinaburg",),
        )
        assert run.bd is not None and run.bd_table is not None
        assert run.bc is None and run.fr is None and run.fr_table is None
        assert run.verdict is None
        assert run.bundle.eps_list == (0.8, 0.4, 0.2) and run.bundle.n_max == 6
