"""Command line behaviour: exit codes, file outputs, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entro import cli, semiconj_check
from entro.cli import RunConfig, _checked_bundle, main
from entro.gallery import ALL_METHODS

FAST_DOUBLING = {
    "system": "doubling",
    "params": {"grid": 256},
    "eps_list": [0.8, 0.4, 0.2],
    "n_max": 8,
}


SUITE_ENTRIES = json.loads(
    (Path(__file__).parents[1] / "configs" / "gallery_suite.json").read_text()
)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_config_error(rc, captured, word):
    assert rc == 1
    assert captured.err.startswith("error: config:")
    assert word in captured.err
    assert captured.out == ""


def estimate_blocks(report):
    """Map each estimator's name in a report to (header line, note lines)."""
    blocks, current = {}, None
    for line in report.splitlines():
        if not line.startswith(" "):
            name = line.split(" ", 1)[0]
            current = name if name in ("bowen-dinaburg", "compacta", "friedland") else None
            if current:
                blocks[current] = (line, [])
        elif current and line.startswith("    note: "):
            blocks[current][1].append(line[len("    note: "):])
    return blocks


class TestGalleryCommand:
    def test_happy_path_prints_estimates(self, capsys):
        rc = main(
            ["gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "== doubling ==" in out
        assert "bowen-dinaburg" in out
        assert "compacta" in out
        assert "friedland" in out
        assert "FR≈BD: pass; BD≥Bc: pass" in out
        assert "target: 0.693147" in out

    def test_writes_all_outputs(self, tmp_path, capsys):
        rc = main(
            [
                "gallery", "doubling", "--grid", "256",
                "--eps", "0.8,0.4,0.2", "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        for suffix in (
            "counts.csv", "report.txt", "bd_estimate.csv", "friedland_estimate.csv"
        ):
            assert (tmp_path / f"doubling_{suffix}").exists()

    def test_counts_csv_schema(self, tmp_path, capsys):
        main(
            [
                "gallery", "doubling", "--grid", "256",
                "--eps", "0.8,0.4,0.2", "--n-max", "6",
                "--methods", "bd", "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        text = (tmp_path / "doubling_counts.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "system,metric,epsilon,n,sep,span,mode,rate"
        assert len(lines) == 1 + 3 * 6
        with open(tmp_path / "doubling_counts.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["system"] == "doubling"
                assert int(row["sep"]) >= int(row["span"])
                float(row["epsilon"])
                float(row["rate"])

    def test_estimate_csvs_split_the_counts_csv(self, tmp_path, capsys):
        main(
            [
                "gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2",
                "--n-max", "6", "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        counts = (tmp_path / "doubling_counts.csv").read_text().split("\n")
        bd = (tmp_path / "doubling_bd_estimate.csv").read_text().split("\n")
        fr = (tmp_path / "doubling_friedland_estimate.csv").read_text().split("\n")
        assert bd[0] == fr[0] == counts[0]
        assert len(bd) == len(fr) == 1 + 3 * 6 + 1
        assert counts == bd[:-1] + fr[1:]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        argv = ["gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2"]
        a, b = tmp_path / "a", tmp_path / "b"
        main(argv + ["--out-dir", str(a)])
        main(argv + ["--out-dir", str(b)])
        capsys.readouterr()
        for suffix in ("counts.csv", "report.txt", "bd_estimate.csv"):
            assert (a / f"doubling_{suffix}").read_bytes() == (
                b / f"doubling_{suffix}"
            ).read_bytes()

    def test_label_overrides_file_prefix(self, tmp_path, capsys):
        main(
            [
                "gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2",
                "--out-dir", str(tmp_path), "--label", "run7",
            ]
        )
        capsys.readouterr()
        assert (tmp_path / "run7_counts.csv").exists()
        assert not (tmp_path / "doubling_counts.csv").exists()

    def test_verdict_failure_exits_3(self, capsys):
        # rho barely above 1 makes the lifted distances huge, every pair
        # separates at every order, and the flat counts report rate zero
        rc = main(
            [
                "gallery", "doubling", "--grid", "256",
                "--eps", "0.8,0.4,0.2", "--rho", "1.05",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 3
        assert "FR≈BD: fail" in out

    def test_unknown_name_exits_1(self, capsys):
        rc = main(["gallery", "horseshoe"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "choose from" in err

    def test_increasing_eps_exits_1(self, capsys):
        rc = main(["gallery", "doubling", "--grid", "256", "--eps", "0.2,0.4"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "strictly decreasing" in err

    def test_mesh_guard_and_override(self, capsys):
        # grid 64 has mesh ~0.098, far above min(eps)/4 for the default scales
        rc = main(["gallery", "doubling", "--grid", "64"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "mesh" in err
        rc = main(["gallery", "doubling", "--grid", "64", "--allow-coarse-mesh"])
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.parametrize(
        "flags",
        [["--n-max", "0"], ["--rho", "0"], ["--rho", "1"], ["--eps", "0.8,x"]],
    )
    def test_bad_flags_exit_1(self, flags, capsys):
        argv = ["gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2"]
        rc = main(argv + ["--methods", "bd"] + flags)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: config:")
        assert captured.out == ""

    @pytest.mark.parametrize("variant", ["disc", "inverted", "sphere"])
    def test_annulus_negative_mesh_exits_1(self, variant, capsys):
        rc = main(["gallery", "annulus", "--variant", variant, "--mesh", "-0.5"])
        assert_config_error(rc, capsys.readouterr(), "mesh")

    def test_truncated_table_names_its_step(self, capsys):
        """The first bundle's orbits leave the domain at step 3, under n_max 8,
        so the direct table stops at n = 3.  The second's leave at step 8, so
        the direct table is whole but the lifted one (m = 8) keeps only
        order 1; the third's orbits stop below depth m and keep no order."""
        for args, words in [
            (["--l-max", "4", "--orbit-len", "101"], "direct table truncated at n=3;"),
            (["--l-max", "3", "--orbit-len", "42"], "lifted table (m=8) truncated at n=1;"),
            (["--l-max", "3", "--orbit-len", "40"], "lifted table (m=8) truncated at n=0;"),
        ]:
            rc = main(["gallery", "escape", *args])
            assert_config_error(rc, capsys.readouterr(), words)

    def test_methods_must_include_the_baseline(self, capsys):
        rc = main(
            ["gallery", "doubling", "--grid", "256", "--methods", "compacta"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "bowen_dinaburg" in err


class TestEstimateCommand:
    def test_single_config(self, tmp_path, capsys):
        cfg = dict(FAST_DOUBLING, out_dir=str(tmp_path / "out"))
        rc = main(["estimate", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "== doubling ==" in out
        assert (tmp_path / "out" / "doubling_counts.csv").exists()

    def test_batch_preserves_order(self, tmp_path, capsys):
        cfgs = [
            dict(FAST_DOUBLING, label="first"),
            {
                "system": "interval-homeo",
                "eps_list": [0.2, 0.1, 0.05],
                "n_max": 8,
                "label": "second",
            },
        ]
        rc = main(["estimate", write_config(tmp_path, cfgs)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("== doubling ==") < out.index("== interval-homeo ==")

    def test_batch_prints_reports_before_a_failing_entry(self, tmp_path, capsys):
        cfgs = [
            FAST_DOUBLING,
            {"system": "annulus", "params": {"variant": "sphere", "mesh": 0.5}},
        ]
        rc = main(["estimate", write_config(tmp_path, cfgs)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out.startswith("== doubling ==")
        assert "FR≈BD: pass; BD≥Bc: pass" in captured.out
        assert captured.err.startswith("error: mesh:")

    def test_empty_eps_list_writes_header_only(self, tmp_path, capsys):
        cfg = dict(FAST_DOUBLING, eps_list=[], out_dir=str(tmp_path / "out"))
        rc = main(["estimate", write_config(tmp_path, cfg)])
        capsys.readouterr()
        assert rc == 0
        text = (tmp_path / "out" / "doubling_counts.csv").read_text()
        assert text == "system,metric,epsilon,n,sep,span,mode,rate\n"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no such file" in err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["estimate", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "invalid JSON" in err

    def test_unknown_keys_exit_1(self, tmp_path, capsys):
        cfg = dict(FAST_DOUBLING, tolerance=0.1)
        rc = main(["estimate", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown keys" in err

    @pytest.mark.parametrize(
        "extra",
        [
            {"rho": "abc"},
            {"rho": True},
            {"allow_coarse_mesh": "false"},
            {"mode": "greedy"},
            {"n_max": True},
            {"out_dir": 5},
            {"label": ["x"]},
            {"rho": math.inf},
            {"eps_list": [math.inf, 0.4, 0.2]},
        ],
    )
    def test_bad_config_values_exit_1(self, extra, tmp_path, capsys):
        rc = main(["estimate", write_config(tmp_path, dict(FAST_DOUBLING, **extra))])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: config:")
        assert next(iter(extra)) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("params", [{"mesh": 0}, {"family_spacing": 0}])
    def test_annulus_zero_spacing_exits_1(self, params, tmp_path, capsys):
        cfg = {"system": "annulus", "params": params}
        rc = main(["estimate", write_config(tmp_path, cfg)])
        assert_config_error(rc, capsys.readouterr(), next(iter(params)))

    @pytest.mark.parametrize("grid", [256.5, True])
    def test_non_integer_doubling_grid_exits_1(self, grid, tmp_path, capsys):
        cfg = dict(FAST_DOUBLING, params={"grid": grid})
        rc = main(["estimate", write_config(tmp_path, cfg)])
        assert_config_error(rc, capsys.readouterr(), "grid")

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = dict(FAST_DOUBLING, out_dir=str(blocker / "sub"))
        rc = main(["estimate", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "io" in err

    @pytest.mark.parametrize("entry", SUITE_ENTRIES, ids=lambda entry: entry["label"])
    def test_gallery_suite_entries_pass_the_mesh_guard(self, entry):
        bundle = _checked_bundle(RunConfig.from_dict(entry))
        assert bundle.eps_list

    @pytest.mark.parametrize("entry", SUITE_ENTRIES, ids=lambda entry: entry["label"])
    def test_gallery_suite_entries_run_through_estimate(
        self, entry, suite_results, tmp_path, capsys, monkeypatch
    ):
        """Each default bundle through the config front end, CSV writers
        included; the estimators are not run again, the shared
        ``suite_results`` record stands in for the bundle the CLI hands over."""
        handed = []

        def suite_run(bundle, methods=ALL_METHODS):
            run = suite_results[bundle.name]
            settings = (bundle.name, bundle.eps_list, bundle.n_max, bundle.rho)
            assert settings == (
                run.bundle.name, run.bundle.eps_list, run.bundle.n_max, run.bundle.rho
            )
            assert methods == ALL_METHODS
            handed.append(run)
            return run

        monkeypatch.setattr(cli, "run_bundle", suite_run)
        out_dir = tmp_path / "out"
        rc = main(["estimate", write_config(tmp_path, dict(entry, out_dir=str(out_dir)))])
        out = capsys.readouterr().out
        assert rc == 0
        [run] = handed
        blocks = estimate_blocks(out)
        for name, est in (("bowen-dinaburg", run.bd), ("compacta", run.bc), ("friedland", run.fr)):
            header, notes = blocks[name]
            assert header.split()[1] == f"{est.headline:.6f}"
            assert notes == list(est.diagnostics)
        label = entry["label"]
        for suffix in ("counts.csv", "bd_estimate.csv", "friedland_estimate.csv", "report.txt"):
            assert (out_dir / f"{label}_{suffix}").is_file()


class TestVerifyCommand:
    def test_doubling_checks_pass(self, tmp_path, capsys):
        rc = main(
            ["verify", write_config(tmp_path, FAST_DOUBLING), "--pairs", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "== verify doubling ==" in out
        assert "subsample-counts: pass" in out
        assert "metric-comparison" in out and "pass" in out
        assert "factor-counts" in out
        assert "inverse-transport: skipped" in out
        assert "estimates: bd=" in out
        assert "FR≈BD: pass" in out

    def test_factor_check_projects_the_shift_on_lifts(self, tmp_path, capsys, monkeypatch):
        """The factor check runs through a real factor map, the block
        projection from the shift on 2-block lifts, not the identity."""
        calls = []

        def spy(up_system, down_system, h, cloud, **kwargs):
            report = semiconj_check(up_system, down_system, h, cloud, **kwargs)
            calls.append((up_system, down_system, h, cloud, report))
            return report

        monkeypatch.setattr(cli, "semiconj_check", spy)
        rc = main(["verify", write_config(tmp_path, FAST_DOUBLING), "--pairs", "50"])
        assert rc == 0
        ((up, down, h, cloud, report),) = calls
        assert up.name == f"shift[{down.name},M=2]"
        assert cloud.dim == up.dim == 2 * down.dim
        assert h(cloud.points).shape == (cloud.size, down.dim)
        assert report.passed
        assert report.line() in capsys.readouterr().out.splitlines()

    def test_invertible_system_runs_transport(self, tmp_path, capsys):
        cfg = {"system": "interval-homeo", "n_max": 8}
        rc = main(["verify", write_config(tmp_path, cfg), "--pairs", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inverse-transport" in out
        assert "skipped" not in out

    def test_headlines_match_the_gallery_command(self, tmp_path, capsys):
        cfg = {"system": "doubling", "params": {"grid": 256}, "eps_list": [0.8, 0.4, 0.2]}
        assert main(["verify", write_config(tmp_path, cfg), "--pairs", "50"]) == 0
        verify_out = capsys.readouterr().out
        assert main(["gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2"]) == 0
        gallery_out = capsys.readouterr().out
        headlines = {
            line.split()[0]: float(line.split()[1])
            for line in gallery_out.splitlines()
            if line.split()[:1] in (["bowen-dinaburg"], ["compacta"], ["friedland"])
        }
        want = (
            f"estimates: bd={headlines['bowen-dinaburg']:.4f}"
            f" compacta={headlines['compacta']:.4f}"
            f" friedland={headlines['friedland']:.4f} (nats)"
        )
        assert want in verify_out.splitlines()

    def test_batch_prints_blocks_before_a_failing_entry(self, tmp_path, capsys):
        cfgs = [
            FAST_DOUBLING,
            {"system": "annulus", "params": {"variant": "sphere", "mesh": 0.5}},
        ]
        rc = main(["verify", write_config(tmp_path, cfgs), "--pairs", "50"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out.startswith("== verify doubling ==")
        assert "FR≈BD: pass" in captured.out
        assert captured.err.startswith("error: mesh:")

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        rc = main(["verify", write_config(tmp_path, FAST_DOUBLING), "--seed", "-1"])
        assert_config_error(rc, capsys.readouterr(), "seed")

    def test_empty_eps_rejected(self, tmp_path, capsys):
        cfg = dict(FAST_DOUBLING, eps_list=[])
        rc = main(["verify", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "non-empty" in err


class TestCodingCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        rc = main(
            [
                "coding", "--alpha", "0.6180339887", "--lmax", "8",
                "--out", str(out_csv),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p(8) = 9" in out
        assert "coded entropy rate" in out
        assert "symbol-0 frequency" in out
        rows = out_csv.read_text().strip().split("\n")
        assert rows[0] == "L,p"
        assert rows[1] == "1,2"
        assert rows[8] == "8,9"

    def test_fraction_alpha_parses(self, capsys):
        rc = main(["coding", "--alpha", "13/21", "--lmax", "4", "--orbit-len", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alpha = 13/21" in out

    def test_bad_alpha_exits_1(self, capsys):
        rc = main(["coding", "--alpha", "7/0"])
        assert rc == 1
        assert "fraction" in capsys.readouterr().err
        rc = main(["coding", "--alpha", "1.5"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0/5", "1/1", "-1/3", "0", "1"])
    def test_cut_outside_unit_interval_exits_1(self, alpha, capsys):
        """A fraction is held to (0, 1) like a decimal."""
        rc = main(["coding", f"--alpha={alpha}", "--lmax", "4"])
        assert_config_error(rc, capsys.readouterr(), "(0, 1)")

    def test_zero_orbit_length_is_refused(self, capsys):
        """An explicit 0 is not the default orbit; the length guard refuses it."""
        rc = main(["coding", "--alpha", "13/21", "--lmax", "4", "--orbit-len", "0"])
        assert_config_error(rc, capsys.readouterr(), "orbit_len 0 too short")


class TestUsageErrors:
    """argparse's own refusals exit 1, the code for bad input, not its 2."""

    @pytest.mark.parametrize(
        "argv",
        # argparse reads -1/3 as an option, so --alpha has no value
        [["coding", "--alpha", "-1/3"], ["coding"], ["coding", "--lmax", "x"]],
        ids=["negative-cut", "no-alpha", "bad-lmax"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "usage: entro coding" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["coding", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: entro" in capsys.readouterr().out


class TestRuntimeErrors:
    def test_memory_error_exits_2(self, monkeypatch, capsys):
        """Running out of memory is a runtime failure, not bad input."""

        def out_of_memory(args):
            raise MemoryError("Unable to allocate 368. GiB for an array")

        monkeypatch.setattr(cli, "cmd_verify", out_of_memory)
        rc = main(["verify", "unread.json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: memory: Unable to allocate 368. GiB for an array\n"
        assert captured.out == ""


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """Run the interpreter on ``args`` with the package source on its path."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoint:
    def test_module_is_runnable(self):
        proc = run_python(
            "-m", "entro.cli",
            "gallery", "doubling", "--grid", "256", "--eps", "0.8,0.4,0.2",
        )
        assert proc.returncode == 0
        assert "bowen-dinaburg" in proc.stdout

    def test_usage_error_exit_status(self):
        proc = run_python("-m", "entro.cli", "coding")
        assert proc.returncode == 1
        assert "the following arguments are required: --alpha" in proc.stderr

    def test_gallery_suite_prints_peak_memory(self):
        proc = run_python(str(ROOT / "scripts" / "run_gallery_suite.py"), "--only", "escape2")
        assert proc.returncode == 0, proc.stderr
        header, _, line = proc.stdout.splitlines()
        assert header.split()[6] == "peak"
        assert line.startswith("escape2")
        assert line.split()[6].endswith("MiB")

    def test_eps_refinement_sweep_runs(self):
        proc = run_python(
            str(ROOT / "scripts" / "eps_refinement_sweep.py"),
            "doubling", "--param", "grid=256", "--count", "3", "--n-max", "6",
        )
        assert proc.returncode == 0, proc.stderr
        assert "headline:" in proc.stdout
