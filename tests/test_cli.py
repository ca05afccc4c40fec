import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

import hypam
from hypam import cli
from hypam.config import RunConfig, format_config, parse_config


# route-budget constants for which the route-error budget is feasible
FEASIBLE_ROUTE = ["K0=40", "alpha=0.05", "mu_factor=1.05", "delta=9.1537",
                  "C_R0_hat=4.8216", "eta=2.0", "lam=0.05", "n_reps=8"]


def run_cli(tmp_path, *argv):
    return cli.main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


def read_strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity tokens JSON lacks."""
    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    return json.loads(read(path), parse_constant=reject)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = RunConfig(d=3, sigma2=0.5, seed=17, mode="annealed")
        text = format_config(cfg, "fk")
        parsed, sub = parse_config(text)
        assert parsed == cfg and sub == "fk"

    @pytest.mark.parametrize("text", [
        "o#4", " lead", "trail ", "a\nb", "a\r\nb", "a\u2028b", "'q'", '"',
        "it's #1", "x = y", "", "plain/dir"])
    def test_round_trip_str_values(self, text):
        for key in ("kernel_shape", "mode", "R_list", "s_list", "out"):
            cfg = RunConfig(**{key: text})
            assert parse_config(format_config(cfg, "fk"))[0] == cfg
        # a value that needs no quotes is written as its plain text
        assert "out = plain/dir\n" in format_config(RunConfig(out="plain/dir"), "fk")

    def test_malformed_quoted_value(self):
        with pytest.raises(ValueError, match=":2: malformed quoted value"):
            parse_config("d = 2\nout = 'o#4\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("frobnicate = 3")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_config("d = 2\nsigma2 = banana\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config("just some words")

    def test_lambda_alias(self):
        # lam has one name: lambda is an unknown key, not an alias
        with pytest.raises(ValueError, match="unknown config key 'lambda'"):
            parse_config("lambda = 0.25")

    def test_comments_and_blanks(self):
        cfg, _ = parse_config("# comment\n\nd = 4   # trailing\n")
        assert cfg.d == 4


class TestDispatch:
    def test_optimize_outputs(self, tmp_path):
        out = tmp_path / "opt"
        status = run_cli(tmp_path, "optimize", "--out", str(out), "--seed", "1")
        assert status == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["eps_star"] == 0.2
        assert summary["checks"]["gradient_norm"] <= 1e-6
        assert (out / "data.csv").exists()
        assert (out / "manifest.cfg").exists()

    def test_manifest_round_trip_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(tmp_path, "fk-localized", "--out", str(out1), "--seed", "3",
                       "--set", "n_paths=40", "--set", "dt=0.005",
                       "--set", "t=0.5", "--set", "K=4.0") == 0
        assert run_cli(tmp_path, "fk-localized", "--config",
                       str(out1 / "manifest.cfg"), "--out", str(out2)) == 0
        assert read(out1 / "data.csv") == read(out2 / "data.csv")
        assert read(out1 / "summary.json") == read(out2 / "summary.json")

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(tmp_path, "radial-check", "--out", str(out),
                           "--seed", "5", "--set", "t=0.2",
                           "--set", "n_paths=50") == 0
            outs.append(read(out / "data.csv"))
        assert outs[0] == outs[1]

    def test_unknown_subcommand_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_constraint_violation_exit_2(self, tmp_path):
        status = run_cli(tmp_path, "clusters", "--out", str(tmp_path / "c"),
                         "--set", "lam=0.5", "--set", "eta=0.1")
        assert status == 2

    def test_clusters_ignore_lam(self, tmp_path):
        # clusters never reads lam: the default lam = 1e-4 above this eta
        # must not reject the run
        assert run_cli(tmp_path, "clusters", "--out", str(tmp_path / "c"),
                       "--set", "eta=5e-5", "--set", "site_cap=64") == 0

    def test_route_budget_rejects_lam_above_eta(self, tmp_path, capsys):
        status = run_cli(tmp_path, "route-budget", "--out", str(tmp_path / "rb"),
                         "--set", "K0=40", "--set", "alpha=0.05",
                         "--set", "mu_factor=1.05", "--set", "delta=9.1537",
                         "--set", "C_R0_hat=4.8216", "--set", "eta=2.0",
                         "--set", "lam=2.5", "--set", "t=20")
        assert status == 2
        assert "lam < eta" in capsys.readouterr().err

    def test_infeasible_localized_exit_2(self, tmp_path, capsys):
        # the default scenario: K t^(4/3) + r_peak = 0.4 + 1.0 < 1.5
        status = run_cli(tmp_path, "fk-localized", "--out", str(tmp_path / "l"),
                         "--set", "t=1.0", "--set", "n_paths=20")
        assert status == 2
        err = capsys.readouterr().err
        assert "K*t^(4/3) = 0.4" in err and "r_peak = 1" in err and "= 1.5" in err

    def test_eta_above_threshold_exit_2(self, tmp_path, capsys):
        status = run_cli(tmp_path, "clusters", "--out", str(tmp_path / "c2"),
                         "--set", "lam=1e-4", "--set", "eta=0.9",
                         "--set", "delta=0.5")
        assert status == 2
        assert "eta_delta" in capsys.readouterr().err

    def test_unknown_mode_exit_2(self, tmp_path, capsys):
        out = tmp_path / "fk"
        status = run_cli(tmp_path, "fk", "--out", str(out),
                         "--set", "mode=anealed", "--set", "n_paths=4")
        assert status == 2
        assert "mode" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_failed_run_keeps_previous_outputs(self, tmp_path):
        out = tmp_path / "fk"
        argv = ["fk", "--out", str(out), "--seed", "1", "--set", "n_paths=4",
                "--set", "t=0.5", "--set", "dt=0.005"]
        assert run_cli(tmp_path, *argv) == 0
        names = ("manifest.cfg", "data.csv", "summary.json")
        before = [read(out / name) for name in names]
        assert run_cli(tmp_path, *argv, "--set", "mode=anealed") == 2
        assert [read(out / name) for name in names] == before

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        status = run_cli(tmp_path, "optimize", "--out", str(blocker / "x"))
        assert status == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,key,value", [
        ("field-max-scan", "R_list", "5,x"),
        ("exit-check", "R_list", "5,,x"),
        ("bridge-ldp", "s_list", "0.4,y"),
    ])
    def test_bad_number_list_exit_2(self, tmp_path, capsys, sub, key, value):
        status = run_cli(tmp_path, sub, "--out", str(tmp_path / "l"),
                         "--set", f"{key}={value}")
        assert status == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("sub,sets,status,message", [
        ("field-max-scan", ["n_reps=0"], 2, "n_reps"),
        ("field-max-scan", ["site_cap=0"], 2, "site_cap"),
        ("radial-check", ["n_paths=0"], 2, "n_paths"),
        ("bridge-ldp", ["n_paths=0"], 2, "n_paths"),
        ("fk", ["n_paths=0"], 2, "n_paths"),
        ("fk", ["n_paths=-3"], 2, "n_paths"),
        ("exit-check", ["n_paths=-5"], 2, "n_paths"),
        ("clusters", ["spacing_factor=0"], 2, "spacing_factor"),
        # a spacing of 5 R0 needs packing balls wider than the 2.0 region
        ("clusters", ["spacing_factor=5"], 2, "packing ball"),
        # only d = 2 and d = 3 have an exact kernel to calibrate against
        ("hk-calibrate", ["d=4"], 2, "d=4"),
        ("bridge-ldp", ["s_list=0.4,-0.1"], 2, "duration"),
        ("clusters", ["t=-1"], 2, "t"),
        ("fk-localized", ["t=-1"], 2, "t"),
        ("fk-localized", ["t=1", "dt=2", "K=4"], 2, "dt"),
        ("exit-check", ["t=-1"], 2, "t"),
        ("exit-check", ["t=nan"], 2, "t"),
        ("radial-check", ["t=nan"], 2, "t"),
        ("exit-check", ["t=inf"], 2, "t"),
        # non-finite floats and list entries, each refused by name
        ("optimize", ["sigma2=nan"], 2, "sigma2 must be finite"),
        ("optimize", ["sigma2=inf"], 2, "sigma2 must be finite"),
        ("field-max-scan", ["spacing_factor=nan"], 2, "spacing_factor must be finite"),
        ("field-max-scan", ["R_list=5,nan"], 2, "R_list entries must be finite"),
        ("fk", ["sigma2=nan"], 2, "sigma2 must be finite"),
        ("fk", ["R0=nan"], 2, "R0 must be finite"),
        ("long-route-tail", ["t=nan"], 2, "t must be finite"),
        ("energy-bound", ["K=nan"], 2, "K must be finite"),
        ("energy-bound", ["K=-inf"], 2, "K must be finite"),
        ("exit-check", ["R_list=nan"], 2, "R_list entries must be finite"),
        ("bridge-ldp", ["s_list=0.4,inf"], 2, "s_list entries must be finite"),
        # radii, the deviation radius and the hop count must be positive
        ("exit-check", ["R_list=-1", "n_paths=10"], 2, "R_list"),
        ("bridge-ldp", ["delta=-1"], 2, "delta"),
        ("energy-bound", ["delta=-1"], 2, "delta"),
        ("long-route-tail", ["N_hops=0"], 2, "N_hops"),
        # a deviation needs a geodesic of positive length to leave
        ("energy-bound", ["K=-1"], 2, "K must be positive"),
        ("energy-bound", ["K=0"], 2, "K must be positive"),
        # a feasible K, so only the radius is at fault
        ("fk-localized", ["K=4", "r_peak=-1"], 2, "r_peak must be positive"),
        ("fk-localized", ["K=4", "delta_tube=0"], 2, "delta_tube must be positive"),
        # an empty list has no row to run
        ("field-max-scan", ["R_list=,"], 2, "R_list must list at least one number"),
        ("exit-check", ["R_list=,"], 2, "R_list must list at least one number"),
        ("bridge-ldp", ["s_list=,"], 2, "s_list must list at least one number"),
        # the endpoint slack's tolerances may be 0, never negative
        ("energy-bound", ["eta=-1"], 2, "eta must be nonnegative"),
        ("energy-bound", ["zeta=-1"], 2, "zeta must be nonnegative"),
        # a time grid that does not end at t: zero steps, or a path run past t
        ("radial-check", ["t=1", "dt=5"], 2, "end at t"),
        ("exit-check", ["t=2", "dt=0.3"], 2, "end at t"),
        ("long-route-tail", ["K0=-1"], 2, "K0 must be positive"),
        ("long-route-tail", ["K0=0"], 2, "K0 must be positive"),
        ("fk-localized", ["peak_distance=-1.5"], 2, "peak_distance must be nonnegative"),
        # mu = mu_factor * mu0 divides the route-error exponent
        ("route-budget", ["mu_factor=0"], 2, "mu_factor must be positive"),
        ("route-budget", ["mu_factor=-1"], 2, "mu_factor must be positive"),
        # too weak a field for the independent search: a numerical failure
        ("optimize", ["sigma2=1e-40"], 3, "independent search disagrees"),
        # a power of eta or t past the floating-point range
        ("long-route-tail", ["eta=1e300"], 2, "eta"),
        ("long-route-tail", ["t=1e300"], 2, "t=1e+300"),
        # the cluster cap's square underflows or overflows
        ("route-budget", ["C_R0_hat=1e300"], 2, "C_R0_hat"),
        ("route-budget", ["C_R0_hat=1e-300"], 2, "C_R0_hat"),
        ("clusters", ["C_R0_hat=1e300"], 2, "C_R0_hat"),
        ("clusters", ["C_R0_hat=1e-300"], 2, "C_R0_hat"),
        # K^2 and delta^2 overflow: a summary strict JSON cannot hold
        ("energy-bound", ["K=1e200"], 3, "not strict JSON"),
        ("energy-bound", ["delta=1e200"], 3, "not strict JSON"),
        # a t whose powers overflow, refused before any power of it
        ("clusters", ["t=1e300"], 2, "t=1e+300"),
        ("route-budget", FEASIBLE_ROUTE + ["t=1e300"], 2, "t=1e+300"),
        ("route-budget", FEASIBLE_ROUTE + ["t=1e-300"], 2, "t=1e-300"),
        # radii past the float range of hyperboloid coordinates
        ("fk-localized", ["peak_distance=800"], 2, "peak_distance"),
        ("field-max-scan", ["R_list=800"], 2, "R_list"),
        ("field-max-scan", ["R_list=400", "d=3"], 2, "R_list"),
        ("fk", ["R0=1e300"], 2, "R0"),
    ])
    def test_bad_sizes_exit_without_traceback(self, tmp_path, capsys, sub,
                                              sets, status, message):
        out = tmp_path / "o"
        argv = [sub, "--out", str(out)]
        for s in sets:
            argv += ["--set", s]
        assert run_cli(tmp_path, *argv) == status
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_energy_bound_far_endpoint_is_strict_json(self, tmp_path):
        out = tmp_path / "eb"
        assert run_cli(tmp_path, "energy-bound", "--out", str(out),
                       "--set", "K=800") == 0
        summary = read_strict_json(out / "summary.json")
        assert summary["base_distance"] == 800.0
        assert math.isfinite(summary["bound"]) and math.isfinite(summary["min_energy"])

    def test_non_finite_summary_exits_3_and_keeps_out(self, tmp_path, capsys,
                                                      monkeypatch):
        out = tmp_path / "o"
        assert run_cli(tmp_path, "optimize", "--out", str(out)) == 0
        before = {f: read(out / f) for f in ("manifest.cfg", "data.csv", "summary.json")}
        monkeypatch.setitem(cli.SUBCOMMANDS, "optimize",
                            lambda cfg: (["x"], [[1.0]], {"x": float("nan")}))
        assert run_cli(tmp_path, "optimize", "--out", str(out),
                       "--set", "sigma2=0.5") == 3
        assert "not strict JSON" in capsys.readouterr().err
        assert {f: read(out / f) for f in before} == before

    def test_energy_bound_accepts_zero_tolerances(self, tmp_path):
        out = tmp_path / "eb"
        assert run_cli(tmp_path, "energy-bound", "--out", str(out),
                       "--set", "eta=0", "--set", "zeta=0") == 0
        assert json.loads(read(out / "summary.json"))["endpoint_slack"] == 0.0

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert run_cli(tmp_path, "optimize", "--config", str(bad)) == 2

    def test_manifest_subcommand_mismatch(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli(tmp_path, "optimize", "--out", str(out)) == 0
        assert run_cli(tmp_path, "fk", "--config", str(out / "manifest.cfg")) == 2

    def test_fk_csv_schema(self, tmp_path):
        out = tmp_path / "fk"
        assert run_cli(tmp_path, "fk", "--out", str(out), "--seed", "2",
                       "--set", "n_paths=16", "--set", "t=0.5",
                       "--set", "dt=0.005", "--set", "sigma2=0.25") == 0
        lines = read(out / "data.csv").strip().splitlines()
        assert lines[0] == "path_id,log_weight,accepted,route_word"
        assert len(lines) == 17
        summary = json.loads(read(out / "summary.json"))
        assert set(summary) >= {"mode", "t", "dt", "n_paths", "mean", "se", "params"}

    def test_exit_check_fit_json(self, tmp_path):
        out = tmp_path / "exit"
        assert run_cli(tmp_path, "exit-check", "--out", str(out), "--seed", "3",
                       "--set", "R_list=3,4", "--set", "t=2.0",
                       "--set", "n_paths=4000") == 0
        summary = json.loads(read(out / "summary.json"))
        assert set(summary["fit"]) == {"slope", "intercept", "r2", "n", "ci"}

    def test_long_route_tail_run(self, tmp_path):
        out = tmp_path / "lrt"
        assert run_cli(tmp_path, "long-route-tail", "--out", str(out),
                       "--set", "eta=0.3", "--set", "N_hops=3",
                       "--set", "t=10", "--set", "K0=2.0") == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["threshold_etaN"] > 0

    def test_route_budget_feasible_config(self, tmp_path):
        out = tmp_path / "rb"
        status = run_cli(tmp_path, "route-budget", "--out", str(out),
                         "--seed", "7",
                         "--set", "K0=40", "--set", "alpha=0.05",
                         "--set", "mu_factor=1.05", "--set", "delta=9.1537",
                         "--set", "C_R0_hat=4.8216", "--set", "eta=2.0",
                         "--set", "lam=0.05", "--set", "t=20",
                         "--set", "n_reps=20")
        assert status == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["n_geometries"] == 20
        assert summary["n_violations"] == 0

    def test_clusters_run(self, tmp_path):
        out = tmp_path / "cl"
        status = run_cli(tmp_path, "clusters", "--out", str(out), "--seed", "2",
                         "--set", "t=1.0", "--set", "site_cap=300")
        assert status == 0
        summary = json.loads(read(out / "summary.json"))
        assert "clusters" in summary
        lines = read(out / "data.csv").splitlines()
        assert lines[0] == "site_id,x0,x1,x2,value"

    def test_radial_check_at_time_zero_writes_null_ratio(self, tmp_path):
        # no time has passed, so the radius-per-time ratio is undefined
        out = tmp_path / "r0"
        assert run_cli(tmp_path, "radial-check", "--out", str(out),
                       "--set", "t=0", "--set", "n_paths=20") == 0
        summary = read_strict_json(out / "summary.json")
        assert summary["ratio"] is None and summary["mean_radius"] == 0.0

    @pytest.mark.parametrize("sub,sets,r2_null", [
        # two radii: a two-point fit has an infinite half-width
        ("exit-check", ["R_list=5,7", "t=2", "dt=0.01", "n_paths=20000"], False),
        # every row hits, so all y are equal: r2 and the interval are NaN
        ("bridge-ldp", ["delta=0.05", "s_list=0.4,0.2,0.1", "n_paths=100"], True),
    ])
    def test_non_finite_fit_written_as_null(self, tmp_path, sub, sets, r2_null):
        out = tmp_path / sub
        argv = [sub, "--out", str(out), "--seed", "1"]
        for s in sets:
            argv += ["--set", s]
        assert run_cli(tmp_path, *argv) == 0
        fit = read_strict_json(out / "summary.json")["fit"]
        assert fit["ci"] == [None, None]
        assert (fit["r2"] is None) == r2_null

    def test_degenerate_decay_fit_reports_no_rate(self, tmp_path):
        # every row hits: the fit over equal log p has no r2, so no rate
        out = tmp_path / "ldp"
        assert run_cli(tmp_path, "bridge-ldp", "--out", str(out), "--seed", "1",
                       "--set", "delta=0.05", "--set", "s_list=0.4,0.2,0.1",
                       "--set", "n_paths=100") == 0
        summary = read_strict_json(out / "summary.json")
        assert summary["fit"]["r2"] is None
        assert summary["kappa_hat"] is None

    def test_large_localized_weights_write_finite_se(self, tmp_path):
        # accepted weights near 1e235: their squares overflow, the spread of
        # the weights scaled by the largest one does not
        out = tmp_path / "loc"
        assert run_cli(tmp_path, "fk-localized", "--out", str(out),
                       "--seed", "5", "--set", "t=1.0", "--set", "n_paths=300",
                       "--set", "eps=0.25", "--set", "K=4.0",
                       "--set", "delta_tube=1.2",
                       "--set", "peak_height=1200") == 0
        summary = read_strict_json(out / "summary.json")
        assert summary["mean"] > 1e235
        assert 0 < summary["se"] < summary["mean"]
        assert math.isclose(summary["log_mean"], math.log(summary["mean"]),
                            rel_tol=1e-12)
        assert 1 <= summary["ess"] <= summary["n_paths"]


def _readme_commands():
    """argv of every ``hypam ...`` line in the README's CLI block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    block = read(readme).split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("hypam ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_examples_pass_validation(tmp_path, monkeypatch, argv):
    # each README example gets through config resolution and the checks
    # cli.run makes before dispatch; a stub stands in for the subcommand
    calls = []
    monkeypatch.setitem(cli.SUBCOMMANDS, argv[0],
                        lambda cfg: calls.append(cfg) or (["x"], [], {}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.interpolate",
                                    "scipy.optimize", "scipy.integrate",
                                    "scipy.sparse.csgraph", "hypam.exact"])
def test_import_leaves_out_scipy_stats(module):
    # scipy.stats alone costs about half a second at import, and
    # interpolate, optimize, integrate and csgraph are loaded only where a
    # run calls them; no hypam module may import them at module level, and
    # the exact solvers serve scripts and tests, never a subcommand
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hypam.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_same_seed_digest_script_runs_every_call():
    # the byte-identity check of the whole lab rests on this script: it must
    # exit 0 and print one "<name> <sha256>" line per CALLS entry, in order
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "scripts", "same_seed_digest.py")
    with open(script) as fh:
        calls = next(node.value for node in ast.parse(fh.read()).body
                     if isinstance(node, ast.Assign)
                     and node.targets[0].id == "CALLS")
    names = [call[0] for call in ast.literal_eval(calls)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypam.__file__)))
    res = subprocess.run([sys.executable, script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = [line.split(" ") for line in res.stdout.splitlines()]
    assert [line[0] for line in lines] == names
    assert all(len(line) == 2 and re.fullmatch(r"[0-9a-f]{64}", line[1])
               for line in lines)


class TestOverrides:
    """defaults < --config < --set < --seed and --out, applying exactly the
    keys given; nothing else sets a key."""

    def resolved(self, tmp_path, *argv):
        out = tmp_path / "o"
        assert run_cli(tmp_path, "optimize", "--out", str(out), *argv) == 0
        cfg, _ = parse_config(read(out / "manifest.cfg"))
        return cfg

    def test_set_beats_config_file(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text("n_paths = 50\n")
        cfg = self.resolved(tmp_path, "--config", str(base),
                            "--set", "n_paths=1000")
        assert cfg.n_paths == 1000

    def test_set_back_to_default_value(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text("d = 3\nsigma2 = 0.5\n")
        cfg = self.resolved(tmp_path, "--config", str(base), "--set", "d=2")
        assert cfg.d == 2 and cfg.sigma2 == 0.5

    def test_environment_sets_nothing(self, tmp_path, monkeypatch):
        # HYPAM_* variables name keys fk reads, and move no output byte
        out = tmp_path / "fk"
        argv = ["fk", "--out", str(out), "--set", "t=0.02", "--set", "dt=0.0002"]
        names = ("manifest.cfg", "data.csv", "summary.json")
        assert run_cli(tmp_path, *argv) == 0
        before = [read(out / name) for name in names]
        monkeypatch.setenv("HYPAM_SEED", "5")
        monkeypatch.setenv("HYPAM_N_PATHS", "7")
        monkeypatch.setenv("HYPAM_KERNEL_SHAPE", "cosine")
        assert run_cli(tmp_path, *argv) == 0
        assert [read(out / name) for name in names] == before

    def test_set_value_taken_verbatim(self, tmp_path):
        # '#' starts a comment in a config file, not in an override
        out = tmp_path / "o#4"
        assert run_cli(tmp_path, "optimize", "--set", f"out={out}") == 0
        assert (out / "manifest.cfg").exists()
        assert not (tmp_path / "o").exists()

    def test_manifest_replays_hash_in_value(self, tmp_path):
        # the manifest quotes the value, so its replay writes to o#4 too
        out = tmp_path / "o#4"
        assert run_cli(tmp_path, "optimize", "--set", f"out={out}") == 0
        manifest = read(out / "manifest.cfg")
        assert run_cli(tmp_path, "optimize", "--config",
                       str(out / "manifest.cfg")) == 0
        assert read(out / "manifest.cfg") == manifest
        assert not (tmp_path / "o").exists()

    def test_subcommand_override_exit_2(self, tmp_path):
        # only a --config manifest may name the subcommand
        assert run_cli(tmp_path, "optimize", "--out", str(tmp_path / "o"),
                       "--set", "subcommand=fk") == 2
        assert not (tmp_path / "o").exists()
