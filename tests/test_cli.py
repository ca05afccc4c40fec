import json
import math
import os
import shlex
import subprocess
import sys

import pytest
from scipy import optimize

import hypam
from hypam import brownian, cli
from hypam.config import RunConfig, format_config, parse_config


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
        cfg, _ = parse_config("lambda = 0.25")
        assert cfg.lam == 0.25

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

    def test_energy_bound_without_convergence_writes_null(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(brownian.optimize, "minimize",
                            lambda fun, x0, **kw: optimize.OptimizeResult(
                                x=x0, fun=0.0, success=False, message="forced"))
        out = tmp_path / "eb"
        assert run_cli(tmp_path, "energy-bound", "--out", str(out)) == 0
        summary = read_strict_json(out / "summary.json")
        assert summary["min_energy"] is None
        assert summary["n_converged"] == 0
        assert summary["holds"] is False

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
        # 20 paths leave no histogram bin with the 50 samples a ratio needs
        ("hk-calibrate", ["d=2", "n_paths=20"], 3, "ratio"),
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

    def test_hk_calibrate_paths_over_budget_exit_3(self, tmp_path, capsys,
                                                  monkeypatch):
        # the typed path count is used or refused, never cut; the refusal
        # comes before any path is simulated
        def simulate(*args, **kwargs):
            raise AssertionError("simulated paths above the budget")

        monkeypatch.setattr(brownian, "simulate_radial_batch", simulate)
        out = tmp_path / "hk"
        assert run_cli(tmp_path, "hk-calibrate", "--out", str(out),
                       "--set", "d=2", "--set", "n_paths=200001") == 3
        assert "200001" in capsys.readouterr().err
        assert not out.exists()

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

    def test_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "env"
        monkeypatch.setenv("HYPAM_N_PATHS", "13")
        assert run_cli(tmp_path, "radial-check", "--out", str(out),
                       "--seed", "1", "--set", "t=0.1") == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["n_paths"] == 13

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


def test_import_leaves_out_scipy_stats():
    # scipy.stats alone costs about half a second at import; no hypam
    # module may bring it back
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypam.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


class TestOverrides:
    """defaults < --config < HYPAM_* < --set, applying exactly the keys given."""

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

    def test_env_then_set(self, tmp_path, monkeypatch):
        base = tmp_path / "base.cfg"
        base.write_text("d = 3\nn_paths = 50\n")
        monkeypatch.setenv("HYPAM_D", "2")
        monkeypatch.setenv("HYPAM_N_PATHS", "13")
        cfg = self.resolved(tmp_path, "--config", str(base),
                            "--set", "n_paths=1000")
        assert cfg.d == 2 and cfg.n_paths == 1000

    def test_env_names_match_case_insensitively(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPAM_R0", "0.75")
        assert self.resolved(tmp_path).R0 == 0.75

    def test_set_value_taken_verbatim(self, tmp_path):
        # '#' starts a comment in a config file, not in an override
        out = tmp_path / "o#4"
        assert run_cli(tmp_path, "optimize", "--set", f"out={out}") == 0
        assert (out / "manifest.cfg").exists()
        assert not (tmp_path / "o").exists()

    def test_env_newline_adds_no_key(self, tmp_path, monkeypatch, capsys):
        # the whole value is one int field's text, not a second line
        monkeypatch.setenv("HYPAM_N_PATHS", "13\nd=3")
        assert run_cli(tmp_path, "optimize", "--out", str(tmp_path / "o")) == 2
        assert "'n_paths'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["env", "set"])
    def test_subcommand_override_exit_2(self, tmp_path, monkeypatch, source):
        # only a --config manifest may name the subcommand
        argv = ["optimize", "--out", str(tmp_path / "o")]
        if source == "env":
            monkeypatch.setenv("HYPAM_SUBCOMMAND", "fk")
        else:
            argv += ["--set", "subcommand=fk"]
        assert run_cli(tmp_path, *argv) == 2
        assert not (tmp_path / "o").exists()
