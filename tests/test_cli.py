import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from d2dsim import analytic, cli, planner, simkit
from d2dsim.errors import ParameterError
from d2dsim.planner import ConstraintSpec

TABLE_CONFIG = """
# reference setup
lambda_m = 1e-6
lambda_d = 6e-5
d = 50
alpha = 4
beta_db = 5
gamma_db = 0
p_c_mw = 10
p_d_mw = 0.1
mu = 0.3
window_m = 3000
seed = 11
"""


def set_once(body: str) -> str:
    """``body`` without each line whose key a later line sets again, so a
    test can extend TABLE_CONFIG: a config file sets each key at most once."""
    lines = body.splitlines(keepends=True)
    keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in lines]
    return "".join(line for i, (line, key) in enumerate(zip(lines, keys))
                   if not key or key not in keys[i + 1:])


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(set_once(body))
    return path


class TestConfigParsing:
    def test_defaults_fill_missing_keys(self, tmp_path):
        rc = cli.resolve_config(cli.parse_config_file(write_config(tmp_path, TABLE_CONFIG)))
        assert rc.params.lambda_m == 1e-6
        assert rc.params.beta == pytest.approx(10 ** 0.5)
        assert rc.scheme.kind == "no_ac"
        assert rc.n_realizations == 4000

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(tmp_path / "nope.cfg")

    def test_unknown_key_names_the_field(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "warp_factor = 9\n")
        with pytest.raises(cli.ConfigError, match="warp_factor"):
            cli.resolve_config(cli.parse_config_file(path))

    def test_bad_number_names_the_field(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "n_realizations = many\n")
        with pytest.raises(cli.ConfigError, match="n_realizations"):
            cli.resolve_config(cli.parse_config_file(path))

    def test_scheme_fields_resolve_db(self, tmp_path):
        body = TABLE_CONFIG + "scheme.kind = proposed_threshold\nscheme.delta = 229\nscheme.g_db = -0.59\n"
        rc = cli.resolve_config(cli.parse_config_file(write_config(tmp_path, body)))
        assert rc.scheme.g == pytest.approx(10 ** (-0.059), rel=1e-12)

    def test_every_key_documented_with_its_default(self):
        # README's "Keys and defaults" block shows each key of cli.FIELDS with
        # its default; an optional key, which has none, appears commented out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        shown = {}
        for line in block.splitlines():
            match = re.match(r"(?:# )?([\w.]+) =([^#]*)", line)
            if match:
                shown[match[1]] = match[2].strip()
        assert set(shown) == {key for key, *_ in cli.FIELDS}
        for key, default, *_ in cli.FIELDS:
            assert default is None or shown[key] == default, key

    def test_seed_override(self, tmp_path):
        rc = cli.resolve_config(cli.parse_config_file(write_config(tmp_path, TABLE_CONFIG)),
                                seed_override=999)
        assert rc.seed == 999


class TestAnalyzeCommand:
    def test_reports_single_tier_ceiling(self, tmp_path, capsys):
        path = write_config(tmp_path, TABLE_CONFIG + "lambda_d = 0\n")
        code = cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        table = json.loads((tmp_path / "out" / "analyze.json").read_text())
        assert table["p_max_c"] == pytest.approx(0.5552, abs=0.01)
        assert table["coverage_floor"] == pytest.approx(0.3886, abs=0.01)
        assert table["cellular_coverage"] == pytest.approx(table["p_max_c"], rel=1e-9)
        assert "p_max_c" in capsys.readouterr().out

    def test_reports_reference_success_probability(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "lambda_d = 2e-5\n")
        out = tmp_path / "an2"
        assert cli.main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        table = json.loads((out / "analyze.json").read_text())
        assert table["d2d_success_prob"] == pytest.approx(0.518, abs=1e-3)

    def test_missing_config_exits_two(self, tmp_path):
        assert cli.main(["analyze", "--config", str(tmp_path / "gone.cfg")]) == 2

    def test_bad_field_exits_two(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "alpha = 1.5\n")
        assert cli.main(["analyze", "--config", str(path)]) == 2


class TestSimulateCommand:
    def test_writes_report_and_manifest(self, tmp_path):
        body = TABLE_CONFIG + "n_realizations = 2\nwindow_m = 1200\nlambda_m = 4e-6\n"
        path = write_config(tmp_path, body)
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"manifest.json", "report.csv", "report.json"}
        report = json.loads((out / "report.json").read_text())
        assert report["n_realizations"] == 2
        assert (out / "report.csv").read_text().startswith("metric,mean,ci_low,ci_high,n")

    def test_manifest_hash_stable_across_runs(self, tmp_path):
        body = TABLE_CONFIG + "n_realizations = 1\nwindow_m = 1200\nlambda_m = 4e-6\n"
        path = write_config(tmp_path, body)
        cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")])
        ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
        assert ha == hb
        ra = (tmp_path / "a" / "report.json").read_text()
        rb = (tmp_path / "b" / "report.json").read_text()
        assert ra == rb


class TestOptimizeCommand:
    def test_unconstrained_plan_has_zero_radius(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "mu = 1\n")
        out = tmp_path / "opt"
        assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["delta_star"] == 0.0

    def test_reference_plan_values(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG)
        out = tmp_path / "opt2"
        assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["p_s_star"] == pytest.approx(0.446, abs=1e-3)
        assert plan["g_star_db"] == pytest.approx(-0.59, abs=0.01)

    def test_infeasible_constraint_exits_three(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG + "mu = 1e-9\nlambda_d = 1e-3\n")
        assert cli.main(["optimize", "--config", str(path)]) == 3

    def test_manifest_counts_this_runs_keepout_cache(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG)
        analytic._single_tier.cache_clear()
        analytic._keepout_average.cache_clear()
        stats = []
        for out in (tmp_path / "cold", tmp_path / "warm"):
            assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            stats.append(manifest["diagnostics"]["keepout_cache"])
        cold, warm = stats
        assert 0 < cold["misses"]
        assert cold["currsize"] == cold["misses"]
        # the cold run's traffic is the ceiling's, its table's and the plan's
        # own coverage's, to the count: no screened probe reads a node
        plan = json.loads((tmp_path / "cold" / "plan.json").read_text())
        params = cli.resolve_config(cli.parse_config_file(path)).params
        analytic._single_tier.cache_clear()
        analytic._keepout_average.cache_clear()
        analytic.max_cellular_coverage(params)
        analytic.cellular_coverage(params.gamma, plan["p_s_star"] * params.lambda_d,
                                   plan["delta_star"], params)
        info = analytic._keepout_average.cache_info()
        assert (cold["hits"], cold["misses"]) == (info.hits, info.misses)
        # the second run finds every node the first one computed
        assert warm["misses"] == 0 and warm["hits"] > 0
        assert warm["currsize"] == cold["currsize"]

    def test_manifest_counts_this_runs_guard_radius_probes(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG)
        probes = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            probes.append(manifest["diagnostics"]["guard_radius"])
        # both ends and 15 halvings, each decided by the estimate's bound
        assert probes == [{"screened": 17, "exact": 0}] * 2


class TestSweepCommand:
    def test_delta_sweep_csv(self, tmp_path):
        body = TABLE_CONFIG + ("n_realizations = 2\nwindow_m = 1200\nlambda_m = 4e-6\n"
                               "scheme.kind = guard_zone_only\nscheme.delta = 0\n")
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--axis", "delta", "--values", "50,150"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,value,metric,mean,ci_low,ci_high,n"
        assert len(lines) == 1 + 2 * 7

    def test_mu_axis_replans_with_proposed_scheme(self, tmp_path):
        # each swept mu gets its own plan, measured on the seed's shared realizations
        schemes = {"proposed_threshold": "scheme.delta = 229\nscheme.g_db = -0.59\n",
                   "proposed_top_fraction": "scheme.delta = 229\nscheme.p_s = 0.45\n"}
        for kind, fields in schemes.items():
            body = TABLE_CONFIG + f"n_realizations = 2\nwindow_m = 1500\nscheme.kind = {kind}\n{fields}"
            path = write_config(tmp_path, body, name=f"{kind}.cfg")
            out = tmp_path / kind
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--axis", "mu", "--values", "0.3,0.5"]) == 0
            rc = cli.resolve_config(cli.parse_config_file(path))
            expected, planned = [], []
            for mu in (0.3, 0.5):
                plan = planner.decoupled_optimize(rc.params, ConstraintSpec(mu=mu))
                scheme = cli.planned_scheme(kind, plan)
                assert scheme.to_dict() == {"kind": kind, "delta": plan.delta_star,
                                            **({"p_s": plan.p_s_star} if "fraction" in kind
                                               else {"g": plan.g_star})}
                planned.append(scheme)
                report = simkit.run_experiment(dataclasses.replace(rc, mu=mu, scheme=scheme))
                expected.append((mu, report))
            assert planned[0] != planned[1]
            assert (out / "sweep.csv").read_text() == cli._csv(
                [row for mu, report in expected
                 for row in cli._stat_rows(report, axis="mu", value=mu)])

    def test_mu_axis_without_d2d_links_plans_zero_threshold(self, tmp_path):
        # at lambda_d = 0 every mu plans p_s* = 1, g* = 0: admit every candidate
        body = TABLE_CONFIG + ("lambda_d = 0\nn_realizations = 2\nwindow_m = 1200\n"
                               "lambda_m = 4e-6\nscheme.kind = proposed_threshold\n"
                               "scheme.delta = 229\nscheme.g_db = -0.59\n")
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--axis", "mu", "--values", "0.3,0.5"]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2 * 7

    def test_empty_values_exit_two(self, tmp_path):
        path = write_config(tmp_path, TABLE_CONFIG)
        assert cli.main(["sweep", "--config", str(path), "--axis", "delta",
                         "--values", ","]) == 2


class TestCompareCommand:
    def test_subset_rows_and_paired_flag(self, tmp_path):
        body = TABLE_CONFIG + "n_realizations = 4\nwindow_m = 1500\nlambda_m = 4e-6\nlambda_d = 4e-5\n"
        path = write_config(tmp_path, body)
        out = tmp_path / "cmp"
        code = cli.main(["compare", "--config", str(path), "--out", str(out),
                         "--scheme", "guard_zone_only", "--scheme", "no_ac"])
        assert code == 0
        result = json.loads((out / "compare.json").read_text())
        assert set(result["rows"]) == {"guard_zone_only", "no_ac"}
        assert all(row["paired_seeds"] for row in result["rows"].values())
        csv_lines = (out / "compare.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("scheme,")
        assert len(csv_lines) == 3

    def test_without_d2d_links_proposes_zero_threshold(self, tmp_path):
        body = TABLE_CONFIG + "lambda_d = 0\nn_realizations = 2\nwindow_m = 1200\nlambda_m = 4e-6\n"
        path = write_config(tmp_path, body)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(path), "--out", str(out),
                         "--tuning-realizations", "2"]) == 0
        rows = json.loads((out / "compare.json").read_text())["rows"]
        assert rows["proposed"]["scheme"]["g"] == 0.0
        assert set(rows) == set(cli.COMPARE_SCHEMES)

    @pytest.mark.parametrize("call", [cli.tune_channel_aware, cli.compare_schemes])
    def test_no_tuning_networks_names_n_tuning(self, tmp_path, call):
        rc = cli.resolve_config(cli.parse_config_file(write_config(tmp_path, TABLE_CONFIG)))
        with pytest.raises(ParameterError, match="n_tuning must be at least 1, got 0"):
            call(rc, n_tuning=0)


SUBCOMMANDS = ("analyze", "simulate", "optimize", "sweep", "compare")

MALFORMED_CASES = [
    # (extra config lines, extra CLI arguments, text the error must name);
    # text replaces the lines that set its keys, bytes extend the config file
    # as raw bytes, "{tmp}" is the test's directory;
    # CLI arguments may start with the subcommand to run
    ("scheme.kind = guard_zone_only\nscheme.delta = nan\n", (), "scheme.delta"),
    ("rate_ceiling = nan\n", (), "rate_ceiling"),
    ("lambda_d = nan\n", (), "lambda_d"),
    ("window_m = inf\n", (), "window_m"),
    ("ccdf_points_db = 1,x\n", (), "ccdf_points_db"),
    ("scheme.kind = guard_zone_only\nscheme.delta = 0\n",
     ("--axis", "delta", "--values", "1,x"), "--values"),
    ("seed = -1\n", (), "seed"),
    ("", ("--seed", "-1"), "seed"),
    ("", ("--config", "{tmp}/cfgdir"), "cfgdir"),
    (b"# caf\xe9\n", (), "run.cfg"),
    ("", ("--out", "{tmp}/run.cfg"), "--out"),
    ("", ("--tuning-realizations", "0"), "--tuning-realizations"),
    ("ccdf_points_db = 10,0\n", (), "ccdf_points_db must be sorted"),
    ("", ("--axis", "mu", "--values", "0.3"), "scheme.kind"),
    ("scheme.kind = proposed_threshold\nscheme.delta = 229\nscheme.g_db = -0.59\n",
     ("--axis", "mu", "--values", "0.3,2"), "mu must be in [0, 1]"),
    ("d = 2000\n", ("compare",), "d = 2000.0 m exceeds half the window side, 1500.0 m"),
    ("p_c_mw = -1\n", (), "p_c_mw must be positive"),
    ("p_d_mw = 0\n", (), "p_d_mw must be positive"),
    ("n_jobs = 0\n", ("analyze",), "n_jobs"),
    ("n_realizations = 0\n", ("analyze",), "n_realizations"),
    ("n_jobs = 0\n", ("optimize",), "n_jobs"),
    ("n_realizations = 0\n", ("optimize",), "n_realizations"),
    ("beta_db = 4000\n", (), "beta_db"),
    ("gamma_db = 4000\n", (), "gamma_db"),
    ("scheme.kind = proposed_threshold\nscheme.delta = 229\nscheme.g_db = 4000\n", (),
     "scheme.g_db"),
    ("window_m = 1e300\n", ("analyze",), "window_m = 1e+300"),
    ("alpha = 400\n", (), "alpha = 400.0: the pathloss underflows"),
    ("d = 1e-308\n", (), "d = 1e-308 m is too short"),
    ("lambda_m = 1e-308\n", (), "lambda_m = 1e-308 per m^2 over a 3000 x 3000 m window (window_m)"),
    ("lambda_d = 1e-2\n", (), "lambda_d = 0.01 and lambda_m = 1e-06"),
    ("", ("--axis", "lambda_d", "--values", "6e-5,1e-2"), "lambda_d = 0.01 and lambda_m"),
    ("ccdf_points_db = 0,4000\n", (), "ccdf_points_db = 4000.0 dB overflows"),
    (b"seed = 4\n", (), "run.cfg:15: key 'seed' repeats line 13"),
]


def _case_id(case) -> str:
    _, argv, field = case
    return f"{argv[0]} {field}" if argv and argv[0] in SUBCOMMANDS else field


@pytest.mark.parametrize("extra, argv, field", MALFORMED_CASES,
                         ids=[_case_id(case) for case in MALFORMED_CASES])
def test_malformed_input_exits_two_naming_the_field(tmp_path, capsys, monkeypatch,
                                                    extra, argv, field):
    body = TABLE_CONFIG + "n_realizations = 1\n"
    path = tmp_path / "run.cfg"
    if isinstance(extra, bytes):
        path.write_bytes(body.encode() + extra)
    else:
        path.write_text(set_once(body + extra))
    (tmp_path / "cfgdir").mkdir()

    def computation_started(*args, **kwargs):
        raise AssertionError("malformed input must be rejected before any computation")

    for module, name in ((cli, "cmd_analyze"),
                         (cli.simkit, "run_experiment"), (cli.simkit, "run_schemes"),
                         (cli.simkit, "sweep"),
                         (cli.planner, "decoupled_optimize"),
                         (cli.planner, "solve_guard_radius")):
        monkeypatch.setattr(module, name, computation_started)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv and argv[0] in SUBCOMMANDS:
        subcommand, *argv = argv
    elif "--axis" in argv:
        subcommand = "sweep"
    elif "--tuning-realizations" in argv:
        subcommand = "compare"
    else:
        subcommand = "simulate"
    code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, table", [("analyze", "analyze.json"),
                                               ("optimize", "plan.json")])
def test_alpha_six_exits_zero(tmp_path, subcommand, table):
    # the keep-out transform's closed form covers every exponent; the quadrature
    # it replaced reported divergence here and ended with exit 3
    path = write_config(tmp_path, TABLE_CONFIG + "alpha = 6\n")
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    values = json.loads((out / table).read_text())
    assert all(math.isfinite(v) for v in values.values() if isinstance(v, float))


@pytest.mark.parametrize("subcommand", ["analyze", "optimize"])
@pytest.mark.parametrize("extra", ["alpha = 400", "lambda_m = 1e-300"])
def test_quadrature_overflow_exits_three(tmp_path, capsys, extra, subcommand):
    path = write_config(tmp_path, TABLE_CONFIG + extra + "\n")
    code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical error: quadrature overflowed") and err.count("\n") == 1


def test_undrawable_poisson_mean_exits_two(tmp_path, capsys):
    # the size bound meets this density before the Poisson draw would
    # (spatial.sample_ppp's own error is tested in test_spatial)
    path = write_config(tmp_path, TABLE_CONFIG + "n_realizations = 1\nlambda_d = 1e300\n")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "lambda_d = 1e+300 and lambda_m = 1e-06" in err and "(window_m)" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# Edge texts fed to every config key, one key at a time, over a small run
FUZZ_TEXTS = ("", "nan", "inf", "-0", "1e308", "1e-308", "9" * 30, "\u00e9")
FUZZ_BASE = "seed = 1\nn_realizations = 1\nwindow_m = 1000\nn_jobs = 1\n"


@pytest.mark.parametrize("key", [key for key, *_ in cli.FIELDS])
def test_every_config_text_exits_zero_two_or_three(tmp_path, capsys, key):
    # n_realizations runs through analyze: a long digit string would
    # otherwise be a run of that many realizations
    subcommand = "analyze" if key == "n_realizations" else "simulate"
    for i, text in enumerate(FUZZ_TEXTS):
        path = tmp_path / f"fuzz{i}.cfg"
        path.write_text(set_once(f"{FUZZ_BASE}{key} = {text}\n"), encoding="utf-8")
        code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (text, code, err)
        assert "Traceback" not in err, (text, err)


# compiled SciPy extensions that only the analytic side needs
SCIPY_EXTENSIONS = ("scipy.special._ufuncs", "scipy.integrate._quadpack")


def run_fresh(tmp_path, *argvs) -> list[str]:
    """Run ``cli.main`` on each argv in one new interpreter; the SciPy
    extensions loaded afterwards."""
    code = ("import json, sys\n"
            "from d2dsim import cli\n"
            f"for argv in {list(argvs)!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"print(json.dumps([m for m in {SCIPY_EXTENSIONS!r} if m in sys.modules]))\n")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestFreshInterpreter:
    def test_monte_carlo_never_loads_scipy(self, tmp_path):
        body = TABLE_CONFIG + ("n_realizations = 2\nwindow_m = 1200\nlambda_m = 4e-6\n"
                               "scheme.kind = proposed_threshold\nscheme.delta = 229\n"
                               "scheme.g_db = -0.59\n")
        path = str(write_config(tmp_path, body))
        loaded = run_fresh(tmp_path, ["simulate", "--config", path, "--out", "sim"],
                           ["sweep", "--config", path, "--out", "sweep",
                            "--axis", "delta", "--values", "50,150"])
        assert loaded == []

    def test_analyze_loads_scipy_and_matches_an_in_process_run(self, tmp_path):
        path = str(write_config(tmp_path, TABLE_CONFIG))
        loaded = run_fresh(tmp_path, ["analyze", "--config", path, "--out", "fresh"])
        assert loaded == list(SCIPY_EXTENSIONS)
        out = tmp_path / "here"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        assert (tmp_path / "fresh" / "analyze.json").read_bytes() == \
            (out / "analyze.json").read_bytes()
