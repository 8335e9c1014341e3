import json

import pytest

from d2dsim import cli

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


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
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

    def test_round_trip_parse_serialize_parse(self, tmp_path):
        body = TABLE_CONFIG + "scheme.kind = proposed_top_fraction\nscheme.delta = 229\nscheme.p_s = 0.45\n"
        rc1 = cli.resolve_config(cli.parse_config_file(write_config(tmp_path, body)))
        path2 = write_config(tmp_path, cli.serialize_config(rc1), name="round.cfg")
        rc2 = cli.resolve_config(cli.parse_config_file(path2))
        assert rc1.resolved_dict() == rc2.resolved_dict()
        assert cli.serialize_config(rc1) == cli.serialize_config(rc2)

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


MALFORMED_CASES = [
    # (extra config lines, extra CLI arguments, text the error must name);
    # bytes extend the config file as raw bytes, "{tmp}" is the test's directory
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
]


@pytest.mark.parametrize("extra, argv, field", MALFORMED_CASES,
                         ids=[case[2] for case in MALFORMED_CASES])
def test_malformed_input_exits_two_naming_the_field(tmp_path, capsys, monkeypatch,
                                                    extra, argv, field):
    body = TABLE_CONFIG + "n_realizations = 1\n"
    path = tmp_path / "run.cfg"
    if isinstance(extra, bytes):
        path.write_bytes(body.encode() + extra)
    else:
        path.write_text(body + extra)
    (tmp_path / "cfgdir").mkdir()

    def computation_started(*args, **kwargs):
        raise AssertionError("malformed input must be rejected before any computation")

    for module, name in ((cli.simkit, "run_experiment"), (cli.simkit, "sweep"),
                         (cli.planner, "decoupled_optimize"),
                         (cli.planner, "solve_guard_radius")):
        monkeypatch.setattr(module, name, computation_started)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--axis" in argv:
        subcommand = "sweep"
    elif "--tuning-realizations" in argv:
        subcommand = "compare"
    else:
        subcommand = "simulate"
    code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    assert code == 2
    assert field in capsys.readouterr().err
