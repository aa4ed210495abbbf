import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hballs.errors import NearSingularEvaluation, NonFiniteResult
from hballs.theorems import HarnessConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("HBALLS_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hballs", *args],
        capture_output=True, text=True, env=env)


class TestLandauCommand:
    def test_reference_row(self):
        proc = run_cli("landau", "--n", "1", "--alpha", "1", "--m", "1")
        assert proc.returncode == 0
        assert "0.1071428571, 0.0535714286, 0.0267857143" in proc.stdout

    def test_range_is_strictly_decreasing(self):
        proc = run_cli("landau", "--n", "1..4", "--alpha", "1", "--m", "1")
        assert proc.returncode == 0
        rows = [line for line in proc.stdout.splitlines() if line and line[0].isdigit()]
        rhos = [float(line.split(",")[3]) for line in rows]
        assert len(rhos) == 4
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_alpha_zero_is_config_error(self):
        proc = run_cli("landau", "--alpha", "0")
        assert proc.returncode == 2

    def test_csv_export(self, tmp_path):
        out = tmp_path / "landau.csv"
        proc = run_cli("landau", "--n", "1,2", "--alpha", "1", "--m", "1",
                       "--out", str(out))
        assert proc.returncode == 0
        text = out.read_bytes().decode()
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "n,alpha,M,rho,half_rho,r_lower"
        assert len(lines) == 3

    def test_missing_config_file_is_config_error(self):
        proc = run_cli("landau", "--config", "/nonexistent/landau.cfg", "--n", "1")
        assert proc.returncode == 2
        assert "cannot read config file" in proc.stderr

    def test_config_file_sets_the_defaults(self, tmp_path):
        cfg = tmp_path / "landau.cfg"
        cfg.write_text("alpha=2\n")
        default = run_cli("landau")
        from_file = run_cli("landau", "--config", str(cfg))
        assert default.returncode == 0 and from_file.returncode == 0
        assert "1, 1, 1, 0.1071428571" in default.stdout
        assert "1, 2, 1, 0.0900000000" in from_file.stdout
        # a flag still overrides the file
        flag = run_cli("landau", "--config", str(cfg), "--alpha", "1")
        assert flag.stdout == default.stdout

    @pytest.mark.parametrize("spec, message", [
        ("4..1", "config error: empty range '4..1'"),
        ("", "config error: bad integer range or list ''"),
        ("1..x", "config error: bad integer range or list '1..x'")])
    def test_empty_or_malformed_dimension_range_exit_2(self, spec, message):
        # a descending range once printed only the CSV header and exited 0
        proc = run_cli("landau", "--n", spec)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag, spec", [("--alpha", "x"), ("--m", "1,,2")])
    def test_malformed_number_list_is_refused_by_its_flag(self, flag, spec):
        # float() once leaked "could not convert string to float"
        proc = run_cli("landau", flag, spec)
        assert proc.returncode == 2
        assert proc.stderr == f"config error: {flag} must be a comma list of numbers, got {spec!r}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag, message", [
        ("--alpha", "alpha must be positive"), ("--m", "the norm bound M must be >= 1")])
    def test_nan_is_refused_by_its_own_field(self, flag, message):
        # NaN once passed the field checks and blamed the constants instead
        proc = run_cli("landau", flag, "nan")
        assert proc.returncode == 2
        assert proc.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        ("--alpha", "alpha must be finite, got inf"),
        ("--m", "the norm bound M must be finite, got inf")])
    def test_infinity_is_refused_by_its_own_field(self, flag, message):
        # inf once passed the field checks and blamed the constants instead
        proc = run_cli("landau", flag, "inf")
        assert proc.returncode == 2
        assert proc.stderr == f"config error: {message}\n"
        assert proc.stdout == ""

    def test_constants_beyond_double_range_are_refused_by_name(self):
        # (2M)^(2n) once raised an uncaught OverflowError: a traceback, exit 1
        proc = run_cli("landau", "--m", "1e80", "--n", "2")
        assert proc.returncode == 2
        assert proc.stderr == ("config error: Landau constants at n=2, alpha=1, M=1e+80 "
                               "do not fit in double precision\n")
        assert proc.stdout == ""

    def test_seed_is_not_a_landau_flag(self):
        proc = run_cli("landau", "--seed", "3", "--n", "1")
        assert proc.returncode == 2
        assert "--seed" in proc.stderr


class TestExtendCommand:
    def test_constant_boundary(self, tmp_path):
        out = tmp_path / "f.csv"
        proc = run_cli("extend", "--n", "1", "--boundary", "const:1",
                       "--nodes", "1024", "--points", "grid:0.1:0.7:8",
                       "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re(z_1),im(z_1),re(f),im(f)"
        values = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(values[:, 2], 1.0, atol=1e-10)
        np.testing.assert_allclose(values[:, 3], 0.0, atol=1e-10)

    def test_poisson_identity_point(self):
        proc = run_cli("extend", "--n", "1", "--boundary", "re",
                       "--nodes", "4096", "--points", "0.5+0i")
        assert proc.returncode == 0
        row = proc.stdout.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(0.5, abs=1e-8)

    def test_deterministic_output(self, tmp_path):
        # --nodes sizes whichever rule the dimension selects (MC here)
        args = ("extend", "--n", "2", "--boundary", "const:1", "--nodes", "5000",
                "--seed", "42", "--points", "0.1+0i,0.2+0i;0.3+0.1i,0+0i")
        a = run_cli(*args, "--out", str(tmp_path / "a.csv"))
        b = run_cli(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        c = run_cli("extend", "--n", "2", "--boundary", "const:1", "--mc-nodes", "5000",
                    "--seed", "42", "--points", "0.1+0i,0.2+0i;0.3+0.1i,0+0i",
                    "--out", str(tmp_path / "c.csv"))
        assert c.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        # a config file's nodes reads as the flag does
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=5000\n")
        d = run_cli("extend", "--config", str(cfg), *args[1:5], *args[7:],
                    "--out", str(tmp_path / "d.csv"))
        assert d.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()

    def test_bad_flags_exit_2(self):
        assert run_cli("extend", "--n", "1", "--boundary", "nope",
                       "--points", "0+0i").returncode == 2
        assert run_cli("extend", "--n", "1", "--boundary", "re",
                       "--points", "0.5+0i,0.5+0i").returncode == 2
        assert run_cli("extend", "--n", "1", "--points", "0+0i").returncode == 2

    def test_non_finite_boundary_exit_2(self):
        proc = run_cli("extend", "--n", "1", "--boundary", "const:nan", "--nodes", "256",
                       "--points", "0.5+0i")
        assert proc.returncode == 2
        assert "config error: boundary data 'const:nan' is not finite" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_point_exit_2(self):
        proc = run_cli("extend", "--n", "1", "--boundary", "re", "--points", "nan+0i")
        assert proc.returncode == 2
        assert "not finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args, message", [
        (("--boundary", "const:inf", "--points", "0.5+0i"),
         "config error: boundary data 'const:inf' is not finite"),
        (("--boundary", "re", "--points", "inf+0i"),
         "config error: evaluation point 0 is not finite")])
    def test_infinite_input_is_refused_as_not_finite(self, args, message):
        # only a trailing i is the imaginary unit, so inf and nan parse as numbers
        proc = run_cli("extend", "--n", "1", "--nodes", "256", *args)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args, config, message", [
        (("--n", "0"), "", "config error: n must be >= 1, got 0"),
        ((), "samples=0\n", "config error: samples must be >= 1, got 0"),
        ((), "pairs=many\n", "config error: config key pairs='many' is not a int")])
    def test_bad_field_is_refused_by_name(self, tmp_path, args, config, message):
        # extend validates the whole resolved configuration, as verify does
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        proc = run_cli("extend", "--config", str(cfg), *args, "--boundary", "re",
                       "--points", "0.5+0i")
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args, message", [
        (("--n", "1", "--nodes", "3"), "nodes must be >= 4, got 3"),
        # at n >= 2 --nodes sizes the Monte Carlo rule
        (("--n", "2", "--nodes", "50"), "mc_nodes must be >= 100, got 50"),
        (("--n", "1", "--mc-nodes", "50"), "mc_nodes must be >= 100, got 50")])
    def test_rule_size_is_refused_by_name(self, args, message):
        proc = run_cli("extend", *args, "--boundary", "re", "--points", "0.5+0i")
        assert proc.returncode == 2
        assert f"config error: {message}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("--n", "1", "--boundary", "re", "--nodes", "4096", "--points", "0.5+0i"),
        ("--n", "2", "--boundary", "crossprod", "--mc-nodes", "2000",
         "--points", "grid:0.1:0.7:3")])
    def test_stdout_equals_out_file(self, tmp_path, args):
        out = tmp_path / "f.csv"
        to_file = run_cli("extend", *args, "--out", str(out))
        to_stdout = run_cli("extend", *args)
        assert to_file.returncode == 0 and to_stdout.returncode == 0
        assert to_file.stdout == ""
        assert to_stdout.stdout.encode() == out.read_bytes()

    @pytest.mark.parametrize("rmax, point", [
        ("1.5", "1.2+0i"), ("1", "0.5+0i"), ("0", "0+0i"), ("-0.5", "0.3+0i"), ("nan", "0+0i")])
    def test_rmax_outside_unit_interval_exit_2(self, rmax, point):
        # the guard radius must keep evaluation inside the open ball
        proc = run_cli("extend", "--n", "1", "--boundary", "re", "--nodes", "256",
                       "--rmax", rmax, "--points", point)
        assert proc.returncode == 2
        assert f"config error: rmax must lie in (0, 1), got {float(rmax)}" in proc.stderr
        assert proc.stdout == ""

    def test_rmax_from_config_file_is_checked(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rmax=1.5\n")
        proc = run_cli("extend", "--config", str(cfg), "--n", "1", "--boundary", "re",
                       "--points", "0.5+0i")
        assert proc.returncode == 2
        assert "rmax must lie in (0, 1), got 1.5" in proc.stderr

    def test_numerical_failure_exit_3(self):
        # a point beyond the guard radius aborts with the offending input
        proc = run_cli("extend", "--n", "1", "--boundary", "re",
                       "--rmax", "0.8", "--points", "0.95+0i")
        assert proc.returncode == 3
        assert "0.95" in proc.stderr


class TestVerifyCommand:
    def test_non_finite_derivatives_exit_3(self, monkeypatch, capsys):
        # a closed form that is NaN inside the ball is a numerical failure, not a
        # configuration error
        from hballs import cli, theorems

        def nan(pts):
            return np.full(len(pts), np.nan)

        registry = [dataclasses.replace(entry, exact_extension=nan)
                    if entry.label == "fourier" else entry
                    for entry in theorems.boundary_registry(1)]
        monkeypatch.setattr(theorems, "boundary_registry", lambda n: registry)
        code = cli.main(["verify", "--suite", "thm24", "--n", "1", "--nodes", "256"])
        assert code == 3
        assert "numerical failure: Wirtinger data must be finite" in capsys.readouterr().err

    def test_an_odd_circle_rule_refuses_value_errors(self, tmp_path, capsys):
        # schwarzpick reads the half-rule gap, which an odd rule does not have;
        # lemma21's extension takes values alone and runs on it
        from hballs import cli

        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "schwarzpick", "--n", "1", "--nodes", "4097",
                         "--out", str(out)]) == 2
        assert "4097 nodes, an odd count, has no half rule" in capsys.readouterr().err
        assert cli.main(["verify", "--suite", "lemma21", "--n", "2", "--nodes", "4097",
                         "--out", str(out)]) == 0
        assert all(check["pass"] for check in json.loads(out.read_text())["checks"])

    @pytest.mark.parametrize("exc, echo", [
        (NearSingularEvaluation("too close", point=np.array([0.9 + 0j])), " (point [0.9+0.j])"),
        (NonFiniteResult("not finite"), "")])
    def test_numerical_failure_echoes_its_point(self, monkeypatch, capsys, exc, echo):
        from hballs import cli

        def fail(name, cfg):
            raise exc

        monkeypatch.setattr(cli, "run_suite", fail)
        assert cli.main(["verify", "--suite", "lemmaB"]) == 3
        assert capsys.readouterr().err == f"numerical failure: {exc}{echo}\n"

    def test_lemmab_exit_zero(self):
        proc = run_cli("verify", "--suite", "lemmaB", "--samples", "2000", "--seed", "7")
        assert proc.returncode == 0

    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "landau", "--seed", "1",
                       "--out", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        doc = json.loads(text)
        assert list(doc)[0] == "schema"
        assert doc["schema"] == "hballs.verify-report/1"
        assert set(doc["summary"]) == {"total", "passed", "failed", "wall_ms"}
        assert doc["summary"]["wall_ms"] is None
        assert doc["summary"]["failed"] == 0
        assert doc["config"]["seed"] == 1
        first = doc["checks"][0]
        for key in ("check_id", "lhs", "rhs", "margin", "pass", "tolerance"):
            assert key in first
        constants = next(c for c in doc["checks"] if "constants" in c["check_id"])
        assert constants["inputs"]["rho"] == pytest.approx(3.0 / 28.0, rel=1e-15)

    def test_timings_flag_records_wall_time(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "landau", "--seed", "1",
                       "--timings", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["summary"]["wall_ms"], int)

    def test_unknown_suite_exit_2(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 2

    def test_invalid_alpha_exit_2(self):
        assert run_cli("verify", "--suite", "landau", "--alpha", "0").returncode == 2

    @pytest.mark.parametrize("flag, suite", [
        ("--samples", "schwarzpick"), ("--samples", "lemmaB"), ("--pairs", "landau"),
        ("--n", "lemmaB")])
    def test_empty_sweep_exit_2(self, flag, suite):
        proc = run_cli("verify", "--suite", suite, flag, "0")
        assert proc.returncode == 2
        assert f"config error: {flag[2:]} must be >= 1, got 0" in proc.stderr

    @pytest.mark.parametrize("suite", ["lemmaB", "lemma21", "schwarzpick"])
    @pytest.mark.parametrize("args, message", [
        (["--nodes", "2"], "nodes must be >= 4, got 2"),
        (["--mc-nodes", "5"], "mc_nodes must be >= 100, got 5")])
    def test_rule_sizes_do_not_depend_on_the_suite(self, tmp_path, suite, args, message):
        # lemmaB once exited 0 with both values in its report, and lemma21
        # refused nodes 2 without naming the field
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", suite, "--samples", "10", *args, "--out", str(out))
        assert proc.returncode == 2
        assert f"config error: {message}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rmax, suite", [("1.5", "schwarzpick"), ("-1", "lemma33")])
    def test_rmax_outside_unit_interval_exit_2(self, rmax, suite):
        proc = run_cli("verify", "--suite", suite, "--rmax", rmax)
        assert proc.returncode == 2
        assert f"config error: rmax must lie in (0, 1), got {float(rmax)}" in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["--m", "nan", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["--m", "nan"], "m must be finite, got nan"),
        (["--alpha=-inf"], "alpha must be finite, got -inf")])
    def test_non_finite_alpha_or_m_is_refused_by_name(self, tmp_path, args, message):
        # both once reached the report as the invalid JSON tokens NaN and Infinity
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "lemmaB", "--samples", "10", *args, "--out", str(out))
        assert proc.returncode == 2
        assert f"config error: {message}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["lemmaB", "landau"])
    @pytest.mark.parametrize("args, message", [
        (["--alpha", "0", "--m", "0.5"], "alpha must be > 0, got 0.0"),
        (["--m", "0.5"], "m must be >= 1, got 0.5")])
    def test_alpha_and_m_ranges_do_not_depend_on_the_suite(self, tmp_path, suite, args, message):
        # lemmaB once exited 0 and wrote alpha 0 and m 0.5 into its report
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", suite, "--samples", "10", *args, "--out", str(out))
        assert proc.returncode == 2
        assert f"config error: {message}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("suite, args, given, culprit", [
        # 3^alpha overflowed: a traceback and exit 1, for "all" after every other suite
        ("landau", ["--alpha", "800"], "n=1, alpha=800 and m=1", "n=1, alpha=800, M=1"),
        ("all", ["--alpha", "800"], "n=1, alpha=800 and m=1", "n=1, alpha=800, M=1"),
        # r_lower underflowed at n = 3 of the monotonicity sweep and blamed the constants
        ("landau", ["--m", "1e40"], "n=1, alpha=1 and m=1e+40", "n=3, alpha=1, M=1e+40")])
    def test_landau_constants_beyond_double_range_are_refused_first(self, tmp_path, suite,
                                                                     args, given, culprit):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", suite, *args, "--out", str(out))
        assert proc.returncode == 2
        # the whole of stderr: no suite ran and printed a check line
        assert proc.stderr == (f"config error: {given} are beyond the landau suite's range: "
                               f"Landau constants at {culprit} do not fit in double precision\n")
        assert not out.exists()

    def test_reproducible_bytes(self, tmp_path):
        args = ("verify", "--suite", "lemma22", "--seed", "3", "--samples", "512")
        a = run_cli(*args, "--out", str(tmp_path / "a.json"))
        b = run_cli(*args, "--out", str(tmp_path / "b.json"))
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestConfigHandling:
    def test_env_seed_overrides_default_only(self, tmp_path):
        out_env = tmp_path / "env.json"
        proc = run_cli("verify", "--suite", "landau", "--out", str(out_env),
                       env_extra={"HBALLS_SEED": "9"})
        assert proc.returncode == 0
        assert json.loads(out_env.read_text())["config"]["seed"] == 9

        out_flag = tmp_path / "flag.json"
        proc = run_cli("verify", "--suite", "landau", "--seed", "2",
                       "--out", str(out_flag), env_extra={"HBALLS_SEED": "9"})
        assert json.loads(out_flag.read_text())["config"]["seed"] == 2

    @pytest.mark.parametrize("route", ["flag", "config", "env"])
    def test_negative_seed_is_refused_by_name(self, tmp_path, route):
        # numpy's own refusal ("expected non-negative integer") named no field
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n" if route == "config" else "")
        args = ["--seed", "-1"] if route == "flag" else []
        env = {"HBALLS_SEED": "-1"} if route == "env" else None
        proc = run_cli("verify", "--suite", "lemmaB", "--samples", "1", "--config", str(cfg),
                       *args, env_extra=env)
        assert proc.returncode == 2
        assert "config error: seed must be >= 0, got -1" in proc.stderr
        assert proc.stdout == ""

    def test_config_file_between_flags_and_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nnodes=512\n# comment line\n")
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "landau", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 5
        assert doc["config"]["nodes"] == 512

        proc = run_cli("verify", "--suite", "landau", "--config", str(cfg),
                       "--seed", "8", "--out", str(out))
        assert json.loads(out.read_text())["config"]["seed"] == 8

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "lemmaB", "--samples", "5"],
        ["extend", "--boundary", "re", "--points", "0.5+0i"],
        ["landau"]], ids=["verify", "extend", "landau"])
    def test_unknown_config_key_is_refused(self, tmp_path, command):
        # a dash for the underscore was once dropped silently: exit 0, mc_nodes 200000
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mc-nodes=500\n")
        proc = run_cli(*command, "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr == ("config error: unknown config key 'mc-nodes'; known keys: n, "
                               "nodes, mc_nodes, seed, rmax, samples, pairs, alpha, m\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_retired_trials_is_refused_by_name(self, tmp_path, route):
        # lemmaB's stacks are sized by samples; the old trials knob names no field
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=10\n" if route == "config" else "")
        args = ["--trials", "10"] if route == "flag" else []
        proc = run_cli("verify", "--suite", "lemmaB", "--config", str(cfg), *args)
        assert proc.returncode == 2
        named = "unknown config key 'trials'" if route == "config" else "--trials 10"
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        assert run_cli("verify", "--suite", "landau",
                       "--config", str(cfg)).returncode == 2


def _changed(value):
    """A valid value of the default's type that differs from it (m >= 1, rmax < 1)."""
    if isinstance(value, int):
        return value + 1
    return value * 2 if value >= 1 else value / 2


@pytest.mark.parametrize("source", ["flag", "file", "default"])
@pytest.mark.parametrize("field", dataclasses.fields(HarnessConfig), ids=lambda f: f.name)
def test_every_field_reaches_the_report(monkeypatch, tmp_path, field, source):
    from hballs import cli

    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: [])
    monkeypatch.delenv("HBALLS_SEED", raising=False)
    key = field.name
    value = field.default if source == "default" else _changed(field.default)
    args = ["verify", "--suite", "landau", "--out", str(tmp_path / "report.json")]
    if source == "flag":
        args += ["--" + key.replace("_", "-"), str(value)]
    elif source == "file":
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(args) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    keys = [f.name for f in dataclasses.fields(HarnessConfig)]
    assert list(config) == ["suite", *keys]
    assert config[key] == value
    assert type(config[key]) is type(field.default)


def test_extend_takes_the_config_flags_it_reads(capsys):
    from hballs import cli

    parser = cli.build_parser()
    args = parser.parse_args(["extend", "--n", "2", "--nodes", "8", "--mc-nodes", "200",
                              "--seed", "3", "--rmax", "0.5"])
    assert (args.n, args.nodes, args.mc_nodes, args.seed, args.rmax) == (2, 8, 200, 3, 0.5)
    with pytest.raises(SystemExit):
        parser.parse_args(["extend", "--samples", "5"])
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("flags", [
    ["--n", "1", "--nodes", "512"],
    ["--n", "2", "--mc-nodes", "2000"],
    ["--n", "3", "--mc-nodes", "2000"]], ids=["n1", "n2", "n3"])
def test_all_suites_write_strict_json(tmp_path, flags):
    # NaN and Infinity are Python's JSON extensions; a strict reader refuses them
    from hballs import cli

    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "all", *flags, "--seed", "2", "--samples", "20",
                     "--pairs", "200", "--out", str(out)])
    doc = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert code == 0 and doc["summary"]["failed"] == 0


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "landau"],
    ["extend", "--boundary", "re", "--points", "0.5+0i"],
    ["landau", "--n", "1"]], ids=["verify", "extend", "landau"])
def test_unwritable_out_is_config_error(tmp_path, command):
    # a missing directory or a directory as --out once exited 1 with a traceback
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        proc = run_cli(*command, "--out", str(out))
        assert proc.returncode == 2
        assert "config error: cannot write output file" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "all", "--n", "2"],
    ["extend", "--n", "2", "--boundary", "bump", "--points", "0.1+0i,0.2j"],
    ["landau", "--n", "1..4"]], ids=["verify", "extend", "landau"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    # verify --suite all --n 2 once computed every suite before it exited 2,
    # extend built its rule and evaluated every point, and landau printed its
    # whole table first
    from hballs import cli, theorems

    calls = []
    for name in theorems.SUITES:
        monkeypatch.setitem(theorems.SUITES, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(cli, "landau_constants", lambda *args: calls.append("landau_constants"))
    monkeypatch.setattr(cli, "rule_for", lambda *args: calls.append("rule_for"))
    monkeypatch.setattr(cli, "h_extend", lambda *args, **kwargs: calls.append("h_extend"))
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        assert cli.main([*command, "--out", str(out)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error: cannot write output file") == 2


def test_writability_probe_leaves_files_as_it_found_them(tmp_path):
    from hballs import cli

    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_bytes(b"earlier report\n")
    cli.check_writable(str(fresh))
    cli.check_writable(str(kept))
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier report\n"

