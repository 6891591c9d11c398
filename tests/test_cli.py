import filecmp
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from homogkit import cli
from homogkit.cli import (ConfigError, ExperimentConfig, main, parse_config, run,
                          serialize_config)
from homogkit.grid import GridFunction
from homogkit.solvers import SolverError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config("subcommand: cell\nfamily: laminate\n")
        assert cfg.subcommand == "cell"
        assert cfg.family == "laminate"
        assert cfg.seed == 0
        assert cfg.tol == 1e-10
        assert cfg.out is None

    def test_all_violations_collected(self):
        text = (
            "subcommand: solve\n"
            "family: zebra\n"
            "tol: 2.0\n"
            "seed: lots\n"
            "eps: 0.3\n"
            "banana: true\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = "\n".join(exc.value.violations)
        assert len(exc.value.violations) == 5
        assert "banana" in msgs
        assert "family" in msgs
        assert "tol" in msgs
        assert "seed" in msgs
        assert "dyadic" in msgs

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config("subcommand: fly\n")

    def test_non_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- 1\n- 2\n")

    def test_syntax_error_located(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("subcommand: [unclosed\n")

    def test_solve_eps_resolved_by_n(self):
        text = "subcommand: solve\nfamily: trig\nn: 16\neps: {}\n"
        with pytest.raises(ConfigError, match="not resolved by n = 16"):
            parse_config(text.format(0.03125))
        assert parse_config(text.format(1.0))["eps"] == 1.0

    def test_eps_list_checked_per_entry(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("subcommand: rates\nfamily: laminate\n"
                         "eps: [0.125, 0.1]\n")
        assert len(exc.value.violations) == 1
        assert "0.1" in exc.value.violations[0]

    def test_defaults_are_read_not_written(self):
        # unwritten keys resolve to their _KEYS default, but only the keys as
        # written are serialized, so the config hash does not see defaults
        cfg = parse_config("subcommand: green\nfamily: trig\neps: 0.5\n")
        assert (cfg["n"], cfg["eps"], cfg["probes"]) == (48, 0.5, None)
        assert cfg.extra == {"eps": 0.5}
        assert "n:" not in serialize_config(cfg)

    def test_roundtrip(self):
        text = ("subcommand: rates\nfamily: trig\n"
                "params: {alpha: 2.0, beta: 0.5}\n"
                "eps: [0.125, 0.0625]\nseed: 3\ntol: 1.0e-09\n")
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(CONFIG_DIR) if f.endswith(".yaml")))
    def test_parses(self, name):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            parse_config(fh.read())


class TestRun:
    def test_cell_run_emits_artifacts(self, tmp_path):
        cfg = parse_config("subcommand: cell\nfamily: laminate\n"
                           "params: {d: 1}\nn: 64\n")
        manifest = run(cfg, str(tmp_path))
        assert manifest["ok"]
        assert (tmp_path / "chi0.csv").exists()
        assert (tmp_path / "chi1.csv").exists()
        assert (tmp_path / "cell_summary.json").exists()
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["checks"]["run_completed"] is True
        summary = json.loads((tmp_path / "cell_summary.json").read_text())
        assert max(summary["max_abs_mean"]) <= 1e-10

    def test_manifest_appends_and_records_failure(self, tmp_path):
        ok_cfg = parse_config("subcommand: cell\nfamily: laminate\n"
                              "params: {d: 1}\nn: 64\n")
        run(ok_cfg, str(tmp_path))
        # parse_config rejects this config (resolution guard); the run's own
        # DirichletProblem check fails it when it is built directly
        bad_cfg = ExperimentConfig(subcommand="solve", family="trig",
                                   params={"alpha": 2.0, "beta": 0.5}, seed=0,
                                   tol=1e-10, out=None, extra={"n": 16, "eps": 0.03125})
        manifest = run(bad_cfg, str(tmp_path))
        assert not manifest["ok"]
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["checks"]["run_completed"] is False
        assert "resolution" in rec["checks"]["error"]

    def test_solver_failure_reaches_the_manifest_with_its_residual(self, tmp_path,
                                                                   monkeypatch):
        from homogkit import solvers

        def zeros(A, b, **kwargs):
            return np.zeros_like(b), 0

        for name in ("cg", "bicgstab", "gmres"):
            monkeypatch.setattr(solvers, name, zeros)
        out = tmp_path / "out"
        assert main(["solve", "--config", os.path.join(CONFIG_DIR, "solve_trig.yaml"),
                     "--out", str(out)]) == 1
        rec = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
        assert rec["checks"]["run_completed"] is False
        assert "did not converge" in rec["checks"]["error"]
        assert "final relative residual" in rec["checks"]["error"]

    def test_homogenize_with_flux_forms_the_integrands_once(self, tmp_path, monkeypatch):
        from homogkit import cell
        calls = []
        original = cell._cell_fluxes

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(cell, "_cell_fluxes", counted)
        cfg = parse_config("subcommand: homogenize\nfamily: trig\n"
                           "params: {d: 2, lower: 0.3}\nn: 16\nflux: true\n")
        assert run(cfg, str(tmp_path))["ok"]
        assert len(calls) == 1

    def test_homogenize_flux_check_fails_on_shifted_hats(self, tmp_path, monkeypatch):
        """flux_zero_mean reads the remainders before they are centred, so
        hats that are not the integrands' cell means fail it."""
        from homogkit import cell
        original = cell._hats

        def shifted(*args):
            hats = original(*args)
            return replace(hats, A_hat=hats.A_hat + 1e-3)

        cfg = parse_config("subcommand: homogenize\nfamily: trig\n"
                           "params: {d: 2, lower: 0.3}\nn: 16\nflux: true\n")
        assert run(cfg, str(tmp_path / "exact"))["checks"]["flux_zero_mean"] is True
        monkeypatch.setattr(cell, "_hats", shifted)
        manifest = run(cfg, str(tmp_path / "shifted"))
        assert manifest["checks"]["flux_zero_mean"] is False
        summary = json.loads((tmp_path / "shifted" / "homogenized.json").read_text())
        assert summary["flux_remainder_mean"] == pytest.approx(1e-3)

    def test_rates_run_deterministic(self, tmp_path):
        text = ("subcommand: rates\nfamily: laminate\nparams: {d: 2}\n"
                "eps: [0.25, 0.125, 0.0625]\ndivisor: 16\nn_cell: 64\n"
                "seed: 1\n")
        cfg = parse_config(text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        m1 = run(cfg, str(out1))
        m2 = run(cfg, str(out2))
        assert m1["ok"] and m2["ok"]
        assert filecmp.cmp(out1 / "rates_report.csv",
                           out2 / "rates_report.csv", shallow=False)
        assert (out1 / "rates_loglog.svg").exists()

    def test_rates_probe_kinds_reported(self, tmp_path):
        text = ("subcommand: rates\nfamily: trig\nparams: {d: 2}\n"
                "eps: [0.5, 0.25]\nn_cell: 16\nprobe_kinds: [W1p, Lipschitz]\n")
        assert run(parse_config(text), str(tmp_path))["ok"]
        probes = json.loads((tmp_path / "rates_summary.json").read_text())["probes"]
        assert sorted(probes) == ["Lipschitz", "W1p"]
        for res in probes.values():
            consts = list(res["per_eps"].values())
            assert len(consts) == 2
            assert all(math.isfinite(c) and c > 0 for c in consts)
            assert res["dispersion"] >= 1


# One small config per subcommand, with every check the subcommand can write
# switched on: flux, the battery, and three eps rows for the err_l2 slope.
_TINY = {
    "cell": "subcommand: cell\nfamily: laminate\nparams: {d: 1}\nn: 16\n",
    "homogenize": "subcommand: homogenize\nfamily: trig\nparams: {d: 2, lower: 0.3}\n"
                  "n: 8\nflux: true\n",
    "solve": "subcommand: solve\nfamily: trig\nparams: {d: 2}\nn: 8\neps: 1.0\n",
    "correctors": "subcommand: correctors\nfamily: trig\nparams: {d: 2}\nn: 32\n"
                  "eps: 0.5\nn_cell: 16\n",
    "green": "subcommand: green\nfamily: trig\nparams: {d: 2}\nn: 16\neps: 1.0\n"
             "battery: true\n",
    "rates": "subcommand: rates\nfamily: trig\nparams: {d: 1}\n"
             "eps: [0.25, 0.125, 0.0625]\nn_cell: 16\n",
    "validate": f"subcommand: validate\n"
                f"configs: [{os.path.join(CONFIG_DIR, 'cell_laminate.yaml')}]\n",
}

# Each check the CLI writes, and the test that makes it read false by
# perturbing the data the check reads.
FALSIFIED_BY = {
    "run_completed": "TestRun::test_solver_failure_reaches_the_manifest_with_its_residual",
    "hat_elliptic": "TestChecksReadFalse::test_hat_elliptic",
    "flux_zero_mean": "TestRun::test_homogenize_flux_check_fails_on_shifted_hats",
    "psi_sup_small": "TestChecksReadFalse::test_psi_sup_small",
    "max_principle": "TestChecksReadFalse::test_max_principle",
    "sweep_complete": "TestChecksReadFalse::test_sweep_complete",
    "l2_slope_near_one": "TestChecksReadFalse::test_l2_slope_near_one",
    "all_configs_valid": "TestChecksReadFalse::test_all_configs_valid",
}


def test_green_summary_records_each_probes_residuals(tmp_path, monkeypatch):
    """Every probe of a ``green`` run has an entry in ``green_summary.json``
    holding the verified residual of each of its m column solves, the values
    ``approx_green`` returned; the battery's entry stays last."""
    samples = []

    def keep(*args, **kwargs):
        sample = approx_green(*args, **kwargs)
        samples.append(sample)
        return sample
    approx_green = cli.approx_green
    monkeypatch.setattr(cli, "approx_green", keep)
    cfg = parse_config("subcommand: green\nfamily: nonsymmetric-system\n"
                       "params: {d: 2}\nn: 16\neps: 1.0\nbattery: true\n"
                       "probes: [[0.5, 0.5], [0.25, 0.75]]\ntol: 1.0e-9\n")
    assert run(cfg, str(tmp_path))["ok"]
    fits = json.loads((tmp_path / "green_summary.json").read_text())["fits"]
    assert [f["probe"] for f in fits[:-1]] == [[0.5, 0.5], [0.25, 0.75]]
    assert "C_p" in fits[-1]
    assert len(samples) == 2
    for entry, sample in zip(fits, samples):
        assert entry["residuals"] == sample.residuals
        assert len(entry["residuals"]) == 2
        assert all(0.0 <= r <= 10 * cfg.tol for r in entry["residuals"])


def test_every_check_has_a_test_that_makes_it_read_false(tmp_path):
    written = set()
    for sub in cli.SUBCOMMANDS:
        manifest = run(parse_config(_TINY[sub]), str(tmp_path / sub))
        assert manifest["ok"], (sub, manifest["checks"])
        written |= {k for k, v in manifest["checks"].items() if isinstance(v, bool)}
    assert written == set(FALSIFIED_BY)
    for name in FALSIFIED_BY.values():
        cls, test = name.split("::")
        assert callable(getattr(globals().get(cls), test, None)), name


def _halved_a_hat(homogenize):
    def halved(*args):
        hats = homogenize(*args)
        return replace(hats, A_hat=hats.A_hat / 2)
    return halved


class TestChecksReadFalse:
    """The tiny config of each subcommand, with the data one check reads
    perturbed; each check passes unperturbed in the test above."""

    def _checks(self, tmp_path, sub, text=None):
        return run(parse_config(text or _TINY[sub]), str(tmp_path))["checks"]

    def test_hat_elliptic(self, tmp_path, monkeypatch):
        # with flux off the hats come from cli.homogenize
        monkeypatch.setattr(cli, "homogenize", _halved_a_hat(cli.homogenize))
        text = _TINY["homogenize"].replace("flux: true", "flux: false")
        assert self._checks(tmp_path, "homogenize", text)["hat_elliptic"] is False

    def test_psi_sup_small(self, tmp_path, monkeypatch):
        original = cli.solve_dirichlet_correctors

        def shifted(*args, **kwargs):
            phis = original(*args, **kwargs)
            return replace(phis, phi0=phis.phi0 + 2.0)

        monkeypatch.setattr(cli, "solve_dirichlet_correctors", shifted)
        assert self._checks(tmp_path, "correctors")["psi_sup_small"] is False

    def test_max_principle(self, tmp_path, monkeypatch):
        from homogkit import green
        original = green.solve

        def doubled(*args, **kwargs):
            u, info = original(*args, **kwargs)
            return GridFunction(u.grid, 2.0 * u.values), info

        monkeypatch.setattr(green, "solve", doubled)
        assert self._checks(tmp_path, "green")["max_principle"] is False

    def test_sweep_complete(self, tmp_path, monkeypatch):
        from homogkit import rates
        original, calls = rates.solve_dirichlet_correctors, []

        def second_eps_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise SolverError("no convergence at the second eps")
            return original(*args, **kwargs)

        monkeypatch.setattr(rates, "solve_dirichlet_correctors", second_eps_fails)
        checks = self._checks(tmp_path, "rates")
        assert checks["sweep_complete"] is False and checks["run_completed"] is True

    def test_l2_slope_near_one(self, tmp_path, monkeypatch):
        # a wrong homogenized matrix leaves an eps-independent L2 error
        from homogkit import rates
        monkeypatch.setattr(rates, "homogenize", _halved_a_hat(rates.homogenize))
        assert self._checks(tmp_path, "rates")["l2_slope_near_one"] is False

    def test_all_configs_valid(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        text = _TINY["validate"].replace("]", f", {missing}]")
        assert self._checks(tmp_path, "validate", text)["all_configs_valid"] is False
        summary = json.loads((tmp_path / "validate_summary.json").read_text())
        assert "No such file" in summary[str(missing)]


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        return str(p)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: laminate\n"
                                    "params: {d: 1}\nn: 64\n")
        rc = main(["cell", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "check run_completed: pass" in out

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: zebra\n")
        rc = main(["cell", "--config", cfg])
        assert rc == 2
        assert "invalid config" in capsys.readouterr().err

    # Each config ends with the offending key; the header names the subcommand.
    @pytest.mark.parametrize("text", [
        "subcommand: rates\ndivisor: 0\n",
        "subcommand: rates\ndivisor: 2.5\n",
        "subcommand: solve\nlam: abc\n",
        "subcommand: green\nlam: .nan\n",
        "subcommand: rates\nn_cell: 2\n",
        "subcommand: correctors\nn_cell: true\n",
        "subcommand: green\nrho: -1\n",
        "subcommand: green\nn: 16\nrho: 0.1\n",
        "subcommand: green\np: 0.5\n",
        "subcommand: green\np: two\n",
        "subcommand: cell\nparams: {d: 2, bogus: 1}\n",
        "subcommand: solve\nparams: {d: 2, alpha: abc}\n",
        "subcommand: cell\nparams: {d: 4, beta: 0.1}\n",
        "subcommand: green\nparams: {d: 2}\nprobes: [[0.5]]\n",
        "subcommand: green\nparams: {d: 2}\nprobes: [[1.5, 0.5]]\n",
        "subcommand: correctors\nn: 64\neps: 0.25\nn_cell: 24\n",
        "subcommand: rates\ndivisor: 8\n",
        "subcommand: solve\neps: [0.5, 0.25]\n",
        "subcommand: cell\nfamily: constant\nparams: {d: 2, a0: .inf}\n",
        "subcommand: cell\nfamily: constant\nparams: {d: 2, a0: .nan}\n",
        "subcommand: correctors\nn: 32\neps: 0.25\n",
        "subcommand: rates\nprobe_kinds: [Hessian]\n",
        "subcommand: rates\nprobe_kinds: W1p\n",
        "subcommand: solve\ndata: bump\nseed: -1\n",
        "subcommand: cell\nseed: true\n",
        "subcommand: homogenize\nflux: \"no\"\n",
        "subcommand: green\nbattery: 1\n",
        "subcommand: solve\nlambda_override: \"yes\"\n",
        "subcommand: rates\neps: [0.0625, 0.125, 0.25]\n",
        "subcommand: rates\neps: [0.25, 0.25]\n",
        "subcommand: rates\neps: []\n",
        "subcommand: green\nprobes: []\n",
        "subcommand: green\nparams: {d: 3}\nn: 16\n",
        "subcommand: green\nparams: {d: 3}\nprobes: [[0.25, 0.5, 0.5]]\nn: 32\n",
        "subcommand: cell\nn: null\n",
        "subcommand: solve\ndata: null\n",
        "subcommand: validate\nconfigs: configs/x.yaml\n",
        "subcommand: solve\nparams: {d: 2, lower: 0.5}\nlam: -5\n",
    ], ids=lambda t: t[12:].replace(": ", "=").strip().replace("\n", "-"))
    def test_exit_two_on_bad_numeric_key(self, tmp_path, capsys, text):
        lines = text.splitlines()
        sub, key = lines[0].split(": ")[1], lines[-1].split(":")[0]
        family = "" if "family:" in text else "family: trig\n"
        cfg = self._write(tmp_path, family + text)
        rc = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert f"  - {key} " in err
        assert not (tmp_path / "out").exists()

    def test_green_battery_honours_lambda_override(self, tmp_path, capsys):
        # lam = 0 sits below the coercivity threshold kappa + 2 kappa^2 / mu = 1
        cfg = self._write(tmp_path, "subcommand: green\nfamily: constant\n"
                                    "params: {d: 2, c0: 0.5}\nn: 32\nlam: 0.0\n"
                                    "lambda_override: true\nbattery: true\n")
        out = tmp_path / "out"
        assert main(["green", "--config", cfg, "--out", str(out)]) == 0
        rec = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
        assert rec["checks"]["max_principle"] is True

    def test_rates_n_cell_off_the_divisor(self, tmp_path, capsys):
        # the sweep takes only the hats from the cell correctors, so n_cell
        # need not be a multiple of divisor
        cfg = self._write(tmp_path, "subcommand: rates\nfamily: trig\n"
                                    "params: {d: 2, lower: 0.5}\n"
                                    "eps: [0.25, 0.125, 0.0625]\ndivisor: 16\n"
                                    "n_cell: 24\n")
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "check sweep_complete: pass" in out
        assert "check l2_slope_near_one: pass" in out

    def test_exit_two_on_missing_config(self, capsys):
        rc = main(["cell", "--config", "/nonexistent.yaml"])
        assert rc == 2

    def test_subcommand_mismatch(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: laminate\n")
        rc = main(["homogenize", "--config", cfg])
        assert rc == 2

    def test_seed_override(self, tmp_path):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: laminate\n"
                                    "params: {d: 1}\nn: 64\nseed: 4\n")
        out = tmp_path / "out"
        rc = main(["cell", "--config", cfg, "--out", str(out), "--seed", "9"])
        assert rc == 0
        rec = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
        assert rec["seed"] == 9

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "subcommand: solve\nfamily: trig\n"
                                    "params: {d: 2}\ndata: bump\n")
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert "--seed: seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: laminate\n"
                                    "params: {d: 1}\nn: 64\n")
        env_out = tmp_path / "envout"
        monkeypatch.setenv("HOMOG_KIT_OUT", str(env_out))
        rc = main(["cell", "--config", cfg])
        assert rc == 0
        assert (env_out / "manifest.jsonl").exists()


# Each family's parameters (README, "Coefficient families").
_FAMILY_PARAMS = {
    "constant": ("d", "m", "a0", "v0", "b0", "c0"),
    "laminate": ("d", "m"),
    "laminate-step": ("d", "m", "a1", "a2", "width"),
    "trig": ("d", "m", "alpha", "beta", "lower"),
    "oscillating-potential": ("d", "m", "amp"),
    "nonsymmetric-system": ("d", "delta"),
}
_WRONG_TYPES = ["abc", None, [1.0], {"x": 1}, True]


def _pick(draw, good, bad):
    """One of ``good``, or about one time in five one of ``bad``."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 4 else good))


@st.composite
def _cell_configs(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    params = {}
    for key in _FAMILY_PARAMS[family]:
        if draw(st.booleans()):
            good = [1, 2, 3] if key in ("d", "m") else [0.05, 0.3, 1.0, 2.5, 4.0]
            bad = [0, 4, -1, 2.5] if key in ("d", "m") else [-1.0, 0.0]
            params[key] = _pick(draw, good, bad + _WRONG_TYPES)
    if draw(st.integers(0, 5)) == 5:
        params["bogus"] = 1.0
    return {"subcommand": "cell", "family": family, "params": params,
            "n": _pick(draw, [4, 8, 16], [2, "x"])}


@given(config=_cell_configs())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_config_is_rejected_or_runs_to_completion(config):
    """Family parameters the run cannot use exit 2 at parse time; everything
    else runs to the end (its checks may still fail)."""
    _assert_rejected_or_completes(config)


def _assert_rejected_or_completes(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.yaml"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        rc = main([config["subcommand"], "--config", path, "--out", out])
        if rc == 2:
            assert not os.path.exists(out)
            return
        with open(os.path.join(out, "manifest.jsonl")) as fh:
            checks = json.loads(fh.read().splitlines()[-1])["checks"]
        assert checks.get("run_completed") is True, (config, checks)


@st.composite
def _solve_rates_configs(draw):
    """solve and rates configs on small grids.  solve draws a dyadic eps
    down to 1/4, which n <= 16 resolves only at eps = 1: the resolution
    guard rejects the finer ones at parse time."""
    sub = draw(st.sampled_from(["solve", "rates"]))
    config = {"subcommand": sub, "family": "trig",
              "params": {"d": 2, "lower": 0.5}}   # lambda threshold 1
    if sub == "solve":
        config["n"] = _pick(draw, [8, 16], [2, None])
        config["eps"] = _pick(draw, [1.0, 0.5, 0.25], [0.3, None, [0.5]])
        if draw(st.booleans()):
            config["lambda_override"] = _pick(draw, [True, False], ["yes"])
    else:
        config["eps"] = draw(st.sampled_from([
            [0.5], [0.5, 0.25], [0.25],                     # accepted
            [], [0.25, 0.5], [0.5, 0.5], [0.5, 0.3], [0.25, 0.5, 0.25], 0.5]))
        config["n_cell"] = _pick(draw, [16], [24])
    if draw(st.booleans()):
        config["lam"] = _pick(draw, [0.5, 1.0, 2.0], ["abc", float("nan")])
    if draw(st.booleans()):
        config["data"] = _pick(draw, ["one", "bump"], [None, "two"])
    return config


@given(config=_solve_rates_configs())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_solve_and_rates_configs_are_rejected_or_run_to_completion(config):
    """Eps lists out of order, empty, repeated or not dyadic, lam below the
    threshold without the override and null data exit 2 at parse time."""
    _assert_rejected_or_completes(config)


def _family_params(draw):
    """A family and its params: d = 1..3 and, where the family has it, m."""
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    params = {"d": draw(st.integers(1, 3))}
    if "m" in _FAMILY_PARAMS[family]:
        params["m"] = draw(st.sampled_from([1, 2]))
    return family, params


@st.composite
def _correctors_configs(draw):
    """correctors configs on small grids: every family, d = 1..3, dyadic eps
    and n_cell.  An eps the box cannot resolve and an n_cell off the box
    lattice exit 2 at parse time; d = 3 keeps n and n_cell at most 16."""
    family, params = _family_params(draw)
    sizes = [8, 16, 32] if params["d"] < 3 else [8, 16]
    return {"subcommand": "correctors", "family": family, "params": params,
            "n": draw(st.sampled_from(sizes)),
            "eps": draw(st.sampled_from([1.0, 0.5, 0.25, 0.125])),
            "n_cell": draw(st.sampled_from(sizes))}


@given(config=_correctors_configs())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_correctors_configs_are_rejected_or_run_to_completion(config):
    _assert_rejected_or_completes(config)


@st.composite
def _homogenize_green_validate_configs(draw):
    """homogenize, green and validate configs on small grids.  green draws
    probes, rho, p, the battery, lam and its override and a dyadic eps;
    validate draws lists of shipped and missing config paths."""
    sub = draw(st.sampled_from(["homogenize", "green", "validate"]))
    if sub == "validate":
        paths = [os.path.join(CONFIG_DIR, name) for name in ("cell_laminate.yaml",
                                                             "green_const3d.yaml")]
        good = st.lists(st.sampled_from(paths + ["missing.yaml"]), max_size=3)
        return {"subcommand": sub,
                "configs": _pick(draw, [draw(good)], ["abc", [1], None])}
    family, params = _family_params(draw)
    d = params["d"]
    config = {"subcommand": sub, "family": family, "params": params}
    if sub == "homogenize":
        config["n"] = _pick(draw, [4, 8, 16] if d < 3 else [4, 8], [2, "x"])
        if draw(st.booleans()):
            config["flux"] = _pick(draw, [True, False], ["yes"])
        return config
    config["n"] = draw(st.sampled_from([8, 16, 24] if d < 3 else [8, 12, 16]))
    config["eps"] = _pick(draw, [1.0, 0.5, 0.25], [0.3, None])
    if draw(st.booleans()):
        config["probes"] = _pick(draw, [[[0.5] * d], [[0.25] * d], [[0.5] * d, [0.375] * d]],
                                 [[], [[0.5] * (d + 1)], [[1.5] * d], [[0.0] * d], "abc",
                                  [["x"] * d]])
    if draw(st.booleans()):
        config["rho"] = _pick(draw, [None, 0.125, 0.25], [0.0, -1.0, 1e-3, "abc"])
    if draw(st.booleans()):
        config["p"] = _pick(draw, [1.0, 2.0, 4], [0.5, "abc"])
    if draw(st.booleans()):
        config["battery"] = _pick(draw, [True, False], ["yes"])
    if draw(st.booleans()):
        config["lambda_override"] = _pick(draw, [True, False], [1])
    if draw(st.booleans()):
        config["lam"] = _pick(draw, [None, 0.0, 0.5, 2.0], [float("nan"), "abc"])
    return config


@given(config=_homogenize_green_validate_configs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_homogenize_green_validate_configs_are_rejected_or_run_to_completion(config):
    _assert_rejected_or_completes(config)


def _readme_key_table():
    """(subcommand, key, default) rows of the README's CLI key table."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        text = fh.read()
    table = text.split("| subcommand | key | default | rule |")[1]
    rows = []
    for line in table.strip().splitlines()[1:]:
        if not line.startswith("|"):
            break
        sub, key, default = (c.strip().strip("`") for c in line.split("|")[1:4])
        rows.append((sub, key, yaml.safe_load(default)))
    return rows


def test_readme_key_table_matches_keys():
    rows, listed = _readme_key_table(), {}
    for sub, key, default in rows:
        listed.setdefault(sub, {})[key] = default
    assert listed == {"all": cli._COMMON_KEYS, **cli._KEYS}
    assert len(rows) == len(cli._COMMON_KEYS) + sum(map(len, cli._KEYS.values()))
