import filecmp
import json
import os

import pytest

from homogkit.cli import (ConfigError, main, parse_config, run,
                          serialize_config)

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

    def test_eps_list_checked_per_entry(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("subcommand: rates\nfamily: laminate\n"
                         "eps: [0.125, 0.1]\n")
        assert len(exc.value.violations) == 1
        assert "0.1" in exc.value.violations[0]

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
        assert rec["checks"]["zero_means"] is True

    def test_manifest_appends_and_records_failure(self, tmp_path):
        ok_cfg = parse_config("subcommand: cell\nfamily: laminate\n"
                              "params: {d: 1}\nn: 64\n")
        run(ok_cfg, str(tmp_path))
        bad_cfg = parse_config("subcommand: solve\nfamily: trig\n"
                               "params: {alpha: 2.0, beta: 0.5}\n"
                               "n: 16\neps: 0.03125\n")  # resolution guard
        manifest = run(bad_cfg, str(tmp_path))
        assert not manifest["ok"]
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["checks"]["run_completed"] is False
        assert "resolution" in rec["checks"]["error"]

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
        assert "check residuals_within_tol: pass" in out

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
        "subcommand: rates\nn_cell: 24\n",
        "subcommand: correctors\nn_cell: true\n",
        "subcommand: green\nrho: -1\n",
        "subcommand: green\nn: 16\nrho: 0.1\n",
        "subcommand: green\np: 0.5\n",
        "subcommand: green\np: two\n",
    ], ids=lambda t: t[12:].replace(": ", "=").strip().replace("\n", "-"))
    def test_exit_two_on_bad_numeric_key(self, tmp_path, capsys, text):
        lines = text.splitlines()
        sub, key = lines[0].split(": ")[1], lines[-1].split(":")[0]
        cfg = self._write(tmp_path, "family: trig\n" + text)
        rc = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert f"  - {key} " in err
        assert not (tmp_path / "out").exists()

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

    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg = self._write(tmp_path, "subcommand: cell\nfamily: laminate\n"
                                    "params: {d: 1}\nn: 64\n")
        env_out = tmp_path / "envout"
        monkeypatch.setenv("HOMOG_KIT_OUT", str(env_out))
        rc = main(["cell", "--config", cfg])
        assert rc == 0
        assert (env_out / "manifest.jsonl").exists()
