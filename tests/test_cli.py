"""End-to-end tests of the command-line harness."""
import json
from pathlib import Path

import pytest

from decoyqkd.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "protocol": {
            "sources": [
                {"label": "U", "mu": 0.0, "q": 0.1},
                {"label": "V", "mu": 0.1, "q": 0.3},
                {"label": "W", "mu": 0.5, "q": 0.6},
            ],
            "channel": {"eta": 0.1, "y0": 1e-05},
            "K": 100000,
        },
        "attack": {"kind": "block_correlated", "tau": 5},
        "eps_dsp": 0.01,
        "key_params": {"kappa_ec": 1.2, "kappa_pa": 1.0, "ber": 0.02, "b1_max": 0.03},
        "trials": 3,
        "seed": 11,
        "output_path": "",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


ALL_COMMANDS = ["simulate", "estimate", "sweep-tau", "coverage", "posterior",
                "soundness", "reproduce-fig1", "reproduce-fig2"]


class TestSubcommands:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_runs_and_is_deterministic(self, command, config_path, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main([command, "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
        assert main([command, "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1, f"{command} produced no artifacts"
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_artifacts_carry_metadata(self, config_path, tmp_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        doc = json.loads((out / "session.json").read_text())
        assert set(doc["meta"]) == {"seed", "config_sha256", "tool_version"}
        pub = doc["session"]["public"]
        assert pub["K"] == 100000
        assert sum(pub["K_i"]) == pub["K"]

    def test_estimate_emits_result(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "estimate.json").read_text())
        est = doc["estimate"]
        assert est["solver_status"] == "optimal"
        assert est["key_length"] >= 0
        assert est["budget"]["eps_bar"] + est["budget"]["delta_bar"] <= 0.01

    def test_estimate_from_session_file(self, config_path, tmp_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        rc = main(["estimate", "--config", str(config_path), "--out", str(out),
                   "--session", str(out / "session.json")])
        assert rc == EXIT_OK

    def test_estimate_infeasible_exit_code(self, config_path, tmp_path):
        out = tmp_path / "o"
        session = {
            "meta": {},
            "session": {"public": {"K": 100000, "K_i": [10000, 30000, 60000],
                                   "D_iE": [100000, 0, 0], "D_E": 100000, "F_E": 50000}},
        }
        bad = tmp_path / "bad_session.json"
        bad.write_text(json.dumps(session))
        rc = main(["estimate", "--config", str(config_path), "--out", str(out),
                   "--session", str(bad)])
        assert rc == EXIT_INFEASIBLE
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["estimate"]["solver_status"] == "infeasible"
        assert doc["estimate"]["key_length"] == 0

    def test_soundness_summary(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["soundness", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "soundness.json").read_text())
        s = doc["soundness"]
        assert s["trials"] == 3
        assert s["violations"]["any"] == 0

    def test_soundness_workers_match_serial(self, config_path, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["soundness", "--config", str(config_path), "--out", str(out1), "--workers", "1"])
        main(["soundness", "--config", str(config_path), "--out", str(out2), "--workers", "2"])
        assert (out1 / "soundness.json").read_bytes() == (out2 / "soundness.json").read_bytes()

    def test_sweep_tau_columns(self, config_path, tmp_path):
        out = tmp_path / "o"
        main(["sweep-tau", "--config", str(config_path), "--out", str(out)])
        lines = (out / "sweep_tau.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "tau,sigma_U,sigma_V,sigma_W"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 100
        assert data[0].startswith("1,") and data[-1].startswith("100,")


class TestFigureReproduction:
    def test_fig1_reference_value(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["reproduce-fig1", "--config", str(REPO / "configs" / "fig1.json"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = [l for l in (out / "fig1.csv").read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 101  # header + tau = 1..100
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert abs(float(first["sigma_U"]) - 1.4142e-7) / 1.4142e-7 <= 0.01

    def test_fig2_artifacts(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["reproduce-fig2", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        assert (out / "fig2a.csv").exists() and (out / "fig2b.csv").exists()
        lines = [l for l in (out / "fig2a.csv").read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["tau", "c", "coverage", "nominal_level"]
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert all(0.0 <= float(r["coverage"]) <= 1.0 for r in rows)
        assert len({r["tau"] for r in rows}) > 1 and len({r["c"] for r in rows}) > 1


def _public(edit):
    """A transcript mutation that edits session.public in place."""
    return lambda doc: edit(doc["session"]["public"])


class TestErrorPaths:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_overrides(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out1), "--seed", "99"])
        main(["simulate", "--config", str(config_path), "--out", str(out2)])
        d1 = json.loads((out1 / "session.json").read_text())
        d2 = json.loads((out2 / "session.json").read_text())
        assert d1["meta"]["seed"] == 99 and d2["meta"]["seed"] == 11
        assert d1["session"] != d2["session"]

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "-1", "seed"),
        ("--trials", "0", "trials"),
        ("--eps", "2", "eps_dsp"),
        ("--tau", "0", "tau"),
        ("--workers", "-2", "workers"),
    ])
    def test_bad_override_names_flag_and_field(self, flag, value, field, config_path, tmp_path, capsys):
        rc = main(["soundness", "--config", str(config_path), "--out", str(tmp_path / "o"), flag, value])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{flag}:" in err and field in err

    @pytest.mark.parametrize("mutate, field", [
        (lambda doc: doc["session"]["public"].pop("K_i"), "'K_i'"),
        (lambda doc: doc["session"].pop("public"), "'public'"),
        (lambda doc: doc["session"]["public"].update(D_E="1000"), "session.public.D_E"),
        (lambda doc: doc["session"]["public"]["D_iE"].append(-1), "session.public.D_iE[3]"),
        (_public(lambda p: p.update(K_i=[p["K_i"][0] + 1, *p["K_i"][1:]])), "session.public.K_i sums"),
        (_public(lambda p: p.update(D_iE=[p["D_iE"][0] + 1, *p["D_iE"][1:]])), "session.public.D_iE sums"),
        (_public(lambda p: p.update(F_E=10 * p["D_E"])), "session.public.F_E"),
        (_public(lambda p: p.update(K=p["K"] + 1, K_i=[p["K_i"][0] + 1, *p["K_i"][1:]])),
         "session.public.K ="),
        (_public(lambda p: p.update(K_i=p["K_i"] + [0], D_iE=p["D_iE"] + [0])),
         "session.public.K_i lists 4 sources"),
    ], ids=["missing-K_i", "missing-public", "string-count", "negative-count", "K_i-sum", "D_iE-sum",
            "F_E-above-D_E", "K-differs-from-config", "source-count-differs-from-config"])
    def test_malformed_session_file(self, mutate, field, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        doc = json.loads((out / "session.json").read_text())
        mutate(doc)
        bad = tmp_path / "bad_session.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["estimate", "--config", str(config_path), "--out", str(out), "--session", str(bad)])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_env_output_dir(self, config_path, tmp_path, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("DECOYQKD_OUT_DIR", str(envdir))
        assert main(["simulate", "--config", str(config_path)]) == EXIT_OK
        assert (envdir / "session.json").exists()
