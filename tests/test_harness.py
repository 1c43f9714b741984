"""Tests for config ingestion, hashing, and table emission."""
import json
import re
import warnings
from pathlib import Path

import pytest

from decoyqkd.harness import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    write_csv_artifact,
    write_json_artifact,
)

REPO = Path(__file__).resolve().parent.parent


def small_config_dict(**overrides):
    d = {
        "protocol": {
            "sources": [
                {"label": "U", "mu": 0.0, "q": 0.1},
                {"label": "V", "mu": 0.1, "q": 0.3},
                {"label": "W", "mu": 0.5, "q": 0.6},
            ],
            "channel": {"eta": 0.1, "y0": 1e-05},
            "K": 100000,
        },
        "attack": {"kind": "iid", "tau": 1},
        "eps_dsp": 0.01,
        "key_params": {"kappa_ec": 1.2, "kappa_pa": 1.0, "ber": 0.02, "b1_max": 0.03},
        "trials": 3,
        "seed": 7,
        "output_path": "",
    }
    d.update(overrides)
    return d


class TestLoadConfig:
    def test_shipped_fig_config_loads_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = load_config(REPO / "configs" / "fig1.json")
        assert cfg.protocol.K == 10**10
        assert cfg.protocol.labels == ("U", "V", "W")
        assert cfg.protocol.expected_overflow <= cfg.protocol.tail_budget

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict()))
        cfg = load_config(path)
        d1 = config_to_dict(cfg)
        d2 = config_to_dict(config_from_dict(d1))
        assert d1 == d2

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "protocol": [,]\n}')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_unknown_keys_rejected(self, tmp_path):
        for mutate in (
            lambda d: d.update(bogus=1),
            lambda d: d["protocol"].update(bogus=1),
            lambda d: d["attack"].update(bogus=1),
            lambda d: d["key_params"].update(bogus=1),
            lambda d: d["protocol"]["sources"][0].update(bogus=1),
        ):
            d = small_config_dict()
            mutate(d)
            path = tmp_path / "c.json"
            path.write_text(json.dumps(d))
            with pytest.raises(ConfigError, match="bogus"):
                load_config(path)

    def test_source_normalization_error(self, tmp_path):
        d = small_config_dict()
        d["protocol"]["sources"][2]["q"] = 0.5  # sums to 0.9
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="sum to 1"):
            load_config(path)

    def test_standard_decoy_layout_required(self, tmp_path):
        d = small_config_dict()
        d["protocol"]["sources"][0]["mu"] = 0.05  # no vacuum source
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="vacuum"):
            load_config(path)

    def test_custom_attack_not_loadable(self):
        with pytest.raises(ConfigError, match="custom"):
            config_from_dict(small_config_dict(attack={"kind": "custom"}))

    def test_value_invariants(self):
        with pytest.raises(ConfigError):
            config_from_dict(small_config_dict(trials=0))
        with pytest.raises(ConfigError):
            config_from_dict(small_config_dict(eps_dsp=1.5))

    @pytest.mark.parametrize("section, key, value", [
        ("protocol", "K", 1000000.7),
        ("protocol", "K", True),
        ("protocol", "K", "1000000"),
        ("protocol", "n_max", 9.6),
        ("attack", "tau", 2.5),
        (None, "trials", 3.9),
        (None, "seed", 1.5),
        (None, "seed", -1),
    ])
    def test_malformed_integer_rejected(self, section, key, value):
        d = small_config_dict()
        (d[section] if section else d)[key] = value
        field = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=rf"^{field} must be a nonnegative integer"):
            config_from_dict(d)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["protocol"]["sources"][1].update(mu=True), "protocol.sources[1].mu"),
        (lambda d: d["protocol"]["sources"][1].update(mu="abc"), "protocol.sources[1].mu"),
        (lambda d: d["protocol"]["sources"][2].update(q=float("inf")), "protocol.sources[2].q"),
        (lambda d: d["protocol"]["channel"].update(eta="0.1"), "protocol.channel.eta"),
        (lambda d: d["protocol"].update(tail_budget=float("nan")), "protocol.tail_budget"),
        (lambda d: d["attack"].update(yields_override={"1": True}), "attack.yields_override.1"),
        (lambda d: d.update(eps_dsp="0.01"), "eps_dsp"),
        (lambda d: d["key_params"].update(ber=False), "key_params.ber"),
        (lambda d: d["key_params"].update(kappa_ec="1.2"), "key_params.kappa_ec"),
    ], ids=["mu-bool", "mu-string", "q-inf", "eta-string", "tail_budget-nan", "override-bool",
            "eps_dsp-string", "ber-bool", "kappa_ec-string"])
    def test_malformed_number_rejected(self, mutate, field):
        d = small_config_dict()
        mutate(d)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be a finite number"):
            config_from_dict(d)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(protocol=5), "protocol must be an object"),
        (lambda d: d["protocol"].update(sources=5), "protocol.sources must be a list"),
        (lambda d: d["protocol"]["sources"].__setitem__(0, 5), "protocol.sources[0] must be an object"),
        (lambda d: d["protocol"].update(channel=5), "protocol.channel must be an object"),
        (lambda d: d.update(attack=5), "attack must be an object"),
        (lambda d: d["attack"].update(yields_override=5), "attack.yields_override must be an object"),
        (lambda d: d.update(key_params=5), "key_params must be an object"),
        (lambda d: d["protocol"]["sources"][1].update(label=5), "protocol.sources[1].label must be a string"),
        (lambda d: d.update(output_path=5), "output_path must be a string"),
    ], ids=["protocol", "sources", "source", "channel", "attack", "yields_override", "key_params",
            "label", "output_path"])
    def test_malformed_section_rejected(self, mutate, message):
        d = small_config_dict()
        mutate(d)
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
            config_from_dict(d)

    @pytest.mark.parametrize("key", ["abc", "-1", "1.5"])
    def test_malformed_override_key_rejected(self, key):
        d = small_config_dict(attack={"kind": "iid", "yields_override": {key: 0.5}})
        field = re.escape(f"attack.yields_override.{key}")
        with pytest.raises(ConfigError, match=rf"^{field} must be a nonnegative integer"):
            config_from_dict(d)

    def test_integral_numbers_accepted(self):
        d = small_config_dict(seed=7.0)
        d["protocol"]["K"] = 1e10
        cfg = config_from_dict(d)
        assert cfg.protocol.K == 10**10 and type(cfg.protocol.K) is int
        assert cfg.seed == 7 and type(cfg.seed) is int

    def test_yields_override_keys(self):
        cfg = config_from_dict(small_config_dict(
            attack={"kind": "iid", "yields_override": {"1": 0.0, "2": 0.5}}))
        assert cfg.attack.yields_override == {1: 0.0, 2: 0.5}
        d = config_to_dict(cfg)
        assert d["attack"]["yields_override"] == {"1": 0.0, "2": 0.5}


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = config_from_dict(small_config_dict())
        b = config_from_dict(small_config_dict())
        assert config_hash(a) == config_hash(b)
        c = config_from_dict(small_config_dict(seed=8))
        assert config_hash(a) != config_hash(c)


SCHEMA = [("tau", "int"), ("sigma", "float"), ("note", "str")]


class TestWriteTable:
    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_artifact([], SCHEMA, path, {})
        assert path.read_text() == "tau,sigma,note\n"

    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_artifact([{"tau": 3, "sigma": 1 / 3, "note": "x"}], SCHEMA, path, {})
        line = path.read_text().splitlines()[1]
        assert line == "3,0.33333333333333331,x"

    def test_sequence_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_artifact([(1, 0.5, "a"), (2, 0.25, "b")], SCHEMA, path, {})
        assert path.read_text().splitlines()[2] == "2,0.25,b"

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"tau": t, "sigma": t / 7, "note": "r"} for t in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv_artifact(rows, SCHEMA, p1, {})
        write_csv_artifact(rows, SCHEMA, p2, {})
        assert p1.read_bytes() == p2.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_row_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="row length"):
            write_csv_artifact([(1, 0.5)], SCHEMA, tmp_path / "t.csv", {})

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError, match="column kind"):
            write_csv_artifact([], [("x", "complex")], tmp_path / "t.csv", {})


class TestArtifacts:
    def test_csv_metadata_preamble(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv_artifact([(1, 0.5, "a")], SCHEMA, path, {"seed": 7, "config_sha256": "ff"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_sha256: ff"
        assert lines[1] == "# seed: 7"
        assert lines[2] == "tau,sigma,note"

    def test_json_artifact_sorted(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact({"b": 1, "a": 2}, path, {"seed": 1})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["meta"]["seed"] == 1
