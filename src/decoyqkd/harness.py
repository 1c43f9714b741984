"""Experiment configuration files, artifact serialization, and CSV emission.

Configs are human-editable JSON with strict schemas: unknown keys are
rejected and every module invariant is checked at load time.  Artifacts
embed (seed, config hash, tool version) and are written atomically, so
re-running an experiment with identical inputs reproduces identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .attacks import AttackSpec, SessionPublic
from .channel import ChannelParams, ProtocolConfig, SourceSpec
from .estimator import KeyRateParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "load_session",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
    "write_csv_artifact",
    "write_json_artifact",
]


class ConfigError(ValueError):
    """Config file is unreadable or violates a module invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, as loaded from a config file."""

    protocol: ProtocolConfig
    attack: AttackSpec
    eps_dsp: float
    key_params: KeyRateParams
    trials: int
    seed: int
    output_path: str

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.eps_dsp < 1.0:
            raise ConfigError(f"eps_dsp must lie in (0, 1), got {self.eps_dsp}")


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(_expect(obj, dict, context)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {context}")
    return obj[key]


def _protocol_from_dict(d: dict) -> ProtocolConfig:
    _check_keys(d, {"sources", "channel", "K", "n_max", "tail_budget"}, "protocol")
    raw_sources = _expect(_require(d, "sources", "protocol"), list, "protocol.sources")
    sources = []
    for idx, s in enumerate(raw_sources):
        context = f"protocol.sources[{idx}]"
        _check_keys(s, {"label", "mu", "q"}, context)
        sources.append(SourceSpec(label=_expect(_require(s, "label", context), str, f"{context}.label"),
                                  mu=_number(_require(s, "mu", context), f"{context}.mu"),
                                  q=_number(_require(s, "q", context), f"{context}.q")))
    ch = _require(d, "channel", "protocol")
    _check_keys(ch, {"eta", "y0"}, "protocol.channel")
    channel = ChannelParams(eta=_number(_require(ch, "eta", "protocol.channel"), "protocol.channel.eta"),
                            y0=_number(_require(ch, "y0", "protocol.channel"), "protocol.channel.y0"))
    kwargs = {}
    if d.get("n_max") is not None:
        kwargs["n_max"] = _count(d["n_max"], "protocol.n_max")
    if d.get("tail_budget") is not None:
        kwargs["tail_budget"] = _number(d["tail_budget"], "protocol.tail_budget")
    cfg = ProtocolConfig(sources=tuple(sources), channel=channel,
                         K=_count(_require(d, "K", "protocol"), "protocol.K"), **kwargs)
    mus = sorted(s.mu for s in cfg.sources)
    if mus[0] != 0.0 or len({m for m in mus if m > 0}) < 2:
        raise ConfigError(
            "protocol.sources must form a standard decoy set: one vacuum source "
            "and at least two distinct nonzero intensities")
    return cfg


def _attack_from_dict(d: dict) -> AttackSpec:
    _check_keys(d, {"kind", "tau", "yields_override"}, "attack")
    kind = _require(d, "kind", "attack")
    if kind == "custom":
        raise ConfigError("attack kind 'custom' is only available through the API")
    overrides = None
    if d.get("yields_override") is not None:
        overrides = {}
        for k, v in _expect(d["yields_override"], dict, "attack.yields_override").items():
            field = f"attack.yields_override.{k}"
            overrides[_count(int(k) if str(k).isdecimal() else k, field)] = _number(v, field)
    return AttackSpec(kind=kind, tau=_count(d.get("tau", 1), "attack.tau"), yields_override=overrides)


def config_from_dict(d: dict) -> ExperimentConfig:
    _check_keys(d, {"protocol", "attack", "eps_dsp", "key_params", "trials", "seed", "output_path"},
                "config")
    kp = d.get("key_params", {})
    _check_keys(kp, {"kappa_ec", "kappa_pa", "ber", "b1_max"}, "key_params")
    try:
        return ExperimentConfig(
            protocol=_protocol_from_dict(_require(d, "protocol", "config")),
            attack=_attack_from_dict(_require(d, "attack", "config")),
            eps_dsp=_number(_require(d, "eps_dsp", "config"), "eps_dsp"),
            key_params=KeyRateParams(**{k: _number(v, f"key_params.{k}") for k, v in kp.items()}),
            trials=_count(d.get("trials", 1), "trials"),
            seed=_count(_require(d, "seed", "config"), "seed"),
            output_path=_expect(d.get("output_path", ""), str, "output_path"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    proto = cfg.protocol
    d = {
        "protocol": {
            "sources": [{"label": s.label, "mu": s.mu, "q": s.q} for s in proto.sources],
            "channel": {"eta": proto.channel.eta, "y0": proto.channel.y0},
            "K": proto.K,
            "n_max": proto.n_max,
            "tail_budget": proto.tail_budget,
        },
        "attack": {
            "kind": cfg.attack.kind,
            "tau": cfg.attack.tau,
            "yields_override": ({str(k): v for k, v in sorted(cfg.attack.yields_override.items())}
                                if cfg.attack.yields_override else None),
        },
        "eps_dsp": cfg.eps_dsp,
        "key_params": cfg.key_params.to_dict(),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "output_path": cfg.output_path,
    }
    return d


def _read_json(path, what: str):
    """Parse a JSON file; errors carry line/column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; errors carry line/column or the invariant."""
    raw = _read_json(path, "config")
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _count(value, field: str) -> int:
    """A nonnegative integral JSON number (1e10 too) as an int; anything else raises ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < 0):
        raise ConfigError(f"{field} must be a nonnegative integer, got {value!r}")
    return int(value)


def _number(value, field: str) -> float:
    """A finite JSON number as a float; booleans, strings, inf and nan raise ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _expect(value, kind: type, context: str):
    """value itself if it is a JSON object (kind dict), array (list) or string (str); else ConfigError."""
    if not isinstance(value, kind):
        noun = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigError(f"{context} must be {noun}, got {value!r}")
    return value


def load_session(path) -> SessionPublic:
    """Read the public transcript ``session.public`` from a JSON file.

    Accepts the files written by ``simulate`` (other sections are ignored);
    a missing or unknown key, a non-integer or negative count, or a
    per-source entry that is not a list raise ConfigError naming the field.
    Consistency with itself and with a config is estimator.check_transcript's.
    """
    node = _read_json(path, "transcript")
    try:
        for key, context in (("session", "transcript"), ("public", "session")):
            node = _require(_expect(node, dict, context), key, context)
        context = "session.public"
        _check_keys(node, {"K", "K_i", "D_iE", "D_E", "F_E"}, context)
        fields = {key: _count(_require(node, key, context), f"{context}.{key}")
                  for key in ("K", "D_E", "F_E")}
        for key in ("K_i", "D_iE"):
            values = _expect(_require(node, key, context), list, f"{context}.{key}")
            fields[key] = tuple(_count(v, f"{context}.{key}[{j}]") for j, v in enumerate(values))
        return SessionPublic(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the canonical serialization; semantically equal configs hash equally."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# table / artifact emission
# ---------------------------------------------------------------------------


def _format_cell(value, kind: str) -> str:
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return format(float(value), ".17g")
    return str(value)


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def artifact_meta(cfg: ExperimentConfig, seed: int) -> dict:
    return {"seed": seed, "config_sha256": config_hash(cfg), "tool_version": __version__}


def write_csv_artifact(rows, schema, path, meta: dict) -> None:
    """Emit a CSV with '#'-prefixed metadata lines, a header row and full-precision floats.

    meta lines ("# key: value", sorted by key) come first.  schema is a
    sequence of (name, kind) pairs with kind in {int, float, str}; floats
    keep 17 significant digits.  rows may be mappings keyed by column name
    or aligned sequences.  Output is newline-terminated, row order
    preserved, written atomically.
    """
    path = Path(path)
    head = "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta))
    names = [name for name, _ in schema]
    kinds = [kind for _, kind in schema]
    for kind in kinds:
        if kind not in ("int", "float", "str"):
            raise ValueError(f"unsupported column kind {kind!r}")
    lines = [",".join(names)]
    for row in rows:
        if isinstance(row, dict):
            cells = [_format_cell(row[name], kind) for name, kind in schema]
        else:
            if len(row) != len(schema):
                raise ValueError(f"row length {len(row)} does not match schema ({len(schema)})")
            cells = [_format_cell(v, kind) for v, kind in zip(row, kinds)]
        lines.append(",".join(cells))
    _atomic_write(path, head + "\n".join(lines) + "\n")


def write_json_artifact(payload: dict, path, meta: dict) -> None:
    path = Path(path)
    doc = {"meta": meta, **payload}
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
