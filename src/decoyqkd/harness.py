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
    "write_table",
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
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {context}")
    return obj[key]


def _protocol_from_dict(d: dict) -> ProtocolConfig:
    _check_keys(d, {"sources", "channel", "K", "n_max", "tail_budget"}, "protocol")
    raw_sources = _require(d, "sources", "protocol")
    sources = []
    for idx, s in enumerate(raw_sources):
        _check_keys(s, {"label", "mu", "q"}, f"protocol.sources[{idx}]")
        sources.append(SourceSpec(label=str(_require(s, "label", "source")),
                                  mu=float(_require(s, "mu", "source")),
                                  q=float(_require(s, "q", "source"))))
    ch = _require(d, "channel", "protocol")
    _check_keys(ch, {"eta", "y0"}, "protocol.channel")
    channel = ChannelParams(eta=float(_require(ch, "eta", "channel")),
                            y0=float(_require(ch, "y0", "channel")))
    kwargs = {}
    if d.get("n_max") is not None:
        kwargs["n_max"] = int(d["n_max"])
    if d.get("tail_budget") is not None:
        kwargs["tail_budget"] = float(d["tail_budget"])
    cfg = ProtocolConfig(sources=tuple(sources), channel=channel,
                         K=int(_require(d, "K", "protocol")), **kwargs)
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
        overrides = {int(k): float(v) for k, v in d["yields_override"].items()}
    return AttackSpec(kind=kind, tau=int(d.get("tau", 1)), yields_override=overrides)


def config_from_dict(d: dict) -> ExperimentConfig:
    _check_keys(d, {"protocol", "attack", "eps_dsp", "key_params", "trials", "seed", "output_path"},
                "config")
    kp = d.get("key_params", {})
    _check_keys(kp, {"kappa_ec", "kappa_pa", "ber", "b1_max"}, "key_params")
    try:
        return ExperimentConfig(
            protocol=_protocol_from_dict(_require(d, "protocol", "config")),
            attack=_attack_from_dict(_require(d, "attack", "config")),
            eps_dsp=float(_require(d, "eps_dsp", "config")),
            key_params=KeyRateParams(**{k: float(v) for k, v in kp.items()}),
            trials=int(d.get("trials", 1)),
            seed=int(_require(d, "seed", "config")),
            output_path=str(d.get("output_path", "")),
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
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _count(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{field} must be a nonnegative integer, got {value!r}")
    return value


def load_session(path) -> SessionPublic:
    """Read the public transcript ``session.public`` from a JSON file.

    Accepts the files written by ``simulate`` (other sections are ignored);
    a missing or unknown key, a non-integer or negative count, or per-source
    lists of unequal length raise ConfigError naming the field.
    """
    node = _read_json(path, "transcript")
    try:
        for key, context in (("session", "transcript"), ("public", "session")):
            if not isinstance(node, dict):
                raise ConfigError(f"{context} must be an object")
            node = _require(node, key, context)
        context = "session.public"
        if not isinstance(node, dict):
            raise ConfigError(f"{context} must be an object")
        _check_keys(node, {"K", "K_i", "D_iE", "D_E", "F_E"}, context)
        fields = {key: _count(_require(node, key, context), f"{context}.{key}")
                  for key in ("K", "D_E", "F_E")}
        for key in ("K_i", "D_iE"):
            values = _require(node, key, context)
            if not isinstance(values, list):
                raise ConfigError(f"{context}.{key} must be a list, got {values!r}")
            fields[key] = tuple(_count(v, f"{context}.{key}[{j}]") for j, v in enumerate(values))
        if len(fields["K_i"]) != len(fields["D_iE"]):
            raise ConfigError(f"{context}.K_i and {context}.D_iE differ in length")
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


def write_table(rows, schema, path) -> None:
    """Emit a CSV with a header row and full-precision (17 significant digit) floats.

    schema is a sequence of (name, kind) pairs with kind in {int, float, str};
    rows may be mappings keyed by column name or aligned sequences.  Output is
    newline-terminated, row order preserved, written atomically.
    """
    path = Path(path)
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
    _atomic_write(path, "\n".join(lines) + "\n")


def artifact_meta(cfg: ExperimentConfig, seed: int) -> dict:
    return {"seed": seed, "config_sha256": config_hash(cfg), "tool_version": __version__}


def write_csv_artifact(rows, schema, path, meta: dict) -> None:
    """CSV artifact with '#'-prefixed metadata lines before the header."""
    path = Path(path)
    head = "".join(f"# {k}: {meta[k]}\n" for k in sorted(meta))
    names = [name for name, _ in schema]
    kinds = [kind for _, kind in schema]
    lines = [",".join(names)]
    for row in rows:
        if isinstance(row, dict):
            cells = [_format_cell(row[name], kind) for name, kind in schema]
        else:
            cells = [_format_cell(v, kind) for v, kind in zip(row, kinds)]
        lines.append(",".join(cells))
    _atomic_write(path, head + "\n".join(lines) + "\n")


def write_json_artifact(payload: dict, path, meta: dict) -> None:
    path = Path(path)
    doc = {"meta": meta, **payload}
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
