"""Command-line experiment harness.

Subcommands: simulate, estimate, sweep-tau, coverage, posterior, soundness,
reproduce-fig1, reproduce-fig2.  Every artifact embeds the seed, the config
hash, and the tool version; re-running a subcommand with identical inputs
produces byte-identical files.  Exit codes: 0 success, 2 config error,
3 infeasible transcript (protocol abort), 4 runtime failure.

The default output directory is, in order: --out, the config's
output_path, the DECOYQKD_OUT_DIR environment variable, ./out.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .attacks import AttackSpec, analytic_variance_report, simulate_session
from .channel import ProtocolConfig
from .estimator import (
    InfeasibleSessionError,
    bayes_dark_posterior,
    coverage_probability,
    estimate_session,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    artifact_meta,
    load_config,
    load_session,
    write_csv_artifact,
    write_json_artifact,
)
from .stats import RngStream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4

COVERAGE_TAUS = (1, 2, 3, 5, 7, 10)
COVERAGE_CS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
POSTERIOR_TAUS = (1, 2, 5, 10)
POSTERIOR_POINTS = 2001


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Decoy-state QKD simulation and security-estimation experiments.",
        epilog="Output directory precedence: --out, then the config's output_path, "
               "then $DECOYQKD_OUT_DIR, then ./out. Artifacts embed (seed, config hash, "
               "tool version) and are byte-identical on re-run. Exit codes: 0 ok, "
               "2 config error, 3 infeasible transcript, 4 runtime failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "simulate one session and write the transcript",
        "estimate": "estimate detection bounds and key rate for a transcript",
        "sweep-tau": "tabulate analytic detection-rate spreads over tau in [1, 100]",
        "coverage": "exact coverage of i.i.d. confidence bands under block attacks",
        "posterior": "dark-count-rate posterior on a grid, per correlation scale",
        "soundness": "Monte Carlo failure rate of the estimated lower bounds",
        "reproduce-fig1": "variance sweep with the shipped parameters (tau 1..100)",
        "reproduce-fig2": "coverage table and dark-count posteriors",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the Monte Carlo trial count")
        p.add_argument("--tau", type=int, default=None, help="override the attack correlation scale")
        p.add_argument("--eps", type=float, default=None, help="override the security budget eps_dsp")
        p.add_argument("--out", default=None, help="output directory (overrides config/output env)")
        p.add_argument("--workers", type=int, default=1, help="worker processes for Monte Carlo runs")
        if name == "estimate":
            p.add_argument("--session", default=None, help="existing transcript JSON (default: simulate one)")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    from dataclasses import replace

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.eps is not None:
        cfg = replace(cfg, eps_dsp=args.eps)
    if args.tau is not None:
        cfg = replace(cfg, attack=AttackSpec(kind=cfg.attack.kind, tau=args.tau,
                                             yields_override=cfg.attack.yields_override))
    return cfg


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    path = args.out or cfg.output_path or os.environ.get("DECOYQKD_OUT_DIR") or "out"
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _vacuum_index(protocol: ProtocolConfig) -> int:
    for j, s in enumerate(protocol.sources):
        if s.mu == 0.0:
            return j
    raise ConfigError("no vacuum source (mu = 0) in the protocol config")


def _sigma_schema(protocol: ProtocolConfig):
    return [("tau", "int")] + [(f"sigma_{lab}", "float") for lab in protocol.labels]


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    session = simulate_session(cfg.protocol, cfg.attack, RngStream(cfg.seed, 0))
    write_json_artifact({"session": session.to_dict()}, out / "session.json",
                        artifact_meta(cfg, cfg.seed))
    return EXIT_OK


def cmd_estimate(cfg: ExperimentConfig, out: Path, session_path: str | None) -> int:
    if session_path is not None:
        public = load_session(session_path)
    else:
        public = simulate_session(cfg.protocol, cfg.attack, RngStream(cfg.seed, 0)).public()
    result = estimate_session(public, cfg.protocol, cfg.eps_dsp, cfg.key_params)
    write_json_artifact({"estimate": result.to_dict()}, out / "estimate.json",
                        artifact_meta(cfg, cfg.seed))
    return EXIT_INFEASIBLE if result.solver_status == "infeasible" else EXIT_OK


def cmd_sweep_tau(cfg: ExperimentConfig, out: Path, filename: str = "sweep_tau.csv") -> int:
    rows = [analytic_variance_report(cfg.protocol, tau).to_row() for tau in range(1, 101)]
    write_csv_artifact(rows, _sigma_schema(cfg.protocol), out / filename,
                       artifact_meta(cfg, cfg.seed))
    return EXIT_OK


def cmd_coverage(cfg: ExperimentConfig, out: Path, tau: int | None,
                 filename: str = "coverage.csv") -> int:
    j = _vacuum_index(cfg.protocol)
    K_U = int(round(cfg.protocol.sources[j].q * cfg.protocol.K))
    y0 = cfg.protocol.channel.y0
    taus = (tau,) if tau is not None else COVERAGE_TAUS
    rows = []
    for t in taus:
        for c in COVERAGE_CS:
            rows.append({
                "tau": t,
                "c": c,
                "coverage": coverage_probability(K_U, y0, t, c),
                "nominal_level": max(0.0, 1.0 - 2.0 * math.exp(-c * c / 4.0)),
            })
    schema = [("tau", "int"), ("c", "float"), ("coverage", "float"), ("nominal_level", "float")]
    write_csv_artifact(rows, schema, out / filename, artifact_meta(cfg, cfg.seed))
    return EXIT_OK


def _posterior_grid(y0: float, rate: float) -> np.ndarray:
    hi = min(1.0, 10.0 * max(y0, rate, 1e-6))
    return np.linspace(0.0, hi, POSTERIOR_POINTS)


def cmd_posterior(cfg: ExperimentConfig, out: Path, tau: int | None,
                  synthetic: bool = False, filename: str = "posterior.csv") -> int:
    j = _vacuum_index(cfg.protocol)
    y0 = cfg.protocol.channel.y0
    if synthetic:
        K_U = int(round(cfg.protocol.sources[j].q * cfg.protocol.K))
        D_U = int(round(y0 * K_U))
    else:
        session = simulate_session(cfg.protocol, cfg.attack, RngStream(cfg.seed, 0))
        K_U, D_U = session.K_i[j], session.D_iE[j]
    grid = _posterior_grid(y0, D_U / max(K_U, 1))
    taus = (tau,) if tau is not None else POSTERIOR_TAUS
    cols = {t: bayes_dark_posterior(D_U, K_U, t, grid) for t in taus}
    rows = [{"y0": g, **{f"posterior_tau{t}": cols[t][i] for t in taus}}
            for i, g in enumerate(grid)]
    schema = [("y0", "float")] + [(f"posterior_tau{t}", "float") for t in taus]
    write_csv_artifact(rows, schema, out / filename, artifact_meta(cfg, cfg.seed))
    return EXIT_OK


def _soundness_one(payload) -> tuple[bool, bool, bool, bool, str]:
    cfg, stream_id = payload
    session = simulate_session(cfg.protocol, cfg.attack, RngStream(cfg.seed, stream_id))
    result = estimate_session(session.public(), cfg.protocol, cfg.eps_dsp, cfg.key_params)
    tol = 1e-9
    return (
        bool(result.d0_star > session.d_nE[0] + tol),
        bool(result.d1_star > session.d_nE[1] + tol),
        bool(result.f0_star > session.f_nE[0] + tol),
        bool(result.f1_star > session.f_nE[1] + tol),
        result.solver_status,
    )


def cmd_soundness(cfg: ExperimentConfig, out: Path, workers: int) -> int:
    payloads = [(cfg, i) for i in range(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_soundness_one, payloads, chunksize=8))
    else:
        outcomes = [_soundness_one(p) for p in payloads]
    counts = {"d0": 0, "d1": 0, "f0": 0, "f1": 0, "any": 0}
    statuses: dict[str, int] = {}
    for v0, v1, w0, w1, status in outcomes:
        counts["d0"] += int(v0)
        counts["d1"] += int(v1)
        counts["f0"] += int(w0)
        counts["f1"] += int(w1)
        counts["any"] += int(v0 or v1 or w0 or w1)
        statuses[status] = statuses.get(status, 0) + 1
    summary = {
        "trials": cfg.trials,
        "attack": {"kind": cfg.attack.kind, "tau": cfg.attack.tau},
        "eps_dsp": cfg.eps_dsp,
        "violations": counts,
        "violation_rate": counts["any"] / cfg.trials,
        "solver_statuses": statuses,
    }
    write_json_artifact({"soundness": summary}, out / "soundness.json",
                        artifact_meta(cfg, cfg.seed))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out = _out_dir(cfg, args)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "estimate":
            return cmd_estimate(cfg, out, args.session)
        if args.command == "sweep-tau":
            return cmd_sweep_tau(cfg, out)
        if args.command == "coverage":
            return cmd_coverage(cfg, out, args.tau)
        if args.command == "posterior":
            return cmd_posterior(cfg, out, args.tau)
        if args.command == "soundness":
            return cmd_soundness(cfg, out, args.workers)
        if args.command == "reproduce-fig1":
            return cmd_sweep_tau(cfg, out, filename="fig1.csv")
        if args.command == "reproduce-fig2":
            rc = cmd_coverage(cfg, out, args.tau, filename="fig2a.csv")
            if rc != EXIT_OK:
                return rc
            return cmd_posterior(cfg, out, args.tau, synthetic=True, filename="fig2b.csv")
        raise RuntimeError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleSessionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
