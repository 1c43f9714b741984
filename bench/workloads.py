"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Every workload has the same shape.  ``make_op(i)`` builds the inputs of op
``i`` from the seed (outside any timed region), ``run(op, tr)`` is the timed
unit of user work, and ``check(op, result)`` scores it and returns the
op's record (its certified values or artifact hashes).  ``layers(op,
result, tr)`` runs only in the traced segment: it calls the public
functions that ``run`` reaches only inside another call again, directly on
the same inputs, so each gets a span of its own.  ``finish(records)`` runs
the whole-run output checks.

soundness_bright  simulate_session + estimate_session on configs/bright.json,
                  consecutive stream ids (the load of ``decoyqkd soundness``)
certify_mixed     ``decoyqkd estimate --session`` on a fresh config and stored
                  transcript per op; one op in ten is tampered and must abort
figures           the figure subcommands on both shipped configs, plus
                  batches of the variance Monte Carlo cross-check
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats as sps

from decoyqkd import cli
from decoyqkd.attacks import (
    AttackSpec,
    SessionPublic,
    analytic_variance_report,
    attack_detections,
    sample_photon_counts,
    sift,
    simulate_session,
    split_by_source,
)
from decoyqkd.channel import ChannelParams, ProtocolConfig, SourceSpec, source_posteriors
from decoyqkd.estimator import (
    bayes_dark_posterior,
    build_epsilon_budget,
    coverage_probability,
    estimate_session,
    grid_minimize_detection,
    minimize_detection_count,
)
from decoyqkd.harness import (
    artifact_meta,
    config_from_dict,
    config_hash,
    load_config,
    write_csv_artifact,
    write_json_artifact,
)
from decoyqkd.stats import RngStream

RESIDUAL_TOL = 1e-8     # an "optimal" result must satisfy its bands this closely
TRUTH_TOL = 1e-9        # slack when comparing certified counts with the hidden truth
ORACLE_GAP = 0.005      # solver vs grid oracle, as acceptance criterion 7
ORACLE_TRANSCRIPTS = 10
VIOLATION_TAIL = 1e-6   # false-alarm probability of the bound-violation check
CERTIFIED = ("d0_star", "d1_star", "f0_star", "f1_star", "key_length", "solver_status")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def certified(estimate: dict) -> dict:
    """The certified values of one estimate (``EstimationResult.to_dict`` shape)."""
    rec = {k: estimate[k] for k in CERTIFIED}
    rec["solver_residual"] = estimate["solver_residual"]
    return rec


def violated(rec: dict, session) -> bool:
    """Whether any certified lower bound lies above the session's hidden truth."""
    return bool(rec["d0_star"] > session.d_nE[0] + TRUTH_TOL or rec["d1_star"] > session.d_nE[1] + TRUTH_TOL
                or rec["f0_star"] > session.f_nE[0] + TRUTH_TOL or rec["f1_star"] > session.f_nE[1] + TRUTH_TOL)


def outcome_ok(rec: dict, expect_abort: bool) -> bool:
    """Honest transcripts must not abort, tampered ones must; optimum within tolerance."""
    status = rec["solver_status"]
    if (status == "infeasible") != expect_abort:
        return False
    return status != "optimal" or rec["solver_residual"] <= RESIDUAL_TOL


def estimate_attrs(rec: dict, session=None) -> dict:
    """Span attributes of one estimate: status, residual and, given the truth, tightness."""
    attrs = {"status": rec["solver_status"], "residual": rec["solver_residual"]}
    if session is not None:
        attrs["violation"] = violated(rec, session)
        if rec["solver_status"] != "infeasible" and session.d_nE[1] > 0:
            attrs["d1_ratio"] = rec["d1_star"] / float(session.d_nE[1])
    return attrs


def vacuum_index(protocol: ProtocolConfig) -> int:
    return next(j for j, s in enumerate(protocol.sources) if s.mu == 0.0)


def tamper(public: SessionPublic, j: int, factor: float) -> SessionPublic:
    """Raise the vacuum source's detections to `factor` times all other detections.

    No split of the photon classes explains that many vacuum-source clicks,
    so the transcript lies far outside its confidence bands and must abort.
    """
    add = int(factor * max(public.D_E - public.D_iE[j], 100))
    D = list(public.D_iE)
    D[j] += add
    return SessionPublic(K=public.K, K_i=public.K_i, D_iE=tuple(D), D_E=public.D_E + add, F_E=public.F_E)


def expected_meta(cfg) -> dict:
    return {k: str(v) for k, v in artifact_meta(cfg, cfg.seed).items()}


def read_csv(path: Path) -> tuple[dict, list[str], list[list[float]]]:
    """Parse a CSV artifact into its '# key: value' metadata, header and float rows."""
    lines = path.read_text().splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        meta[key] = value
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return meta, lines[0].split(","), rows


def trace_config(tr, path: Path):
    """Load a config as the CLI does, with the harness and channel calls as spans."""
    with tr.span("harness.load_config"):
        cfg = load_config(path)
    with tr.span("harness.config_hash"):
        config_hash(cfg)
    p = cfg.protocol
    with tr.span("channel.protocol_config") as attrs:
        rebuilt = ProtocolConfig(sources=p.sources, channel=p.channel, K=p.K, tail_budget=p.tail_budget)
    attrs["n_max"] = rebuilt.n_max
    return cfg


def trace_simulation(tr, protocol, attack, stream: RngStream) -> None:
    """The four steps of simulate_session, called one by one on the same stream."""
    with tr.span("stats.rng_generator"):
        gen = stream.generator()
    with tr.span("attacks.sample_photon_counts"):
        _, k_ni = sample_photon_counts(protocol, gen)
    with tr.span("attacks.attack_detections"):
        d_n = attack_detections(attack, k_ni.sum(axis=0), protocol.channel, gen)
    with tr.span("attacks.split_by_source"):
        split_by_source(d_n, protocol.sources, gen)
    with tr.span("attacks.sift"):
        sift(d_n, gen)


def trace_estimate(tr, public, protocol, eps: float) -> None:
    """The budget and the two minimizations inside estimate_session, called directly."""
    with tr.span("estimator.build_epsilon_budget"):
        budget = build_epsilon_budget(eps, protocol.n_max, len(protocol.sources))
    with tr.span("estimator.minimize_d0"):
        minimize_detection_count(public, protocol, budget, 0)
    with tr.span("estimator.minimize_d1"):
        minimize_detection_count(public, protocol, budget, 1)


def trace_rewrite(tr, artifact: Path, dest: Path) -> None:
    """Write an artifact's parsed content again through the harness writer."""
    if artifact.suffix == ".json":
        doc = json.loads(artifact.read_text())
        payload = {k: v for k, v in doc.items() if k != "meta"}
        with tr.span("harness.write_json") as attrs:
            write_json_artifact(payload, dest, doc["meta"])
    else:
        meta, names, rows = read_csv(artifact)
        schema = [(n, "int" if n == "tau" else "float") for n in names]
        with tr.span("harness.write_csv") as attrs:
            write_csv_artifact(rows, schema, dest, meta)
    attrs["bytes"] = dest.stat().st_size


def oracle_check(seed: int) -> tuple[str, bool, str]:
    """minimize_detection_count against the exhaustive grid on n_max = 2 transcripts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n_max = 2 is below the tail-budget cutoff on purpose
        cfg = ProtocolConfig(sources=(SourceSpec("U", 0.0, 0.2), SourceSpec("V", 0.4, 0.3),
                                      SourceSpec("W", 1.1, 0.5)),
                             channel=ChannelParams(0.4, 0.02), K=10**6, n_max=2)
    gen = np.random.default_rng([seed, 7])
    Q = np.array([source_posteriors(n, cfg.sources) for n in range(3)]).T
    worst, ok = 0.0, True
    for _ in range(ORACLE_TRANSCRIPTS):
        budget = build_epsilon_budget(float(gen.uniform(0.005, 0.2)), cfg.n_max, 3)
        A = budget.c_n[None, :3] * np.sqrt(Q * (1 - Q))
        d_true = gen.uniform(0.12, 0.28, size=3) * cfg.K
        D_i = Q @ d_true + gen.uniform(-0.7, 0.7, size=3) * (A @ np.sqrt(d_true))
        pub = SessionPublic(K=cfg.K, K_i=(200000, 300000, 500000),
                            D_iE=tuple(int(v) for v in np.round(D_i)),
                            D_E=int(math.ceil(d_true.sum() * 1.02)), F_E=int(d_true.sum() * 0.51))
        for target in (0, 1):
            r = minimize_detection_count(pub, cfg, budget, target)
            g = grid_minimize_detection(pub, cfg, budget, target)
            ok = ok and r.status == "optimal" and g is not None
            if g is not None:
                worst = max(worst, abs(r.d_star - g) / max(g, 1.0))
    ok = bool(ok and worst <= ORACLE_GAP)
    return "grid_oracle", ok, f"worst solver/grid gap {worst:.3e} over {ORACLE_TRANSCRIPTS} x 2 (limit {ORACLE_GAP})"


def probe_plan(config_path: Path, out: Path, seed: int) -> list[tuple[set, object]]:
    """Direct calls that reach every traced layer, on inputs from one config.

    The traced run uses a probe only for span names the workload's own ops
    never produced; each entry is (span names it records, callable(tr)).
    """
    cfg = load_config(config_path)
    p = cfg.protocol
    stream = RngStream(seed, 0)
    session = simulate_session(p, cfg.attack, stream)
    public = session.public()
    j = vacuum_index(p)
    K_U, D_U = session.K_i[j], session.D_iE[j]
    y0 = p.channel.y0
    grid = np.linspace(0.0, min(1.0, 10.0 * max(y0, D_U / max(K_U, 1), 1e-6)), cli.POSTERIOR_POINTS)
    out.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = out / "probe.json", out / "probe.csv"
    write_json_artifact({"session": session.to_dict()}, json_path, artifact_meta(cfg, seed))
    rows = [analytic_variance_report(p, t).to_row() for t in (1, 2, 5)]
    write_csv_artifact(rows, [("tau", "int")] + [(f"sigma_{lab}", "float") for lab in p.labels],
                       csv_path, artifact_meta(cfg, seed))

    def simulation(tr):
        trace_simulation(tr, p, cfg.attack, stream)
        with tr.span("attacks.simulate_session"):
            simulate_session(p, cfg.attack, stream)

    def estimate(tr):
        trace_estimate(tr, public, p, cfg.eps_dsp)
        with tr.span("estimator.estimate_session") as attrs:
            r = estimate_session(public, p, cfg.eps_dsp, cfg.key_params)
        attrs.update(estimate_attrs(certified(r.to_dict()), session))

    def abort(tr):
        with tr.span("estimator.abort") as attrs:
            r = estimate_session(tamper(public, j, 10.0), p, cfg.eps_dsp, cfg.key_params)
        attrs.update(estimate_attrs(certified(r.to_dict())))

    def figure_math(tr):
        with tr.span("attacks.analytic_variance_report"):
            analytic_variance_report(p, 5)
        with tr.span("estimator.coverage_probability"):
            coverage_probability(K_U, y0, 5, 2.0)
        with tr.span("estimator.bayes_dark_posterior"):
            bayes_dark_posterior(D_U, K_U, 5, grid)

    def harness(tr):
        trace_config(tr, config_path)
        trace_rewrite(tr, json_path, out / "probe.rewrite.json")
        trace_rewrite(tr, csv_path, out / "probe.rewrite.csv")

    def cli_call(sub):
        argv = [sub, "--config", str(config_path), "--out", str(out / "cli"), "--seed", str(seed), "--tau", "5"]

        def call(tr):
            with tr.span(f"cli.{sub}"):
                cli.main(argv)
        return {f"cli.{sub}"}, call

    plan = [
        ({"stats.rng_generator", "attacks.sample_photon_counts", "attacks.attack_detections",
          "attacks.split_by_source", "attacks.sift", "attacks.simulate_session"}, simulation),
        ({"estimator.build_epsilon_budget", "estimator.minimize_d0", "estimator.minimize_d1",
          "estimator.estimate_session"}, estimate),
        ({"estimator.abort"}, abort),
        ({"attacks.analytic_variance_report", "estimator.coverage_probability",
          "estimator.bayes_dark_posterior"}, figure_math),
        ({"harness.load_config", "harness.config_hash", "channel.protocol_config",
          "harness.write_json", "harness.write_csv"}, harness),
    ]
    return plan + [cli_call(sub) for sub in ("estimate",) + FIGURE_COMMANDS]


# ---------------------------------------------------------------------------
# soundness_bright
# ---------------------------------------------------------------------------


class SoundnessBright:
    """One Monte Carlo soundness trial per op on the shipped bright config."""

    name = "soundness_bright"
    warmup = 3

    def __init__(self, root: Path, seed: int, out: Path):
        self.config_path = root / "configs" / "bright.json"
        self.cfg = load_config(self.config_path)
        self.seed = seed
        self.out = out

    def make_op(self, i: int) -> dict:
        return {"i": i, "stream": RngStream(self.seed, i)}

    def run(self, op: dict, tr):
        cfg = self.cfg
        with tr.span("attacks.simulate_session"):
            session = simulate_session(cfg.protocol, cfg.attack, op["stream"])
        with tr.span("estimator.estimate_session") as attrs:
            result = estimate_session(session.public(), cfg.protocol, cfg.eps_dsp, cfg.key_params)
        return session, result, attrs

    def check(self, op: dict, result) -> tuple[bool, dict]:
        session, r, attrs = result
        rec = certified(r.to_dict())
        rec["violation"] = violated(rec, session)
        attrs.update(estimate_attrs(rec, session))
        return outcome_ok(rec, expect_abort=False), rec

    def layers(self, op: dict, result, tr) -> None:
        session = result[0]
        trace_simulation(tr, self.cfg.protocol, self.cfg.attack, op["stream"])
        trace_estimate(tr, session.public(), self.cfg.protocol, self.cfg.eps_dsp)

    def probe_config(self) -> Path:
        return self.config_path

    def finish(self, records: list[dict]) -> list[tuple[str, bool, str]]:
        n = len(records)
        bad = sum(bool(r.get("violation")) for r in records)
        limit = float(sps.binom.isf(VIOLATION_TAIL, n, self.cfg.eps_dsp)) if n else 0.0
        return [
            ("bound_violations", bad <= limit,
             f"{bad} of {n} sessions certify above the hidden truth; binomial limit {limit:.0f} "
             f"at eps_dsp={self.cfg.eps_dsp}"),
            oracle_check(self.seed),
        ]


# ---------------------------------------------------------------------------
# certify_mixed
# ---------------------------------------------------------------------------

ATTACK_KINDS = ("none", "iid", "block_correlated")
TAMPER_EVERY = 10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # spreads log10(K) evenly over any run of consecutive ops


class CertifyMixed:
    """``decoyqkd estimate`` on a stored transcript, a distinct config per op."""

    name = "certify_mixed"
    warmup = TAMPER_EVERY  # includes one abort
    SLOTS = 2 * TAMPER_EVERY  # input files are reused round-robin once their op has run

    def __init__(self, root: Path, seed: int, out: Path):
        self.seed = seed
        self.k_offset = float(np.random.default_rng([seed, 1]).random())
        self.inputs = out / "inputs"
        self.artifacts = out / "artifacts"
        self.rewrites = out / "rewrites"
        for d in (self.inputs, self.artifacts, self.rewrites):
            d.mkdir(parents=True, exist_ok=True)

    def make_op(self, i: int) -> dict:
        g = np.random.default_rng([self.seed, i])
        q_u, q_v = float(g.uniform(0.01, 0.2)), float(g.uniform(0.02, 0.3))
        kind = ATTACK_KINDS[int(g.integers(len(ATTACK_KINDS)))]
        doc = {
            "protocol": {
                "sources": [{"label": "U", "mu": 0.0, "q": q_u},
                            {"label": "V", "mu": float(g.uniform(0.05, 0.3)), "q": q_v},
                            {"label": "W", "mu": float(g.uniform(0.4, 0.9)), "q": 1.0 - q_u - q_v}],
                "channel": {"eta": float(10 ** g.uniform(-3, -1)), "y0": float(10 ** g.uniform(-6, -4))},
                "K": int(10 ** (6 + 5 * ((self.k_offset + i * GOLDEN) % 1.0))),
            },
            "attack": {"kind": kind, "tau": int(g.integers(2, 51)) if kind == "block_correlated" else 1},
            "eps_dsp": 0.01,
            "seed": self.seed * 1_000_000 + i,
        }
        eps = float(10 ** g.uniform(-10, -2))
        cfg = config_from_dict(doc)
        session = simulate_session(cfg.protocol, cfg.attack, RngStream(self.seed, i))
        tampered = i % TAMPER_EVERY == TAMPER_EVERY - 1
        public = tamper(session.public(), 0, float(g.uniform(5.0, 20.0))) if tampered else session.public()
        slot = i % self.SLOTS
        config_path = self.inputs / f"config{slot}.json"
        session_path = self.inputs / f"session{slot}.json"
        config_path.write_text(json.dumps(doc))
        session_path.write_text(json.dumps({"session": {"public": {
            "K": public.K, "K_i": list(public.K_i), "D_iE": list(public.D_iE),
            "D_E": public.D_E, "F_E": public.F_E}}}))
        return {
            "i": i, "eps": eps, "public": public, "session": session, "tampered": tampered,
            "config_path": config_path,
            "meta": expected_meta(replace(cfg, eps_dsp=eps)),
            "argv": ["estimate", "--config", str(config_path), "--session", str(session_path),
                     "--eps", repr(eps), "--out", str(self.artifacts)],
        }

    def run(self, op: dict, tr):
        with tr.span("cli.estimate"):
            return cli.main(op["argv"])

    def check(self, op: dict, rc) -> tuple[bool, dict]:
        doc = json.loads((self.artifacts / "estimate.json").read_text())
        rec = certified(doc["estimate"])
        if not op["tampered"]:
            rec["violation"] = violated(rec, op["session"])
        meta = {k: str(v) for k, v in doc["meta"].items()}
        ok = (rc == (cli.EXIT_INFEASIBLE if op["tampered"] else cli.EXIT_OK)
              and meta == op["meta"] and outcome_ok(rec, op["tampered"]))
        return ok, rec

    def layers(self, op: dict, rc, tr) -> None:
        cfg = trace_config(tr, op["config_path"])
        truth = None if op["tampered"] else op["session"]
        with tr.span("estimator.abort" if op["tampered"] else "estimator.estimate_session") as attrs:
            r = estimate_session(op["public"], cfg.protocol, op["eps"], cfg.key_params)
        attrs.update(estimate_attrs(certified(r.to_dict()), truth))
        if truth is not None:
            trace_estimate(tr, op["public"], cfg.protocol, op["eps"])
        trace_rewrite(tr, self.artifacts / "estimate.json", self.rewrites / "estimate.json")

    def probe_config(self) -> Path:
        return self.make_op(0)["config_path"]

    def finish(self, records: list[dict]) -> list[tuple[str, bool, str]]:
        return [oracle_check(self.seed)]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

FIGURE_COMMANDS = ("sweep-tau", "coverage", "posterior", "simulate", "reproduce-fig1", "reproduce-fig2")
ARTIFACTS = {
    "sweep-tau": ("sweep_tau.csv",), "coverage": ("coverage.csv",), "posterior": ("posterior.csv",),
    "simulate": ("session.json",), "reproduce-fig1": ("fig1.csv",),
    "reproduce-fig2": ("fig2a.csv", "fig2b.csv"),
}
ROWS = {"sweep_tau.csv": 100, "fig1.csv": 100, "coverage.csv": len(cli.COVERAGE_CS),
        "fig2a.csv": len(cli.COVERAGE_CS), "posterior.csv": cli.POSTERIOR_POINTS,
        "fig2b.csv": cli.POSTERIOR_POINTS}
SHIPPED = ("bright", "fig1")
# the Monte Carlo cross-check of demos/variance_sweep_demo.py
MC_CONFIG_ARGS = dict(sources=(SourceSpec("U", 0.0, 0.2), SourceSpec("V", 0.2, 0.3), SourceSpec("W", 1.0, 0.5)),
                      channel=ChannelParams(eta=0.3, y0=0.05), K=10**6)
MC_TAUS = (1, 5, 10)
MC_BATCH = 100           # sessions per op
MC_OPS_PER_TAU = 2       # per cycle; six ~30 ms batches put the cycle's median op on a plateau
MC_CHECK_SESSIONS = 2000  # sessions per tau behind the spread check
MC_TOLERANCE = 0.10      # simulated spread within 10% of the closed form


class Figures:
    """Figure subcommands on both shipped configs, then one Monte Carlo batch per tau."""

    name = "figures"
    CYCLE = [(c, sub) for c in SHIPPED for sub in FIGURE_COMMANDS] + [("mc", tau) for tau in MC_TAUS] * MC_OPS_PER_TAU
    warmup = len(CYCLE)

    def __init__(self, root: Path, seed: int, out: Path):
        self.seed = seed
        self.paths = {c: root / "configs" / f"{c}.json" for c in SHIPPED}
        self.configs = {c: load_config(p) for c, p in self.paths.items()}
        self.artifacts = out / "artifacts"
        self.rewrites = out / "rewrites"
        for d in (self.artifacts, self.rewrites):
            d.mkdir(parents=True, exist_ok=True)
        self.mc = ProtocolConfig(**MC_CONFIG_ARGS)
        self.mc_gens = {tau: RngStream(seed, 1_000_000 + tau).generator() for tau in MC_TAUS}
        self.mc_rates: dict[int, list[float]] = {tau: [] for tau in MC_TAUS}

    def make_op(self, i: int) -> dict:
        source, arg = self.CYCLE[i % len(self.CYCLE)]
        if source == "mc":
            return {"i": i, "mc": arg}
        g = np.random.default_rng([self.seed, i])
        seed, tau = self.seed * 1_000_000 + i, int(g.integers(1, 21))
        base = self.configs[source]
        cfg = replace(base, seed=seed, attack=AttackSpec(kind=base.attack.kind, tau=tau,
                                                         yields_override=base.attack.yields_override))
        return {"i": i, "sub": arg, "cfg": cfg, "tau": tau, "config_path": self.paths[source],
                "meta": expected_meta(cfg),
                "argv": [arg, "--config", str(self.paths[source]), "--out", str(self.artifacts),
                         "--seed", str(seed), "--tau", str(tau)]}

    def run(self, op: dict, tr):
        if "mc" not in op:
            with tr.span(f"cli.{op['sub']}"):
                return cli.main(op["argv"])
        tau = op["mc"]
        attack, gen = AttackSpec("block_correlated", tau=tau), self.mc_gens[tau]
        rates = []
        for _ in range(MC_BATCH):
            with tr.span("attacks.simulate_session"):
                s = simulate_session(self.mc, attack, gen)
            rates.append(s.D_iE[1] / s.K_i[1])
        with tr.span("attacks.analytic_variance_report"):
            report = analytic_variance_report(self.mc, tau)
        return rates, report

    def check(self, op: dict, result) -> tuple[bool, dict]:
        if "mc" in op:
            rates, report = result
            self.mc_rates[op["mc"]].extend(rates)
            std = float(np.std(rates, ddof=1))
            return math.isfinite(std), {"tau": op["mc"], "rate_std": std, "sigma_V": report.sigma("V")}
        rec, ok = {"sub": op["sub"]}, result == cli.EXIT_OK
        for name in ARTIFACTS[op["sub"]]:
            path = self.artifacts / name
            rec[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            ok = ok and self._artifact_ok(path, op)
        return ok, rec

    def _artifact_ok(self, path: Path, op: dict) -> bool:
        """The artifact parses, has the expected shape and carries seed, config hash, version."""
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            meta = {k: str(v) for k, v in doc["meta"].items()}
            pub = doc["session"]["public"]
            body = (sum(pub["K_i"]) == pub["K"] == op["cfg"].protocol.K
                    and sum(pub["D_iE"]) == pub["D_E"] and 0 <= pub["F_E"] <= pub["D_E"])
        else:
            meta, names, rows = read_csv(path)
            cols = list(zip(*rows))
            body = len(rows) == ROWS[path.name] and all(math.isfinite(v) for row in rows for v in row)
            for name, col in zip(names, cols):
                if name.startswith("posterior_tau"):
                    body = body and abs(math.fsum(col) - 1.0) < 1e-9
                if name == "coverage":
                    body = body and all(0.0 <= v <= 1.0 for v in col)
        return body and meta == op["meta"]

    def layers(self, op: dict, result, tr) -> None:
        if "mc" in op:
            return
        trace_config(tr, op["config_path"])
        cfg, sub, tau = op["cfg"], op["sub"], op["tau"]
        p = cfg.protocol
        j = vacuum_index(p)
        K_U = int(round(p.sources[j].q * p.K))
        if sub in ("sweep-tau", "reproduce-fig1"):
            for t in (1, 10, 100):
                with tr.span("attacks.analytic_variance_report"):
                    analytic_variance_report(p, t)
        if sub in ("coverage", "reproduce-fig2"):
            for c in cli.COVERAGE_CS:
                with tr.span("estimator.coverage_probability"):
                    coverage_probability(K_U, p.channel.y0, tau, c)
        if sub in ("posterior", "reproduce-fig2"):
            name = "posterior.csv" if sub == "posterior" else "fig2b.csv"
            grid = [row[0] for row in read_csv(self.artifacts / name)[2]]
            if sub == "posterior":
                s = simulate_session(p, cfg.attack, RngStream(cfg.seed, 0))
                K_U, D_U = s.K_i[j], s.D_iE[j]
            else:
                D_U = int(round(p.channel.y0 * K_U))
            with tr.span("estimator.bayes_dark_posterior"):
                bayes_dark_posterior(D_U, K_U, tau, grid)
        if sub == "simulate":
            trace_simulation(tr, p, cfg.attack, RngStream(cfg.seed, 0))
        for name in ARTIFACTS[sub]:
            trace_rewrite(tr, self.artifacts / name, self.rewrites / name)

    def probe_config(self) -> Path:
        return self.paths["fig1"]

    def finish(self, records: list[dict]) -> list[tuple[str, bool, str]]:
        checks = []
        for tau in MC_TAUS:
            rates, gen = self.mc_rates[tau], self.mc_gens[tau]
            attack = AttackSpec("block_correlated", tau=tau)
            while len(rates) < MC_CHECK_SESSIONS:  # top up short runs, untimed
                s = simulate_session(self.mc, attack, gen)
                rates.append(s.D_iE[1] / s.K_i[1])
            ratio = float(np.std(rates, ddof=1)) / analytic_variance_report(self.mc, tau).sigma("V")
            checks.append((f"mc_spread_tau{tau}", abs(ratio - 1.0) <= MC_TOLERANCE,
                           f"simulated/closed-form spread {ratio:.4f} over {len(rates)} sessions"))
        return checks


WORKLOADS = {w.name: w for w in (SoundnessBright, CertifyMixed, Figures)}
