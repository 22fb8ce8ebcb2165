"""The horizonmix benchmark workloads: set-up, measured passes and checks.

Each workload is driven only through the package's public calls.  A *pass*
is a fixed unit of work that depends only on the seed:

* train-flow: one ``training.train`` call of ``TRAIN_ITERATIONS`` steps at
  B=64 from the same seeded weights, writing ``metrics.jsonl`` and one
  periodic checkpoint;
* eval-*: the task suite evaluated in ``EVAL_ROUNDS`` rounds, each one
  ``evaluate`` call over every ``EVAL_ROUNDS``-th task (one trial per task)
  followed by its share of ``PROBE_REPLANS`` B=1 replans on observations
  recorded from that evaluation.  Interleaving spreads both measurements
  over the pass.

An untraced run repeats passes until the requested seconds have elapsed; a
traced run makes one untraced and one traced pass, so that its counts
repeat exactly for a seed and the difference is the tracing overhead.

An op is a train step, an episode or a probe replan.  It fails when it
raises or when one of its outputs fails a check; a task the untrained
policy does not solve is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from horizonmix import tensor as T
from horizonmix.checkpoint import load_policy, save_policy
from horizonmix.config import TrainConfig
from horizonmix.consensus import consensus_prefix
from horizonmix.envbench import (ConsensusExecutor, FixedPrefixExecutor,
                                 evaluate, generate_dataset, make_suite,
                                 run_episode)
from horizonmix.policy import ModelConfig, Policy
from horizonmix.rng import make_rng
from horizonmix.training import default_loss, prepare_policy, train

from spans import ROOT, BENCH_PREFIX, Hooks, Tracer, record_exec_share, traced

SETUP_REPEATS = 3
EPISODES_PER_TASK = 4     # demonstrations for normalization and training
TRAIN_ITERATIONS = 4      # per pass; one periodic checkpoint, after step 2
PROBE_REPLANS = 100       # B=1 replans per eval pass; p90 has 10 beyond it
EVAL_TRIALS = 1           # one episode per task: replans group by task id
EVAL_ROUNDS = 4           # suite slices per pass, each followed by probe replans
F64_PROBES = 2            # probe replans re-run with float64 weights
F64_RTOL, F64_ATOL = 1e-4, 1e-5   # float32 vs float64, env-scale actions
ALPHA_ATOL = 1e-5         # gate weights sum to 1 within float32 rounding
MIN_COVERAGE = 0.9        # layer self times must explain the traced pass

# Span whose self time each per-layer ``*_ms`` metric reports, per op.
LAYER_SPANS = {
    "transformer.ln_ms": "transformer.ln",
    "transformer.qkv_ms": "transformer.qkv",
    "transformer.attention_ms": "transformer.attention",
    "transformer.out_proj_ms": "transformer.out_proj",
    "transformer.ffn_ms": "transformer.ffn",
    "transformer.final_ln_ms": "transformer.final_ln",
    "transformer.self_ms": "transformer.forward",
    "tensor.backward_ms": "tensor.backward",
    "training.adamw_ms": "training.adamw",
    "training.self_ms": "training.train",
    "policy.loss_ms": "policy.loss",
    "policy.predict_ms": "policy.predict",
    "heads.self_ms": "heads",
    "consensus.prefix_ms": "consensus.prefix",
    "envbench.evaluate.self_ms": "envbench.evaluate",
    "encoder.encode_ms": "encoder.encode",
    "mixture.gate_ms": "mixture.gate",
    "mixture.fuse_ms": "mixture.fuse",
    "mixture.balance_ms": "mixture.balance",
}

# The end-to-end metric each per-layer metric should move, and where.
LAYER_TARGETS = {
    "transformer.ln_ms": "latency_mean_ms and throughput_per_s on train-flow and eval-flow-consensus; smaller on eval-cls-fixed",
    "transformer.qkv_ms": "as transformer.ln_ms",
    "transformer.attention_ms": "as transformer.ln_ms",
    "transformer.out_proj_ms": "as transformer.ln_ms",
    "transformer.ffn_ms": "as transformer.ln_ms",
    "transformer.final_ln_ms": "as transformer.ln_ms",
    "transformer.self_ms": "as transformer.ln_ms (masks, token assembly, residuals)",
    "transformer.rows": "as transformer.ln_ms, and peak_rss_mb on train-flow",
    "transformer.attn_scores": "as transformer.ln_ms",
    "tensor.backward_ms": "latency_mean_ms and throughput_per_s on train-flow only",
    "tensor.tape_nodes": "latency_mean_ms and throughput_per_s on train-flow only",
    "training.adamw_ms": "latency_mean_ms and throughput_per_s on train-flow only",
    "training.self_ms": "latency_mean_ms and throughput_per_s on train-flow only",
    "policy.loss_ms": "latency_mean_ms on train-flow only",
    "policy.predict_ms": "latency_mean_ms/latency_p90_ms on the eval workloads",
    "policy.predict_rows": "throughput_per_s on the eval workloads (batched replans)",
    "heads.self_ms": "latency_mean_ms/latency_p90_ms on eval-flow-consensus (ODE loop, context cache)",
    "heads.ode_steps": "latency_mean_ms/latency_p90_ms on eval-flow-consensus only",
    "consensus.prefix_ms": "latency_mean_ms/latency_p90_ms on eval-flow-consensus only",
    "consensus.exec_share": "throughput_per_s on eval-flow-consensus only",
    "envbench.evaluate.self_ms": "throughput_per_s, mostly on eval-cls-fixed",
    "envbench.evaluate.chunks": "throughput_per_s on the eval workloads",
    "envbench.env.step_us": "throughput_per_s, mostly on eval-cls-fixed",
    "envbench.env.steps": "throughput_per_s on the eval workloads",
    "encoder.encode_ms": "every workload, small",
    "mixture.gate_ms": "every workload, small",
    "mixture.fuse_ms": "every workload, small",
    "mixture.balance_ms": "train-flow, small",
    "envbench.dataset.generate_s": "setup_s",
    "envbench.env.make_suite_s": "setup_s",
    "envbench.dataset.windows": "setup_s",
    "checkpoint.save_ms": "setup_s on the eval workloads; latency_mean_ms on train-flow",
    "checkpoint.load_ms": "setup_s on the eval workloads",
    "checkpoint.bytes": "setup_s",
    "trace.overhead_ms": "none: traced minus untraced pass time, per op",
    "trace.overhead_pct": "none: traced minus untraced pass time, share of untraced",
    "trace.coverage": "none: layer self times over traced pass time (at least 0.9)",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


@dataclass
class Pass:
    """Measurements and op outcomes of one pass."""

    elapsed: float                  # seconds of the measured region
    work: int                       # train samples or executed chunks
    work_seconds: float             # time spent on that work
    latencies: list[float]          # seconds per train step or probe replan
    ops: list[str | None]           # one entry per op: None or the problem
    digests: dict[str, str]
    timed_ops: int = 0              # ops the per-layer times are divided by
    extra: dict = field(default_factory=dict)


def _median_setup(setup) -> dict:
    """Run ``setup`` SETUP_REPEATS times; median of every timing it returns."""
    runs = [setup() for _ in range(SETUP_REPEATS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def _problem(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def check_prediction(fused, per_h, alpha, horizons) -> str | None:
    """Finite outputs; gate weights sum to 1 over the valid horizons of each
    step and are exactly 0 at invalid (step, horizon) pairs."""
    if not np.isfinite(fused).all():
        return "non-finite fused actions"
    if per_h is not None and not np.isfinite(per_h).all():
        return "non-finite per-horizon actions"
    steps = np.arange(1, horizons.max_horizon + 1)[:, None]
    valid = steps <= np.asarray(horizons.horizons)[None, :]
    if np.any(alpha[..., ~valid] != 0.0):
        return "gate weight at an invalid (step, horizon) pair"
    if not np.allclose(alpha.sum(axis=-1), 1.0, rtol=0.0, atol=ALPHA_ATOL):
        return "gate weights do not sum to 1"
    return None


# ---------------------------------------------------------------------------
# train-flow
# ---------------------------------------------------------------------------


class TrainFlow:
    meaning = ("throughput_per_s counts train samples (B=64 per step); "
               "latency_* are train steps")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cfg = TrainConfig(model=ModelConfig(head="flow"), seed=seed,
                               iterations=TRAIN_ITERATIONS,
                               checkpoint_every=TRAIN_ITERATIONS // 2)
        self.load_times: list[float] = []
        self.ckpt_bytes = 0

    def setup(self) -> dict:
        def once():
            start = perf_counter()
            suite, make_s = _timed(make_suite, seed=self.seed)
            dataset, gen_s = _timed(generate_dataset, suite, EPISODES_PER_TASK,
                                    self.cfg.max_horizon, seed=self.seed)
            self.dataset = dataset
            self.initial = prepare_policy(self.cfg, dataset)
            return {"setup_s": perf_counter() - start, "make_suite_s": make_s,
                    "generate_s": gen_s, "windows": len(dataset)}
        return _median_setup(once)

    def _fresh_policy(self) -> Policy:
        p = self.initial
        params = {k: T.param(v.data.copy()) for k, v in p.params.items()}
        return Policy(p.cfg, params, p.norm, p.grid)

    def warm_up(self) -> None:
        train(self._fresh_policy(), self.dataset, replace(self.cfg, iterations=1))

    def run_pass(self, tracer: Tracer | None = None,
                 hooks: Hooks | None = None) -> Pass:
        policy = self._fresh_policy()
        if hooks is not None:
            hooks.watch(policy.params)
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        base = default_loss(policy, self.cfg)
        stamps, totals = [], []

        def loss_fn(*batch):
            stamps.append(perf_counter())
            breakdown = base(*batch)
            totals.append(float(breakdown.total.data))
            if tracer is not None:
                tracer.counts["tensor.tape_nodes"] += tracer.call(
                    "bench.count", lambda: len(T.linearize(breakdown.total)))
            return breakdown

        def measured():
            return traced(tracer, "training.train", train, policy, self.dataset,
                          self.cfg, metrics_path=out / "metrics.jsonl",
                          checkpoint_dir=out, loss_fn=loss_fn)

        error, metrics = None, []
        start = perf_counter()
        try:
            _policy, metrics = traced(tracer, ROOT, measured)
        except Exception as exc:  # a raising step is a failed op
            error = _problem(exc)
        end = perf_counter()

        ops = [None if np.isfinite(t) else "non-finite loss" for t in totals]
        if error is not None:
            ops[-1:] = [error]
        problem = self._check_outputs(out, metrics, totals) if error is None else None
        if problem is not None and ops:
            ops[-1] = ops[-1] or problem
        return Pass(elapsed=end - start,
                    work=len(totals) * self.cfg.batch_size,
                    work_seconds=end - start,
                    latencies=list(np.diff(stamps + [end])), ops=ops,
                    digests={"loss_trace": digest(metrics)},
                    timed_ops=len(totals))

    def _check_outputs(self, out: Path, metrics, totals) -> str | None:
        iterations = self.cfg.iterations
        if len(metrics) != iterations:
            return f"{len(metrics)} metrics lines for {iterations} iterations"
        if [m["total"] for m in metrics] != totals:
            return "metrics totals differ from the returned losses"
        with open(out / "metrics.jsonl") as fh:
            if [json.loads(line) for line in fh] != metrics:
                return "metrics.jsonl differs from the returned metrics"
        every = self.cfg.checkpoint_every
        ckpt = out / f"checkpoint_{every:06d}.bin"
        if not ckpt.exists():
            return "periodic checkpoint missing"
        (loaded, _cfg, meta), load_s = _timed(load_policy, ckpt)
        self.load_times.append(load_s)
        self.ckpt_bytes = ckpt.stat().st_size
        if meta["iteration"] != every:
            return f"checkpoint iteration {meta['iteration']} != {every}"
        if sorted(loaded.params) != sorted(self.initial.params):
            return "checkpoint parameter names differ"
        if not all(np.isfinite(p.data).all() for p in loaded.params.values()):
            return "non-finite checkpoint parameters"
        return None

    def final_checks(self, first: Pass) -> list[str | None]:
        return []

    def checkpoint_metrics(self, tracer: Tracer) -> dict:
        saves = [e - s for n, s, e, _ in tracer.spans if n == "checkpoint.save"]
        return {"checkpoint.save_ms": 1e3 * statistics.median(saves) if saves else 0.0,
                "checkpoint.load_ms": 1e3 * statistics.median(self.load_times)
                if self.load_times else 0.0,
                "checkpoint.bytes": self.ckpt_bytes}


# ---------------------------------------------------------------------------
# eval workloads
# ---------------------------------------------------------------------------


class RecordingPolicy:
    """Stands in for the policy inside ``evaluate``: forwards ``predict``,
    keeps every row's observation and outputs for checks after the pass."""

    def __init__(self, policy, tracer: Tracer | None):
        self._policy = policy
        self._tracer = tracer
        self.cfg = policy.cfg
        self.horizons = policy.horizons
        self.rows: list[tuple] = []   # (obs, task id, fused, per_h, alpha)

    def predict(self, obs, task_ids, **kwargs):
        fused, per_h, alpha = traced(self._tracer, "policy.predict",
                                     self._policy.predict, obs, task_ids, **kwargs)
        for i, tid in enumerate(np.asarray(task_ids)):
            self.rows.append((np.array(obs[i], copy=True), int(tid), fused[i],
                              None if per_h is None else per_h[i], alpha[i]))
        return fused, per_h, alpha


class Eval:
    meaning = ("throughput_per_s counts executed chunks inside evaluate; "
               "latency_* are B=1 probe replans")

    def __init__(self, seed: int, workdir: Path, head: str, executor):
        self.seed = seed
        self.workdir = workdir
        self.executor = executor
        self.consensus = isinstance(executor, ConsensusExecutor)
        self.cfg = TrainConfig(model=ModelConfig(head=head), seed=seed)

    def setup(self) -> dict:
        def once():
            start = perf_counter()
            suite, make_s = _timed(make_suite, seed=self.seed)
            dataset, gen_s = _timed(generate_dataset, suite, EPISODES_PER_TASK,
                                    self.cfg.max_horizon, seed=self.seed)
            policy = prepare_policy(self.cfg, dataset)
            path = self.workdir / "policy.bin"
            _, save_s = _timed(save_policy, path, policy, self.cfg, 0)
            (loaded, _cfg, _meta), load_s = _timed(load_policy, path)
            self.suite, self.dataset = suite, dataset
            self.policy = loaded.detached()
            return {"setup_s": perf_counter() - start, "make_suite_s": make_s,
                    "generate_s": gen_s, "windows": len(dataset),
                    "save_s": save_s, "load_s": load_s,
                    "bytes": path.stat().st_size}
        timings = _median_setup(once)
        self.setup_timings = timings
        return timings

    def warm_up(self) -> None:
        self._replan(self.dataset.observations[0], int(self.dataset.task_ids[0]),
                     make_rng(self.seed, "bench-warm-up"), None)

    def _replan(self, obs, task_id, rng, tracer):
        """One B=1 replan: predict, then choose the executed prefix."""
        fused, per_h, alpha = traced(
            tracer, "policy.predict", self.policy.predict, obs[None],
            np.array([task_id]), rng=rng,
            need_per_horizon=self.executor.needs_per_horizon)
        h_max = self.policy.horizons.max_horizon
        if self.consensus:
            trace = traced(tracer, "consensus.prefix", consensus_prefix,
                           fused[0], per_h[0], alpha[0], self.policy.horizons,
                           self.executor.config)
            if tracer is not None:
                record_exec_share(tracer, trace)
            k = trace.k_exec
        else:
            k = min(self.executor.prefix, h_max)
        return fused, per_h, alpha, k

    def _round(self, r: int, tracer: Tracer | None) -> dict:
        """Evaluate one slice of the suite, then run its share of the probe."""
        proxy = RecordingPolicy(self.policy, tracer)
        out = {"tasks": self.suite[r::EVAL_ROUNDS], "error": None,
               "table": None, "proxy_rows": proxy.rows, "probe": [],
               "latencies": []}
        start = perf_counter()
        try:
            out["table"] = traced(tracer, "envbench.evaluate", evaluate, proxy,
                                  out["tasks"], EVAL_TRIALS, self.executor,
                                  seed=self.seed)
        except Exception as exc:  # every episode of the round fails
            out["error"] = _problem(exc)
        out["eval_s"] = perf_counter() - start
        sources = [(obs, tid) for obs, tid, *_ in proxy.rows]
        for i in range(PROBE_REPLANS // EVAL_ROUNDS if sources else 0):
            obs, tid = sources[i % len(sources)]
            rng = make_rng(self.seed, "bench-probe", str(r), str(i))
            t0 = perf_counter()
            try:
                result = self._replan(obs, tid, rng, tracer)
            except Exception as exc:  # a raising replan is a failed op
                result = _problem(exc)
            out["latencies"].append(perf_counter() - t0)
            out["probe"].append((obs, tid, (str(r), str(i)), result))
        return out

    def run_pass(self, tracer: Tracer | None = None,
                 hooks: Hooks | None = None) -> Pass:
        if hooks is not None:
            hooks.watch(self.policy.params)
        start = perf_counter()
        rounds = traced(tracer, ROOT, lambda: [self._round(r, tracer)
                                               for r in range(EVAL_ROUNDS)])
        elapsed = perf_counter() - start

        ops: list[str | None] = []
        for rnd in rounds:
            ops += self._episode_problems(rnd)
            ops += [self._probe_problem(out) for *_, out in rnd["probe"]]
            ops += ["no observations recorded for the probe"] * (
                PROBE_REPLANS // EVAL_ROUNDS - len(rnd["probe"]))
        actions = [x for rnd in rounds for *_, out in rnd["probe"]
                   if not isinstance(out, str) for x in (out[0], out[3])]
        chunks = sum(len(rnd["proxy_rows"]) for rnd in rounds)
        return Pass(elapsed=elapsed,
                    work=chunks,
                    work_seconds=sum(rnd["eval_s"] for rnd in rounds),
                    latencies=[x for rnd in rounds for x in rnd["latencies"]],
                    ops=ops,
                    digests={"eval_table": digest([rnd["table"] for rnd in rounds]),
                             "probe_actions": digest(*actions)},
                    timed_ops=chunks + sum(len(rnd["probe"]) for rnd in rounds),
                    extra={"rounds": rounds, "chunks": chunks})

    def _episode_problems(self, rnd: dict) -> list[str | None]:
        error = rnd["error"] or self._check_table(rnd["tasks"], rnd["table"])
        by_task: dict[int, list] = {}
        for row in rnd["proxy_rows"]:
            by_task.setdefault(row[1], []).append(row)
        ops = []
        for task in rnd["tasks"]:
            replans = by_task.get(task.task_id, [])
            problem = error or (None if replans else "episode made no replan")
            for _obs, _tid, fused, per_h, alpha in replans:
                problem = problem or check_prediction(fused, per_h, alpha,
                                                      self.policy.horizons)
            ops.append(problem)
        return ops

    def _check_table(self, tasks, rows) -> str | None:
        families = sorted({t.family for t in tasks})
        if [r["family"] for r in rows] != families:
            return "eval table families differ from the suite"
        h_max = self.policy.horizons.max_horizon
        for r in rows:
            if r["executor"] != self.executor.name:
                return "eval table names another executor"
            if not (0.0 <= r["success_rate"] <= 1.0 and r["mean_steps"] > 0
                    and 1.0 <= r["mean_prefix"] <= h_max):
                return f"eval table row out of range: {r}"
        return None

    def _probe_problem(self, out) -> str | None:
        if isinstance(out, str):
            return out
        fused, per_h, alpha, k = out
        return (check_prediction(fused, per_h, alpha, self.policy.horizons)
                or self._prefix_problem(k))

    def _prefix_problem(self, k: int) -> str | None:
        """k_exec lies in [min_steps, H] (fixed prefixes in [1, H])."""
        lo = self.executor.config.min_steps if self.consensus else 1
        if lo <= k <= self.policy.horizons.max_horizon:
            return None
        return f"executed prefix {k} outside [{lo}, H]"

    def final_checks(self, first: Pass) -> list[str | None]:
        """Checks on the first round of the first pass: float64 agreement
        of probe replans, and full episode records, which must replay what
        ``evaluate`` recorded.  Replays are ops of their own."""
        rnd = first.extra["rounds"][0]
        p = self.policy
        wide = Policy(p.cfg, {k: T.Tensor(v.data.astype(np.float64))
                              for k, v in p.params.items()}, p.norm, p.grid)
        for i, (obs, tid, tags, out) in enumerate(rnd["probe"][:F64_PROBES]):
            if isinstance(out, str):
                continue
            ref = wide.predict(obs[None], np.array([tid]),
                               rng=make_rng(self.seed, "bench-probe", *tags),
                               need_per_horizon=self.executor.needs_per_horizon)
            if not all(np.allclose(a, b, rtol=F64_RTOL, atol=F64_ATOL)
                       for a, b in zip(out[:3], ref) if a is not None):
                op = len(rnd["tasks"]) + i   # round 0: episodes, then probe
                first.ops[op] = first.ops[op] or "float32 predict disagrees with float64"
        ops = []
        for family in sorted({t.family for t in rnd["tasks"]}):
            task = next(t for t in rnd["tasks"] if t.family == family)
            ops.append(self._check_record(task, rnd))
        return ops

    def _check_record(self, task, rnd: dict) -> str | None:
        try:
            rec = run_episode(self.policy, task, self.seed, 0, self.executor)
        except Exception as exc:  # a raising episode is a failed op
            return _problem(exc)
        if not sum(rec.prefix_lengths) == len(rec.actions) == rec.steps:
            return "episode record lengths disagree"
        for k in rec.selected_prefixes:
            if self._prefix_problem(k):
                return self._prefix_problem(k)
        starts = np.cumsum([0] + rec.prefix_lengths[:-1])
        seen = [obs for obs, tid, *_ in rnd["proxy_rows"] if tid == task.task_id]
        if len(seen) != len(starts) or not all(
                np.array_equal(rec.observations[s], o) for s, o in zip(starts, seen)):
            return "episode replay differs from the evaluated episode"
        return None

    def checkpoint_metrics(self, tracer: Tracer) -> dict:
        t = self.setup_timings
        return {"checkpoint.save_ms": 1e3 * t["save_s"],
                "checkpoint.load_ms": 1e3 * t["load_s"],
                "checkpoint.bytes": t["bytes"]}


WORKLOADS = {
    "train-flow": lambda seed, workdir: TrainFlow(seed, workdir),
    "eval-flow-consensus": lambda seed, workdir: Eval(
        seed, workdir, "flow", ConsensusExecutor()),
    "eval-cls-fixed": lambda seed, workdir: Eval(
        seed, workdir, "classification", FixedPrefixExecutor(5)),
}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    metrics: dict[str, float]
    ops: list[str | None]
    digests: dict[str, str]       # digest name -> value, equal in every pass
    problems: list[str]           # findings that make the run incorrect
    notes: list[str]              # other findings, for the reader


def _pass_digests(passes: list[Pass], problems: list[str]) -> dict[str, str]:
    first = passes[0].digests
    for i, p in enumerate(passes[1:], start=1):
        for name, value in p.digests.items():
            if value != first[name]:
                problems.append(f"digest mismatch: {name} of pass {i} is "
                                f"{value}, pass 0 gave {first[name]}")
    return dict(first)


def _warm_up(w) -> None:
    """One untimed op first; a failure here shows again in the passes."""
    try:
        w.warm_up()
    except Exception:  # the measured passes count and report the failure
        pass


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> Run:
    """Untraced run: passes until ``seconds`` have elapsed (at least one).

    Throughput is all work over the time spent on it, and the central
    latency is a mean, not a median: on a shared host whose speed switches
    between states, a median jumps from one state to the other while a mean
    moves with the share of time spent in each.  The median is printed.
    Latencies are train steps or probe replans."""
    w = WORKLOADS[workload](seed, workdir)
    setup = w.setup()
    _warm_up(w)
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(w.run_pass())
        if len(passes) > 1:
            passes[-1].extra = {}   # only the first pass is checked further
    extra_ops = w.final_checks(passes[0])
    ops = [op for p in passes for op in p.ops] + extra_ops
    latencies = [x for p in passes for x in p.latencies]
    problems: list[str] = []
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": sum(p.work for p in passes)
        / sum(p.work_seconds for p in passes),
        "latency_mean_ms": 1e3 * statistics.fmean(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
    }
    notes = [w.meaning,
             f"latency_p50_ms {1e3 * statistics.median(latencies):.6f} ms "
             "(printed, not gated)",
             f"{len(passes)} passes in {perf_counter() - start:.1f} s, "
             f"{len(latencies)} latency samples"]
    return Run(metrics, ops, _pass_digests(passes, problems), problems, notes)


def per_layer(workload, seed: int, workdir: Path, spans_path: Path) -> Run:
    """Traced run: one untraced and one traced pass of the same work."""
    w = WORKLOADS[workload](seed, workdir)
    setup = w.setup()
    _warm_up(w)
    plain = w.run_pass()
    tracer = Tracer()
    with Hooks(tracer) as hooks:
        spanned = w.run_pass(tracer, hooks)
    extra_ops = w.final_checks(plain)
    ops = plain.ops + spanned.ops + extra_ops
    notes = [f"hooks not installed (entry point missing): {hooks.missing}"] \
        if hooks.missing else []
    problems: list[str] = []
    digests = _pass_digests([plain, spanned], problems)

    n = spanned.timed_ops
    selfs = tracer.self_times()
    counts = tracer.counts
    traced_s = tracer.total(ROOT)
    covered = sum(t for name, t in selfs.items()
                  if not name.startswith(BENCH_PREFIX))
    predict_calls = sum(1 for s in tracer.spans if s[0] == "policy.predict")
    chunks = spanned.extra.get("chunks", 0)
    env_steps = counts["envbench.env.steps"]
    consensus_calls = counts["consensus.calls"]
    metrics = {name: 1e3 * selfs.get(span, 0.0) / n
               for name, span in LAYER_SPANS.items()}
    metrics.update({
        "transformer.rows": counts["transformer.rows"] / n,
        "transformer.attn_scores": counts["transformer.attn_scores"] / n,
        "tensor.tape_nodes": counts["tensor.tape_nodes"] / n,
        "policy.predict_rows": (spanned.timed_ops / predict_calls
                                if predict_calls else 0.0),
        "heads.ode_steps": counts["heads.ode_steps"] / n,
        "consensus.exec_share": counts["consensus.exec_share_sum"]
        / consensus_calls if consensus_calls else 0.0,
        "envbench.evaluate.chunks": chunks,
        "envbench.env.steps": env_steps,
        "envbench.env.step_us": 1e6 * selfs.get("envbench.env.step", 0.0)
        / env_steps if env_steps else 0.0,
        "envbench.dataset.generate_s": setup["generate_s"],
        "envbench.env.make_suite_s": setup["make_suite_s"],
        "envbench.dataset.windows": setup["windows"],
        "trace.overhead_ms": 1e3 * (traced_s - plain.elapsed) / n,
        "trace.overhead_pct": 100.0 * (traced_s - plain.elapsed) / plain.elapsed,
        "trace.coverage": covered / traced_s,
    })
    metrics.update(w.checkpoint_metrics(tracer))
    notes.append(f"traced pass {traced_s:.3f} s, untraced pass "
                 f"{plain.elapsed:.3f} s, {n} ops, {len(tracer.spans)} spans; "
                 f"layer self times cover {100 * covered / traced_s:.1f}%")
    if covered < MIN_COVERAGE * traced_s:
        problems.append("layer self times cover less than "
                        f"{100 * MIN_COVERAGE:.0f}% of the traced pass")
    tracer.write(spans_path)
    return Run(metrics, ops, digests, problems, notes)
