"""In-memory span tracer and the hooks that attribute time to horizonmix layers.

A span is (name, start, end, parent).  Spans are kept in a list while a
traced pass runs and written out once at the end.  A layer's self time is the
duration of its spans minus the time their child spans cover.

``Hooks`` wraps public entry points of each layer (module functions and
class methods) for the duration of a traced pass and restores the originals
afterwards, so untraced passes run the unmodified program.  An entry point
that no longer exists is skipped and listed in ``Hooks.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import horizonmix.envbench.env as env_module
import horizonmix.heads as heads_module
import horizonmix.policy as policy_module
import horizonmix.tensor as T
import horizonmix.training as training_module
import horizonmix.transformer as transformer_module

# the package re-exports the function ``evaluate`` under the module's name
evaluate_module = importlib.import_module("horizonmix.envbench.evaluate")

ROOT = "bench.pass"      # the measured region of one traced pass
BENCH_PREFIX = "bench."  # the benchmark's own work; not a layer of the program

# T.linear calls are attributed through the parameter name of their weight;
# weights not listed here (embeddings, heads, gate, encoder) run inside a
# span of their caller.
WEIGHT_LAYERS = (
    ("attn.wq", "transformer.qkv"),
    ("attn.wk", "transformer.qkv"),
    ("attn.wv", "transformer.qkv"),
    ("attn.wo", "transformer.out_proj"),
    ("ffn.w1", "transformer.ffn"),
    ("ffn.w2", "transformer.ffn"),
)
FORWARD = "transformer.forward"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        inner = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, inner):
            totals[name] += end - start - child
        return dict(totals)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def traced(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


class Hooks:
    """Context manager that installs span wrappers on horizonmix layers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self._weight_layer: dict[int, str] = {}
        self._final_ln: set[int] = set()

    def watch(self, params) -> None:
        """Attribute linear and layer-norm calls of this parameter set."""
        self._weight_layer = {id(p): layer for name, p in params.items()
                              for suffix, layer in WEIGHT_LAYERS
                              if name.endswith(suffix)}
        self._final_ln = {id(params["final_ln.g"])} if "final_ln.g" in params else set()

    def __enter__(self):
        span = self._span
        span(T, "backward", "tensor.backward")
        self._wrap(T, "linear", self._linear)
        self._wrap(T, "layer_norm", self._layer_norm)
        self._wrap(T, "attention", self._attention)
        self._wrap(T, "gelu", self._gelu)
        self._wrap(transformer_module, "forward_multi_horizon", self._forward)
        self._wrap(transformer_module, "forward_regression_queries",
                   self._forward)
        for fn in ("flow_loss", "regression_loss", "classification_loss",
                   "regression_infer", "classification_infer"):
            span(heads_module, fn, "heads")
        self._wrap(heads_module, "flow_infer", self._flow_infer)
        span(heads_module, "gate", "mixture.gate")
        span(heads_module, "fuse", "mixture.fuse")
        span(policy_module, "encode", "encoder.encode")
        span(policy_module, "balance_loss", "mixture.balance")
        span(policy_module.Policy, "loss", "policy.loss")
        span(training_module.AdamW, "step", "training.adamw")
        span(training_module, "save_policy", "checkpoint.save")
        self._wrap(evaluate_module, "consensus_prefix", self._consensus)
        self._wrap(env_module.PointMassEnv, "step", self._env_step)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- installation ------------------------------------------------------
    def _wrap(self, owner, attr, make):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner, attr, name):
        tracer = self.tracer

        def make(fn):
            return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)
        self._wrap(owner, attr, make)

    # -- wrappers ----------------------------------------------------------
    def _linear(self, fn):
        def linear(x, w, b=None):
            layer = self._weight_layer.get(id(w))
            if layer is None:
                return fn(x, w, b)
            return self.tracer.call(layer, fn, x, w, b)
        return linear

    def _layer_norm(self, fn):
        def layer_norm(x, gamma, beta, *args, **kwargs):
            if id(gamma) in self._final_ln:
                self.tracer.counts["transformer.rows"] += x.data.size // x.shape[-1]
                name = "transformer.final_ln"
            else:
                name = "transformer.ln"
            return self.tracer.call(name, fn, x, gamma, beta, *args, **kwargs)
        return layer_norm

    def _attention(self, fn):
        def attention(q, k, v, *args, **kwargs):
            self.tracer.counts["transformer.attn_scores"] += (
                q.data.size // q.shape[-1] * k.shape[-2])
            return self.tracer.call("transformer.attention", fn, q, k, v,
                                    *args, **kwargs)
        return attention

    def _gelu(self, fn):
        def gelu(x):
            if self.tracer.current() != FORWARD:
                return fn(x)
            return self.tracer.call("transformer.ffn", fn, x)
        return gelu

    def _forward(self, fn):
        def forward(*args, **kwargs):
            self.tracer.counts["transformer.forwards"] += 1
            return self.tracer.call(FORWARD, fn, *args, **kwargs)
        return forward

    def _flow_infer(self, fn):
        def flow_infer(*args, **kwargs):
            before = self.tracer.counts["transformer.forwards"]
            try:
                return self.tracer.call("heads", fn, *args, **kwargs)
            finally:
                self.tracer.counts["heads.ode_steps"] += (
                    self.tracer.counts["transformer.forwards"] - before)
        return flow_infer

    def _consensus(self, fn):
        def consensus_prefix(*args, **kwargs):
            trace = self.tracer.call("consensus.prefix", fn, *args, **kwargs)
            record_exec_share(self.tracer, trace)
            return trace
        return consensus_prefix

    def _env_step(self, fn):
        def step(env, action):
            self.tracer.counts["envbench.env.steps"] += 1
            return self.tracer.call("envbench.env.step", fn, env, action)
        return step


def record_exec_share(tracer: Tracer, trace) -> None:
    """Accumulate k_exec / H of one consensus decision."""
    tracer.counts["consensus.calls"] += 1
    tracer.counts["consensus.exec_share_sum"] += (
        trace.k_exec / len(trace.disagreements))
