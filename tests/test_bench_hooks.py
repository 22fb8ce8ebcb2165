"""The benchmark's span hooks find the entry points they wrap.

``bench/spans.py`` wraps module attributes by name and lists every name it
cannot find in ``Hooks.missing``. A renamed or deleted entry point would
silently stop being traced, so the expected gaps are pinned here: the six
functions the heads were folded out of, and ``tensor.gelu``, which
``tensor.mlp`` replaced and which now lives in the test oracles; the
benchmark still names all seven.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

STALE = {
    "horizonmix.transformer.forward_regression_queries",
    "horizonmix.heads.flow_loss",
    "horizonmix.heads.regression_loss",
    "horizonmix.heads.classification_loss",
    "horizonmix.heads.regression_infer",
    "horizonmix.heads.classification_infer",
    "horizonmix.tensor.gelu",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_stale_hooks_are_missing():
    spans = load_spans()
    with spans.Hooks(spans.Tracer()) as hooks:
        assert sorted(hooks.missing) == sorted(STALE)
