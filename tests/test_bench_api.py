"""The calls the benchmark makes into the package still bind.

``bench/`` drives the package only through public calls, so a renamed
keyword or a dropped positional there fails only when the benchmark runs.
Each entry below is the shape of one call in ``bench/workloads.py`` or
``bench/spans.py``, bound with ``inspect.signature``, and each attribute
the benchmark reads is looked up; a change to any of them fails here first.

The AST checks at the end keep ``src/`` free of code that only tests use:
every public function of ``tensor.py`` that builds a tape node must be
named by another module of ``src/``, every module but ``cli`` must be
imported by another module that is not a package ``__init__`` (a re-export
is not a use), and every public module-level function and class of
``src/`` must be named in ``src/`` or ``bench/`` outside its own
definition and outside the package ``__init__`` files.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from horizonmix import tensor as T
from horizonmix.checkpoint import load_policy, save_policy
from horizonmix.config import TrainConfig
from horizonmix.consensus import ConsensusConfig, ConsensusTrace, consensus_prefix
from horizonmix.envbench import (ConsensusExecutor, FixedPrefixExecutor, evaluate,
                                 generate_dataset, make_suite, run_episode)
from horizonmix.envbench.env import PointMassEnv
from horizonmix.envbench.evaluate import EpisodeRecord
from horizonmix.policy import ModelConfig, Policy
from horizonmix.rng import make_rng
from horizonmix.training import default_loss, prepare_policy, train

SRC = Path(__file__).resolve().parents[1] / "src" / "horizonmix"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# (label, callable, positional argument count, keyword names); a method's
# count includes ``self``
CALLS = [
    ("Policy.predict", Policy.predict, 3, ("rng", "need_per_horizon")),
    ("Policy", Policy, 4, ()),
    ("Policy.detached", Policy.detached, 1, ()),
    ("train", train, 3, ()),
    ("train keywords", train, 3, ("metrics_path", "checkpoint_dir", "loss_fn")),
    ("evaluate", evaluate, 4, ("seed",)),
    ("run_episode", run_episode, 5, ()),
    ("consensus_prefix", consensus_prefix, 5, ()),
    ("save_policy", save_policy, 4, ()),
    ("load_policy", load_policy, 1, ()),
    ("prepare_policy", prepare_policy, 2, ()),
    ("default_loss", default_loss, 2, ()),
    ("generate_dataset", generate_dataset, 3, ("seed",)),
    ("make_suite", make_suite, 0, ("seed",)),
    ("make_rng", make_rng, 4, ()),
    ("TrainConfig", TrainConfig, 0, ("model", "seed", "iterations", "checkpoint_every")),
    ("ModelConfig", ModelConfig, 0, ("head",)),
    ("T.linear", T.linear, 3, ()),  # the span hook passes (x, w, b) only
    ("T.backward", T.backward, 1, ()),
    ("T.linearize", T.linearize, 1, ()),
    ("T.param", T.param, 1, ()),
    ("T.Tensor", T.Tensor, 1, ()),
    ("PointMassEnv.step", PointMassEnv.step, 2, ()),
]

# span hooks that pass their first arguments by position and the rest through
LEADING = [
    ("T.attention", T.attention, ("q", "k", "v")),
    ("T.layer_norm", T.layer_norm, ("x", "gamma", "beta")),
]


@pytest.mark.parametrize("label, fn, positional, keywords", CALLS,
                         ids=[c[0] for c in CALLS])
def test_bench_call_binds(label, fn, positional, keywords):
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("label, fn, names", LEADING, ids=[c[0] for c in LEADING])
def test_bench_hook_leading_arguments(label, fn, names):
    params = list(inspect.signature(fn).parameters.values())[:len(names)]
    assert [p.name for p in params] == list(names)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_executor_attributes():
    fixed, consensus = FixedPrefixExecutor(5), ConsensusExecutor()
    assert fixed.needs_per_horizon is False and fixed.prefix == 5
    assert consensus.needs_per_horizon is True
    assert isinstance(consensus.config, ConsensusConfig)
    assert isinstance(consensus.config.min_steps, int)
    assert isinstance(fixed.name, str) and isinstance(consensus.name, str)


def test_record_and_config_attributes():
    record = {f.name for f in fields(EpisodeRecord)}
    assert {"observations", "actions", "prefix_lengths", "selected_prefixes",
            "steps"} <= record
    assert {"k_exec", "disagreements"} <= {f.name for f in fields(ConsensusTrace)}
    cfg = TrainConfig(model=ModelConfig(head="flow"))
    for name in ("max_horizon", "batch_size", "checkpoint_every", "iterations"):
        assert hasattr(cfg, name)


def _tape_nodes() -> list[str]:
    """Public functions of tensor.py whose body builds a node with ``_make``."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    return [fn.name for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_make"
                    for n in ast.walk(fn))]


def test_every_tape_node_has_a_src_caller():
    named = set()
    for path in SRC.rglob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "T"):
                named.add(node.attr)
    nodes = _tape_nodes()
    assert "attention" in nodes and "linear" in nodes
    assert sorted(set(nodes) - named) == []


def _imported_modules(path: Path) -> set[str]:
    """Dotted names of the ``horizonmix`` modules ``path`` imports, each
    ``from a import b`` counted as both ``a`` and ``a.b``."""
    package = ["horizonmix", *path.relative_to(SRC).parent.parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *filter(None, [node.module])])
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_every_module_has_a_src_importer():
    modules = {".".join(["horizonmix", *path.relative_to(SRC).with_suffix("").parts]): path
               for path in SRC.rglob("*.py")}
    importers = [path for path in modules.values() if path.name != "__init__.py"]
    orphans = [name for name, path in modules.items()
               if path.name not in ("__init__.py", "cli.py")
               and not any(name in _imported_modules(other)
                           for other in importers if other != path)]
    assert "horizonmix.envbench.expert" in modules
    assert orphans == []


def _names(tree: ast.AST) -> list[str]:
    """Every name ``tree`` mentions: bare names, attributes and imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name.rpartition(".")[2])
    return found


def test_every_public_definition_is_named_outside_itself():
    defined, named = {}, []
    for path in [*SRC.rglob("*.py"), *BENCH.glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            named += _names(tree)
        if path.is_relative_to(SRC):
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined[node.name] = _names(node)
    assert "Course" in defined and "PointMassEnv" in defined
    unused = sorted(name for name, inside in defined.items()
                    if named.count(name) == inside.count(name))
    assert unused == []
