"""Checkpoint container: named little-endian arrays behind a JSON header.

Layout::

    bytes 0..7    magic  b"HZMXCKPT"
    bytes 8..15   header length (uint64, little-endian)
    header        UTF-8 JSON: {"version", "meta", "arrays": [
                      {"name", "dtype", "shape", "offset"}, ...]}
    data          raw array bytes at the stated offsets (relative to the
                  end of the header), little-endian

Save -> load -> save is byte-identical: array order, meta, and offsets all
round-trip through the header, and the JSON is dumped with sorted keys and
fixed separators.

A policy checkpoint holds the arrays ``policy_arrays`` lists: ``param.<name>``
per parameter, ``norm.<field>`` per ``Normalization`` statistic and, for the
classification head, ``grid.lo`` and ``grid.hi``. Its meta keys are
``train`` (the ``TrainConfig`` with its model), ``iteration`` and
``rng_state`` (None or the training generators' states). ``load_policy``
checks the stored arrays against that same list for the stored config.

A dataset's ``data.bin`` is the same container: ``envbench.dataset`` writes
its arrays and its manifest as meta, and its ``provenance`` builds the
manifest entries that decide whether a stored dataset is stale.
"""

import json
import math
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .errors import CheckpointFormatError, ConfigError
from .heads import BinGrid
from .policy import ModelConfig, Normalization, Policy

MAGIC = b"HZMXCKPT"
VERSION = 1


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        data = np.asarray(arr)  # tobytes() below writes C order; keeps 0-d shapes
        le = data.dtype.newbyteorder("<")
        blob = data.astype(le, copy=False).tobytes()
        entries.append({"name": name, "dtype": le.str,
                        "shape": list(data.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"version": VERSION, "meta": meta, "arrays": entries},
                        sort_keys=True, separators=(",", ":")).encode()
    # a reader sees the old file or the whole new one, never a partial write
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_arrays(path):
    """Returns (arrays dict in file order, meta dict).

    Raises CheckpointFormatError unless the arrays tile the data section
    exactly, in header order, as ``save_arrays`` writes them: a truncated
    file, an offset past the end, a shape that does not match the bytes or
    a dtype that is not one scalar element all fail here instead of reading
    garbage.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC or len(raw) < 16:
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    base = 16 + header_len
    if base > len(raw):
        raise CheckpointFormatError(f"{path}: header runs past the end of the file")
    try:
        header = json.loads(raw[16:base].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: corrupt header") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != VERSION:
        raise CheckpointFormatError(
            f"{path}: format version {version} is not supported (expected {VERSION})")
    try:
        table = [(e["name"], np.dtype(e["dtype"]), tuple(int(n) for n in e["shape"]),
                  e["offset"]) for e in header["arrays"]]
        meta = header["meta"]
    except (KeyError, TypeError, ValueError, SyntaxError) as exc:
        # numpy parses a dtype string such as ",f4" as code: SyntaxError
        raise CheckpointFormatError(f"{path}: malformed array table ({exc})") from exc
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype, shape, start in table:
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if (dtype.hasobject or dtype.shape or min(shape, default=0) < 0 or start != offset
                or base + end > len(raw)):
            raise CheckpointFormatError(
                f"{path}: array {name!r} ({dtype.str}, shape {shape}) at offset "
                f"{start} does not fit the data section")
        flat = np.frombuffer(raw, dtype=dtype, count=count, offset=base + offset)
        arrays[name] = flat.reshape(shape).copy()
        offset = end
    if base + offset != len(raw):
        raise CheckpointFormatError(
            f"{path}: {len(raw) - base} bytes of array data, the header "
            f"describes {offset}")
    return arrays, meta


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def policy_arrays(policy: Policy) -> dict[str, np.ndarray]:
    """Every array of a policy checkpoint, by name, in file order."""
    arrays = {f"param.{name}": policy.params[name].data
              for name in sorted(policy.params)}
    for f in fields(Normalization):
        arrays[f"norm.{f.name}"] = getattr(policy.norm, f.name)
    if policy.grid is not None:
        arrays["grid.lo"] = np.asarray(policy.grid.lo, dtype=np.float64)
        arrays["grid.hi"] = np.asarray(policy.grid.hi, dtype=np.float64)
    return arrays


def save_policy(path, policy: Policy, train: TrainConfig, iteration: int,
                rng_state: dict | None = None) -> None:
    meta = {
        "train": _jsonable(asdict(train)),
        "iteration": int(iteration),
        "rng_state": _jsonable(rng_state) if rng_state is not None else None,
    }
    save_arrays(path, policy_arrays(policy), meta)


def load_policy(path):
    """Returns (policy, train config, meta dict).

    Raises CheckpointFormatError when a well-formed container is not a
    policy checkpoint: meta lacks "train" or a non-negative int
    "iteration", the config holds a key or a value the config classes do
    not take, an array does not hold floats, the arrays are not the names
    and shapes ``policy_arrays`` lists for the stored config, or the
    param.* arrays differ in float width.
    """
    arrays, meta = load_arrays(path)
    try:
        return _policy_from(path, arrays, meta)
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointFormatError(
            f"{path}: not a policy checkpoint ({type(exc).__name__}: {exc})") from exc


def _policy_from(path, arrays, meta):
    not_float = sorted(name for name, arr in arrays.items() if arr.dtype.kind != "f")
    if not_float:
        raise CheckpointFormatError(
            f"{path}: not a policy checkpoint (arrays {not_float} do not hold floats)")
    if type(meta["iteration"]) is not int or meta["iteration"] < 0:
        raise CheckpointFormatError(
            f"{path}: not a policy checkpoint (iteration {meta['iteration']!r})")
    train_dict = dict(meta["train"])
    model = ModelConfig(**train_dict.pop("model"))
    train = TrainConfig(model=model, **train_dict)
    layout = policy_arrays(Policy.init(model, seed=None))  # zeros, nothing drawn
    expected = {k: a.shape for k, a in layout.items()}
    stored = {k: a.shape for k, a in arrays.items()}
    widths = sorted({a.dtype.name for k, a in arrays.items() if k.startswith("param.")})
    if stored != expected or len(widths) > 1:
        differ = sorted(k for k in expected.keys() | stored.keys()
                        if stored.get(k) != expected.get(k))
        raise CheckpointFormatError(
            f"{path}: not a policy checkpoint: arrays do not match the stored config "
            f"(names or shapes differ at {differ}, parameter float widths {widths})")
    params = {k[len("param."):]: T.param(a) for k, a in arrays.items()
              if k.startswith("param.")}
    norm = Normalization(**{f.name: arrays[f"norm.{f.name}"] for f in fields(Normalization)})
    grid = None
    if "grid.lo" in arrays:
        grid = BinGrid(lo=tuple(arrays["grid.lo"].tolist()),
                       hi=tuple(arrays["grid.hi"].tolist()), bins=model.bins)
    return Policy(model, params, norm, grid), train, meta
