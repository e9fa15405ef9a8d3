"""JSON input and output: checkpoints (schema ``arpro-ckpt-v1``), config
files and every file the program writes.

A checkpoint is a single JSON document carrying the layer layout and all
parameters as one base64 blob of little-endian float64 bytes, which holds a
float32 network's values exactly. `from_json`
decodes a JSON value as a typed field, naming its dotted path in any error;
it reads a config file's sections and, through `entry`, each key a model's
`from_payload` reads from a checkpoint. `read` checks a checkpoint's schema
tag and kind, and `decode_array` the size and finiteness of its blob. The
JSON writer `write` and the CSV writer `write_csv` write every file the
program outputs.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import typing
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .tensor import Array, Mlp

SCHEMA = "arpro-ckpt-v1"

# One entry of a checkpoint's `layers` list; `in` is a keyword, so this is
# not a dataclass.
Layer = typing.TypedDict("Layer", {"in": int, "out": int, "act": str})

_TYPE_NAMES = {int: "an int", float: "a finite number", bool: "a bool", str: "a string"}


def from_json(tp, value, where: str):
    """`value`, decoded from JSON, as field type `tp`: a dataclass (from its
    fields that `__init__` takes), a TypedDict, ``tuple[X, ...]``,
    ``X | None``, int, float, bool or str. Any error is a ValueError naming
    `where`, the value's dotted path."""
    if dataclasses.is_dataclass(tp) or typing.is_typeddict(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {value!r}")
        hints = typing.get_type_hints(tp)
        if typing.is_typeddict(tp):
            names, required = list(hints), tp.__required_keys__
        else:
            fields = [f for f in dataclasses.fields(tp) if f.init]
            names = [f.name for f in fields]
            required = {f.name for f in fields
                        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise ValueError(f"unknown keys in {where}: {unknown}")
        kwargs = {}
        for name in names:
            if name in value:
                kwargs[name] = from_json(hints[name], value[name], f"{where}.{name}")
            elif name in required:
                raise ValueError(f"{where} lacks required key {name!r}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else from_json(args[0], value, where)
    if tp is float:
        # A JSON int is a float here; the bound turns away NaN, ±inf and ints too large for a float.
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{where} must be {_TYPE_NAMES[tp]}, got {value!r}")


def to_json(value):
    """JSON-native form of a `from_json` value: dataclasses become objects of
    the fields `__init__` takes, in field order, and tuples become lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value) if f.init}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def entry(payload: dict, key: str, tp=None, default=dataclasses.MISSING):
    """The checkpoint `payload`'s `key` decoded as type `tp` (`from_json`),
    or as stored when `tp` is None; `default` when the key is absent, and an
    error when it is absent and has no default."""
    if key not in payload:
        if default is dataclasses.MISSING:
            raise ValueError(f"checkpoint lacks required key {key!r}")
        return default
    return payload[key] if tp is None else from_json(tp, payload[key], f"checkpoint.{key}")


def encode_arrays(arrays) -> str:
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return base64.b64encode(blob).decode("ascii")


def decode_array(data: str, count: int) -> Array:
    """The `count` finite float64 values of a checkpoint's base64 `data`."""
    if not isinstance(data, str):
        raise ValueError(f"checkpoint.data must be a base64 string, got {type(data).__name__}")
    try:
        values = np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8").astype(np.float64)
    except ValueError as exc:  # not base64, or bytes that are not whole float64 values
        raise ValueError(f"checkpoint.data: {exc}") from exc
    if values.size != count:
        raise ValueError(f"checkpoint.data holds {values.size} values, expected {count}")
    if not np.all(np.isfinite(values)):
        raise ValueError("checkpoint.data: non-finite parameter values")
    return values


def write(path, payload: dict) -> None:
    """Write `payload` as the bytes of ``json.dumps(payload, indent=1) + "\n"``,
    creating parent directories. Checkpoints, datasets' meta.json and the
    report files all go through here.

    The text comes from `_encode`, which spells every value as `json` does
    and, like ``json.dump(..., allow_nan=False)``, raises TypeError for a
    value `json` cannot write and ValueError for a NaN or infinite float.
    Its pieces go to one `writelines` call as they are made, so the whole
    text is never held at once: a report's pieces would add their size to
    the peak memory, and joining them would also copy a checkpoint's base64
    blob. They go to a temporary file that replaces `path` only once the
    text is complete, so a rejected payload leaves `path` as it was.
    """
    with _replacing(path, newline=None) as fh:
        fh.writelines(_encode(payload, 0))
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a CSV file of the row `header` and then `rows`, whose cells are
    strings or ints, creating parent directories. The datasets' CSV files
    and the report tables all go through here. Like `write`, it replaces
    `path` only once every row is written."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def _replacing(path, newline: str | None) -> Iterator[TextIO]:
    """A text file for the `with` block to write, which replaces the file at
    `path` only when the block completes. It is written under a temporary
    name in the same directory (parents created), renamed onto `path` on
    success and removed on any error, so a half-written file never replaces
    a good one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _scalar(value) -> str | None:
    """The JSON text of a str, None, bool, int or finite float, spelled as
    `json` spells it; None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return None


def _encode(value, level: int) -> Iterator[str]:
    """The pieces of `value`'s ``json.dumps(indent=1)`` text, nested `level`
    deep."""
    text = _scalar(value)
    if text is not None:
        yield text
        return
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = "\n" + " " * (level + 1)
    separator = "," + inner
    if isinstance(value, dict):
        yield "{" + inner
        for i, (key, item) in enumerate(value.items()):
            name = _scalar(key)
            if name is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            if i:
                yield separator
            # json quotes the text of a key that is not a string.
            yield (name if isinstance(key, str) else f'"{name}"') + ": "
            yield from _encode(item, level + 1)
        yield "\n" + " " * level + "}"
        return
    yield "[" + inner
    text = None
    if isinstance(value[0], float):
        try:
            text = separator.join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            pass
    # repr spells nan and ±inf with an n; the item-by-item path rejects them.
    if text is not None and "n" not in text:
        yield text
    else:
        for i, item in enumerate(value):
            if i:
                yield separator
            yield from _encode(item, level + 1)
    yield "\n" + " " * level + "]"


def read_object(path, what: str) -> dict:
    """The JSON object in the file at `path`. Malformed JSON (or text that is
    not UTF-8), or JSON that is not an object, raises ValueError naming the
    file as `what` and `path`."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return payload


def read(path, expected_kind: str | None = None) -> dict:
    """The checkpoint at `path`, checked for its schema tag and, when
    `expected_kind` is given, its kind; each model's `from_payload` reads
    and checks its keys."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    payload = read_object(path, "checkpoint")
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"{path}: checkpoint.schema: expected {SCHEMA!r}, got {payload.get('schema')!r}")
    if expected_kind is not None and payload.get("kind") != expected_kind:
        raise ValueError(f"{path}: checkpoint.kind: expected {expected_kind!r}, got {payload.get('kind')!r}")
    return payload


def load(path, build, expected_kind: str | None):
    """``build(payload)`` of the checkpoint at `path`, which `read` reads and
    checks. A ValueError from `build`, such as a missing key, a value of the
    wrong type or a layer or data mismatch, is raised again with the file's
    path in front, as `read` words its own."""
    payload = read(path, expected_kind)
    try:
        return build(payload)
    except ValueError as exc:
        raise ValueError(f"{Path(path)}: {exc}") from exc


def mlp_payload(net: Mlp, kind: str = "mlp", extra: dict | None = None) -> dict:
    payload = {
        "schema": SCHEMA,
        "kind": kind,
        "layers": net.layer_dims(),
        "in_dim": net.in_dim,
        "time_embed": net.time_embed,
        "data": encode_arrays([net.flat]),
    }
    if extra:
        payload.update(extra)
    return payload


def mlp_from_payload(payload: dict, dtype=np.float64) -> Mlp:
    """The network in a checkpoint `payload`, built with its parameters in
    `dtype`, the precision its model runs in. The layers are checked, and the
    data blob against the parameter count they give, before the network is
    built, so a layout of huge layers fails on the blob's size rather than
    allocating their parameters. A value beyond `dtype`'s range is an error
    naming it, not an infinity."""
    layers = entry(payload, "layers", tuple[Layer, ...])
    if not layers:
        raise ValueError("checkpoint has no layers")
    time_embed = entry(payload, "time_embed", int | None, None)
    if time_embed is not None and (time_embed <= 0 or time_embed % 2 != 0):
        raise ValueError(f"checkpoint.time_embed must be positive and even, got {time_embed}")
    in_dim = entry(payload, "in_dim", int, layers[0]["in"])
    if in_dim < 1:
        raise ValueError(f"checkpoint.in_dim must be >= 1, got {in_dim}")
    expected_first = in_dim + (time_embed or 0)
    if layers[0]["in"] != expected_first:
        raise ValueError(
            f"checkpoint.layers[0].in: first layer expects {layers[0]['in']} inputs, "
            f"but in_dim={in_dim} and time_embed={time_embed}"
        )
    for i, (prev, cur) in enumerate(zip(layers, layers[1:]), start=1):
        if prev["out"] != cur["in"]:
            raise ValueError(f"checkpoint.layers[{i}].in: layer dimensions do not compose: {prev} -> {cur}")
    for i, layer in enumerate(layers):
        if layer["out"] < 1:
            raise ValueError(f"checkpoint.layers[{i}].out must be >= 1, got {layer['out']}")
    acts, layout = [layer["act"] for layer in layers], ["silu"] * (len(layers) - 1) + ["linear"]
    if acts != layout:
        raise ValueError(f"checkpoint.layers: layer activations must be {layout}, got {acts}")
    flat = decode_array(entry(payload, "data"), sum(layer["in"] * layer["out"] + layer["out"] for layer in layers))
    hidden = [layer["out"] for layer in layers[:-1]]
    net = Mlp(in_dim, hidden, layers[-1]["out"], time_embed=time_embed, seed=None, dtype=dtype)
    with np.errstate(over="ignore"):  # checked below, naming the value
        net.flat[...] = flat
    finite = np.isfinite(net.flat)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"checkpoint.data: parameter {i} is {float(flat[i])!r}, beyond the "
                         f"{net.flat.dtype} range the {payload.get('kind')} runs in")
    return net
