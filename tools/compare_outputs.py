"""Compare the output files of two arpro source trees run on the same inputs.

Usage:
    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 0 3] [--work DIR]

For each source tree and seed, the stock time-series and image benchmark
configs (`timeseries_benchmark_config`, `image_benchmark_config`, as each
tree defines them) run through `gen-data`, `train-detector`,
`train-diffusion`, `evaluate`, `repair --guided` and
`ablate --param lambda4 --values 0.1,1,10`, all in one `python3` with that
tree on PYTHONPATH, which calls `arpro.cli.main` once per stage. The
ablation sweeps `lambda4` because it moves the image repairs (`lambda2`
moves no repair, so a sweep of it would repeat one repair three times).
Every file the runs write is then compared between the two trees, except
the measured timing: `timings.json` is skipped and the
`seconds` column of `summary.csv` is dropped. Each differing file is printed
with the JSON paths or CSV cells that differ and the largest absolute and
relative difference among the numbers that sit at the same place in both
versions (a checkpoint's base64 `data` blob counts as its values, in the
dtype its `dtype` key names, ``"<f8"`` when absent), so
a re-baseline shows whether its differences are rounding-sized.

Exit codes: 0 when every compared file is byte-identical, 1 on any
difference, 2 when a command fails (stderr names it after arpro's error).
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = {"ts": "timeseries_benchmark_config", "image": "image_benchmark_config"}
SKIPPED = {"timings.json"}
MAX_LISTED = 8


def in_tree(src: Path, call: str, *args):
    """``module.function(*args)``, named by `call`, run in a new python whose
    `arpro` is the tree `src` and whose path holds tools/; arguments and
    result go as JSON. If it fails, its stderr is passed on and the tool exits 2."""
    code = f"import json, sys, {call.split('.')[0]}; print(json.dumps({call}(*json.loads(sys.argv[1]))))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src.resolve()), str(Path(__file__).parent.resolve())))}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(args)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(2)
    return json.loads(proc.stdout)


def stock_config(kind: str, seed: int) -> dict:
    """The stock config of `kind` at `seed`, from the `arpro` on the path."""
    from arpro import harness
    return getattr(harness, CONFIGS[kind])(seed).to_dict()


def run_stages(directory: Path, stages) -> None:
    """Each stage, `arpro` arguments, through `arpro.cli.main` in `directory`
    with stdout dropped; exit 2 at the first that fails, naming it."""
    from arpro.cli import main
    os.chdir(directory)
    for stage in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(stage)
        if code != 0:
            sys.stderr.write(f"command failed ({code}) in {directory}: arpro {' '.join(stage)}\n")
            raise SystemExit(2)


def run_tree(out: str, kind: str, seed: int) -> None:
    """All six stages of one stock config at one seed, written under `out`,
    with the `arpro` on the path (`in_tree` runs it)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(stock_config(kind, seed), sort_keys=True) + "\n", encoding="utf-8")
    common = ["--config", "config.json", "--seed", str(seed)]
    models = ["--detector", "models/detector.json", "--denoiser", "models/denoiser.json"]
    run_stages(out, [[*stage, *common] for stage in (
        ["gen-data", "--out", "data"],
        ["train-detector", "--input", "data", "--out", "models"],
        ["train-diffusion", "--input", "data", "--out", "models"],
        ["evaluate", "--input", "data", *models, "--out", "evaluate"],
        ["repair", "--guided", "--input", "data", *models, "--out", "repair"],
        ["ablate", "--input", "data", *models, "--param", "lambda4", "--values", "0.1,1,10", "--out", "ablate"],
    )])


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "summary.csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"] if rows else []
    buf = io.StringIO()
    csv.writer(buf).writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue().encode("utf-8")


def _json_paths(a, b, path: str = "") -> list[str]:
    """JSON paths at which two decoded documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(set(a) | set(b), key=str)
                for p in (_json_paths(a.get(key), b.get(key), f"{path}.{key}") if key in a and key in b
                          else [f"{path}.{key} (only one side)"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _json_paths(x, y, f"{path}[{i}]")]
    return [] if a == b and type(a) is type(b) else [path or "."]


def describe(name: str, a: bytes, b: bytes) -> list[str]:
    """Where two versions of one file differ."""
    if name.endswith(".json"):
        return _json_paths(json.loads(a), json.loads(b))
    if name.endswith(".csv"):
        ra, rb = (list(csv.reader(io.StringIO(x.decode("utf-8")))) for x in (a, b))
        if len(ra) != len(rb):
            return [f"{len(ra)} vs {len(rb)} rows"]
        return [f"row {i} ({row_a[0]}) column {ra[0][j] if j < len(ra[0]) else j}: {x!r} vs {y!r}"
                for i, (row_a, row_b) in enumerate(zip(ra, rb))
                for j, (x, y) in enumerate(zip(row_a, row_b)) if x != y] or ["row lengths differ"]
    return ["bytes differ"]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_numbers(a, b):
    """Pairs of numbers at the same place in two decoded JSON documents; a
    string under the key "data" is a checkpoint's base64 blob, whose values
    are read in the dtype under its object's key "dtype" (``"<f8"`` when
    absent), so blobs of two dtypes compare value by value."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() & b.keys():
            if k == "data" and isinstance(a[k], str) and isinstance(b[k], str):
                x, y = (np.frombuffer(base64.b64decode(d[k]), dtype=d.get("dtype", "<f8")) for d in (a, b))
                if x.size == y.size:
                    yield from zip(x.tolist(), y.tolist())
            else:
                yield from _json_numbers(a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _json_numbers(x, y)
    elif _is_number(a) and _is_number(b):
        yield float(a), float(b)


def _csv_numbers(a, b):
    """Pairs of numbers in the same cell of two CSV files' rows."""
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            try:
                yield float(x), float(y)
            except ValueError:
                pass


def sizes(name: str, a: bytes, b: bytes) -> str | None:
    """The largest absolute and relative difference among the finite numbers
    at the same places in two versions of a JSON or CSV file, and how many
    differ; None for another kind of file. The relative difference of x and
    y is |x - y| / max(|x|, |y|)."""
    if name.endswith(".json"):
        pairs = _json_numbers(json.loads(a), json.loads(b))
    elif name.endswith(".csv"):
        pairs = _csv_numbers(*(csv.reader(io.StringIO(x.decode("utf-8"))) for x in (a, b)))
    else:
        return None
    largest_abs = largest_rel = 0.0
    count = differ = 0
    for x, y in pairs:
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        count += 1
        if x != y:
            differ += 1
            largest_abs = max(largest_abs, abs(x - y))
            largest_rel = max(largest_rel, abs(x - y) / max(abs(x), abs(y)))
    return (f"largest numeric difference {largest_abs:.3g} absolute, {largest_rel:.3g} relative; "
            f"{differ} of {count} finite values differ")


def compare(a: Path, b: Path) -> int:
    """Print the files that differ between two output trees; their count."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file() and p.name not in SKIPPED}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file() and p.name not in SKIPPED}
    differ = 0
    for rel in sorted(files_a ^ files_b):
        print(f"DIFFERS {rel}: present in only one tree")
        differ += 1
    for rel in sorted(files_a & files_b):
        x, y = _comparable(a / rel), _comparable(b / rel)
        if x == y:
            continue
        differ += 1
        where = describe(rel.name, x, y)
        print(f"DIFFERS {rel}: {len(where)} place(s)")
        for line in where[:MAX_LISTED]:
            print(f"    {line}")
        if len(where) > MAX_LISTED:
            print(f"    ... {len(where) - MAX_LISTED} more")
        size = sizes(rel.name, x, y)
        if size is not None:
            print(f"    {size}")
    print(f"compared {len(files_a & files_b)} files: {differ} differ")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="source tree holding the reference `arpro` package")
    parser.add_argument("change_src", type=Path, help="source tree holding the changed `arpro` package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--work", type=Path, default=None, help="output directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "arpro" / "__init__.py").is_file():
            parser.error(f"{src} does not hold an arpro package")
    work = args.work or Path(tempfile.mkdtemp(prefix="arpro-compare-"))
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        for kind in CONFIGS:
            for seed in args.seeds:
                print(f"running {side} {kind} seed {seed}", flush=True)
                out = str((work / side / f"{kind}-seed{seed}").resolve())
                in_tree(src, "compare_outputs.run_tree", out, kind, seed)
    return 1 if compare(work / "parent", work / "change") else 0


if __name__ == "__main__":
    sys.exit(main())
