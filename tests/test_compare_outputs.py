import importlib.util
import json
from pathlib import Path

import numpy as np

from arpro import ckpt

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _json(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def test_sizes_json_numbers_and_checkpoint_blob():
    a = {"m": [1.0, 2.0, "x"], "flag": True, "data": ckpt.encode_arrays([np.array([4.0, -8.0])])}
    b = {"m": [1.0, 2.5, "y"], "flag": False, "data": ckpt.encode_arrays([np.array([4.0, -8.0 * (1 + 1e-9)])])}
    line = compare_outputs.sizes("report.json", _json(a), _json(b))
    assert line == "largest numeric difference 0.5 absolute, 0.2 relative; 2 of 4 finite values differ"
    b["m"][1] = 2.0
    line = compare_outputs.sizes("model.json", _json(a), _json(b))
    assert line.startswith("largest numeric difference 8e-09 absolute, 1e-09 relative; 1 of 4")
    # A float64 blob against a float32 blob of the same values, as a
    # checkpoint written before and after its "dtype" key: every value is compared.
    values = np.array([4.0, -8.0, 0.1, 1e-45], dtype=np.float32)
    a = {"kind": "denoiser", "data": ckpt.encode_arrays([values])}
    b = {"kind": "denoiser", "dtype": "<f4", "data": ckpt.encode_arrays([values], "<f4")}
    line = compare_outputs.sizes("denoiser.json", _json(a), _json(b))
    assert line.endswith("; 0 of 4 finite values differ")


def test_sizes_csv_cells_and_other_files():
    a = b"name,value\nrow,1.0\nnan,nan\n"
    b = b"name,value\nrow,1.25\nnan,nan\n"
    assert compare_outputs.sizes("aggregates.csv", a, b) == (
        "largest numeric difference 0.25 absolute, 0.2 relative; 1 of 1 finite values differ")
    assert compare_outputs.sizes("notes.txt", a, b) is None
