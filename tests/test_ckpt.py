import base64
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpro import ckpt
from arpro.detector import GaussDetector, ReconDetector, load_detector
from arpro.diffusion import Denoiser, make_schedule
from arpro.tensor import Mlp

EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1.0,
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.text(alphabet="é€😀\x00\x1f\x7f\"\\/\n\t"),
)
float_lists = st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), max_size=12)
values = st.recursive(
    st.one_of(scalars, float_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=40,
)


def _written(tmp_path, payload) -> bytes:
    path = tmp_path / "sub" / "payload.json"
    ckpt.write(path, payload)
    return path.read_bytes()


def _dumped(payload) -> bytes:
    return (json.dumps(payload, indent=1, allow_nan=False) + "\n").encode("utf-8")


class TestWrite:
    """ckpt.write produces exactly json.dumps(payload, indent=1, allow_nan=False)
    + "\\n", and raises ValueError where that does, for a NaN or infinite float."""

    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_matches_json_dumps(self, tmp_path_factory, payload):
        tmp_path = tmp_path_factory.mktemp("write")
        try:
            want = _dumped(payload)
        except ValueError:
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                _written(tmp_path, payload)
            return
        assert _written(tmp_path, payload) == want

    @pytest.mark.parametrize("payload", [
        {}, [], (), "", {"a": {}, "b": [], "c": ()}, [[], [[]], {}],
        {"x_fix": [0.5, -0.0, 1e16], "mixed": [1.5, 2, True, None]},
        {"n": 3, "big": 2**100, "flag": False, "none": None, "np": np.float64(0.1), "s": "é\x01"},
        {1: "int key", 2.5: "float key", False: "bool key", None: "none key"},
    ])
    def test_edge_payloads(self, tmp_path, payload):
        assert _written(tmp_path, payload) == _dumped(payload)

    @pytest.mark.parametrize("payload", [
        {"nan": [1.0, math.nan]},
        {"inf": [math.inf, 2.0]},
        [-math.inf],
        {"a": np.float64(math.nan)},
        {math.nan: "nan key"},
        {math.inf: "inf key"},
    ])
    def test_rejects_non_finite_floats(self, tmp_path, payload):
        with pytest.raises(ValueError):
            json.dumps(payload, indent=1, allow_nan=False)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            ckpt.write(tmp_path / "bad.json", payload)

    @pytest.mark.parametrize("payload", [
        {"a": {1, 2}},
        [np.int64(3)],
        {"a": [1.0, np.float32(2.0)]},
        [np.bool_(True)],
        {"a": np.zeros(2)},
        {(1, 2): "tuple key"},
        [b"bytes"],
    ])
    def test_rejects_what_json_rejects(self, tmp_path, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=1)
        with pytest.raises(TypeError):
            ckpt.write(tmp_path / "bad.json", payload)


class TestAtomicWrite:
    """A payload or row the writer rejects leaves the previous file as it was
    and no temporary file beside it."""

    @pytest.mark.parametrize("payload,error", [
        ({"a": [1.0], "b": math.nan}, ValueError),
        ({"a": [1.0], "b": {1, 2}}, TypeError),
    ])
    def test_rejected_payload_keeps_the_previous_file(self, tmp_path, payload, error):
        path = tmp_path / "report.json"
        ckpt.write(path, {"a": [1.0, 2.0], "b": "good"})
        before = path.read_bytes()
        with pytest.raises(error):
            ckpt.write(path, payload)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_csv_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "table.csv"
        ckpt.write_csv(path, ["a", "b"], [["1", "2"]])
        before = path.read_bytes()

        def rows():
            yield ["3", "4"]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            ckpt.write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "new" / "report.json"
        ckpt.write(path, {"v": 1})
        ckpt.write(path, {"v": 2})
        assert path.read_bytes() == _dumped({"v": 2})
        assert [p.name for p in path.parent.iterdir()] == ["report.json"]


class TestCheckpointNumbers:
    """Count keys load only from JSON ints and the schedule's and gauss
    detector's floats only from finite JSON numbers; any other value exits
    with an error naming the file and the key, where a cast would have
    truncated it silently."""

    @staticmethod
    def _models():
        return {
            "denoiser": Denoiser(Mlp(8, [6], 4, seed=0), make_schedule(10, 1e-3, 0.05)),
            "gauss": GaussDetector(np.zeros(4), np.ones(4), sigma_floor=0.01),
            "recon": ReconDetector(Mlp(4, [3], 4, seed=0)),
        }

    @staticmethod
    def _load(kind, path):
        return Denoiser.load(path) if kind == "denoiser" else load_detector(path)

    @pytest.mark.parametrize("kind,key,value,message", [
        ("denoiser", "schedule.T", 10.7, "must be an int, got 10.7"),
        ("denoiser", "schedule.T", "10", "must be an int, got '10'"),
        ("denoiser", "schedule.T", True, "must be an int, got True"),
        ("denoiser", "schedule.T", 10.0, "must be an int, got 10.0"),
        ("denoiser", "schedule.b_start", "0.001", "must be a finite number, got '0.001'"),
        ("denoiser", "schedule.b_end", True, "must be a finite number, got True"),
        ("denoiser", "schedule.b_end", math.inf, "must be a finite number, got inf"),
        ("denoiser", "time_embed", True, "must be an int, got True"),
        ("denoiser", "in_dim", 4.0, "must be an int, got 4.0"),
        ("gauss", "n", 4.9, "must be an int, got 4.9"),
        ("gauss", "n", False, "must be an int, got False"),
        ("gauss", "sigma_floor", "0.01", "must be a finite number, got '0.01'"),
        ("gauss", "sigma_floor", math.nan, "must be a finite number, got nan"),
        ("recon", "in_dim", "4", "must be an int, got '4'"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, kind, key, value, message):
        path = tmp_path / f"{kind}.json"
        self._models()[kind].save(path)
        payload = json.loads(path.read_text())
        *parents, last = key.split(".")
        target = payload
        for name in parents:
            target = target[name]
        target[last] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            self._load(kind, path)
        assert str(info.value) == f"{path}: checkpoint.{key} {message}"

    @pytest.mark.parametrize("sigma,sigma_floor,key,culprit", [
        (1.0, 1e200, "sigma_floor", "sigma_floor 1e+200"),
        (1e-200, 1e-200, "sigma_floor", "sigma_floor 1e-200"),
        (1e200, 0.01, "data", "sigma[0] 1e+200"),
    ])
    def test_gauss_constants_that_overflow_name_the_key(self, tmp_path, sigma, sigma_floor, key, culprit):
        path = tmp_path / "gauss.json"
        self._models()["gauss"].save(path)
        payload = json.loads(path.read_text())
        payload["sigma_floor"] = sigma_floor
        payload["data"] = ckpt.encode_arrays([np.zeros(4), np.array([sigma, 1.0, 1.0, 1.0])])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load_detector(path)
        assert str(info.value) == (f"{path}: checkpoint.{key}: {culprit} makes 1/(2 sigma^2) "
                                   f"or log(2 pi sigma^2) non-finite")

    @pytest.mark.parametrize("value", [1e150, -3.5e38, 3.5e38, -1.7976931348623157e308])
    def test_denoiser_value_beyond_float32_names_file_and_data(self, tmp_path, value):
        path = tmp_path / "denoiser.json"
        den = self._models()["denoiser"]
        den.save(path)
        payload = json.loads(path.read_text())
        flat = den.net.flat.astype(np.float64)
        flat[7] = value
        payload["dtype"], payload["data"] = "<f8", ckpt.encode_arrays([flat])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            Denoiser.load(path)
        assert str(info.value) == (f"{path}: checkpoint.data: parameter 7 is {value!r}, "
                                   f"beyond the float32 range the denoiser runs in")

    @pytest.mark.parametrize("dtype", ckpt.BLOB_DTYPES)
    def test_decoded_values_view_the_decoded_bytes(self, dtype):
        f = np.finfo(dtype)  # each dtype's smallest subnormal and largest magnitude
        values = np.array([1.5, -0.0, f.smallest_subnormal, -f.max], dtype=dtype)
        decoded = ckpt.decode_array(ckpt.encode_arrays([values], dtype), 4, dtype)
        assert decoded.dtype == np.dtype(dtype) and decoded.tobytes() == values.tobytes()
        if sys.byteorder == "little":  # no second copy: the array is the bytes base64 decoded to
            assert not decoded.flags.owndata and not decoded.flags.writeable

    @pytest.mark.parametrize("kind,dtype", [("denoiser", "<f4"), ("denoiser", "<f8"), ("gauss", None),
                                            ("recon", "<f8"), ("recon", "<f4")])
    def test_written_files_load_unchanged(self, tmp_path, kind, dtype):
        """A written file loads and saves again to the same bytes, and so
        does one whose blob is rewritten in `dtype`: either dtype holds the
        values exactly."""
        model = self._models()[kind]
        if kind == "recon" and dtype == "<f4":  # float64 values that "<f4" holds exactly
            model.net.flat[...] = model.net.flat.astype(np.float32)
        path, again = tmp_path / "a.json", tmp_path / "b.json"
        model.save(path)
        written = path.read_bytes()
        if dtype is not None:
            payload = json.loads(written)
            payload["dtype"], payload["data"] = dtype, ckpt.encode_arrays([model.net.flat], dtype)
            path.write_text(json.dumps(payload))
        self._load(kind, path).save(again)
        assert again.read_bytes() == written

    def test_denoiser_blob_holds_four_bytes_a_parameter(self, tmp_path):
        path = tmp_path / "denoiser.json"
        den = self._models()["denoiser"]
        den.save(path)
        payload = json.loads(path.read_text())
        assert payload["dtype"] == "<f4"
        assert len(base64.b64decode(payload["data"])) == 4 * den.net.flat.size

    @pytest.mark.parametrize("kind", ["denoiser", "recon"])
    def test_checkpoint_without_dtype_holds_float64(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        model = self._models()[kind]
        model.save(path)
        payload = json.loads(path.read_text())
        del payload["dtype"]
        payload["data"] = ckpt.encode_arrays([model.net.flat], "<f8")
        path.write_text(json.dumps(payload))
        loaded = self._load(kind, path)
        assert loaded.net.flat.dtype == model.net.flat.dtype
        assert loaded.net.flat.tobytes() == model.net.flat.tobytes()

    @pytest.mark.parametrize("kind", ["denoiser", "recon"])
    @pytest.mark.parametrize("dtype", ["<f2", ">f4"])
    def test_other_dtype_names_file_and_key(self, tmp_path, kind, dtype):
        path = tmp_path / f"{kind}.json"
        self._models()[kind].save(path)
        payload = json.loads(path.read_text())
        payload["dtype"] = dtype
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            self._load(kind, path)
        assert str(info.value) == f"{path}: checkpoint.dtype must be one of ['<f4', '<f8'], got {dtype!r}"


# Each leaf of a written checkpoint is replaced by each of these in turn.
MUTATIONS = [0, -1, 10**12, 1e200, 2.5, "x", None, True, [], {}]

FUZZ_CONFIG = {
    "data": {"kind": "ts", "n_features": 2, "window_len": 8, "n_train": 20, "n_test": 2, "start_jitter": 8.0,
             "anomalies": [{"kind": "spike", "magnitude": 1.5, "extent": 0.15}]},
    "detector": {"hidden": [3], "steps": 2},
    "diffusion": {"T": 3, "hidden": [4], "time_embed": 4, "steps": 2},
}


def _leaves(value, path=()):
    """(key path, dotted name) of every leaf of a JSON document; the base64
    `data` blob is one leaf."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


@pytest.fixture(scope="module")
def written_checkpoints(tmp_path_factory):
    """A gauss detector, a recon detector and a denoiser, written by the CLI."""
    from arpro.cli import main

    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(FUZZ_CONFIG))
    common = ["--seed", "1", "--config", str(config)]
    data = str(root / "data")
    assert main(["gen-data", "--out", data, *common]) == 0
    for kind in ("gauss", "recon"):
        assert main(["train-detector", "--kind", kind, "--input", data, "--out", str(root / kind), *common]) == 0
    assert main(["train-diffusion", "--input", data, "--out", str(root / "denoiser"), *common]) == 0
    return {"gauss": root / "gauss" / "detector.json", "recon": root / "recon" / "detector.json",
            "denoiser": root / "denoiser" / "denoiser.json"}


class TestOneLeafMutations:
    """Every checkpoint with one leaf replaced either loads, to a detector
    whose alpha of a finite row is finite, or fails with a ValueError that
    names the file and a key of the checkpoint; no other exception, a
    MemoryError least of all, escapes the loaders the CLI calls."""

    @pytest.mark.parametrize("kind", ["gauss", "recon", "denoiser"])
    def test_each_leaf_each_value(self, tmp_path, written_checkpoints, kind):
        original = json.loads(written_checkpoints[kind].read_text())
        load = Denoiser.load if kind == "denoiser" else load_detector
        path = tmp_path / "mutated.json"
        for keys, name in _leaves(original):
            for value in MUTATIONS:
                payload = json.loads(json.dumps(original))
                target = payload
                for key in keys[:-1]:
                    target = target[key]
                target[keys[-1]] = value
                path.write_text(json.dumps(payload))
                case = f"checkpoint{name} = {value!r}"
                try:
                    model = load(path)
                except ValueError as exc:
                    message = str(exc)
                    assert message.startswith(f"{path}: "), (case, message)
                    named = re.search(r"checkpoint\.(\w+)", message)
                    assert named and named.group(1) in original, (case, message)
                    continue
                if kind != "denoiser":
                    assert np.isfinite(model.alpha(np.zeros(model.n))).all(), case
