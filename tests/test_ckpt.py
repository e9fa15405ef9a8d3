import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpro import ckpt

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
