import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arpro import data
from arpro.data import (
    AnomalySpec,
    Dataset,
    fit_scaler,
    gen_synthetic_image,
    gen_synthetic_ts,
    load_csv_dataset,
    save_dataset,
    window_stream,
    _read_csv,
    _read_plain_csv,
)
from arpro.detector import fit_gauss


SPIKE = AnomalySpec(kind="spike", magnitude=1.0, extent=0.05)


class TestAnomalySpec:
    def test_zero_magnitude_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            AnomalySpec(kind="spike", magnitude=0.0)

    def test_extent_range(self):
        with pytest.raises(ValueError, match="extent"):
            AnomalySpec(kind="spike", extent=0.0)
        with pytest.raises(ValueError, match="extent"):
            AnomalySpec(kind="spike", extent=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown anomaly kind"):
            AnomalySpec(kind="wobble")


class TestTimeseriesGenerator:
    def test_mask_density_matches_extent(self):
        ds = gen_synthetic_ts(4, 32, 20, 40, SPIKE, seed=3)
        density = ds.labels.mean(axis=1)
        assert np.all(density >= 0.03) and np.all(density <= 0.07)

    def test_deterministic(self):
        a = gen_synthetic_ts(3, 16, 10, 5, SPIKE, seed=9)
        b = gen_synthetic_ts(3, 16, 10, 5, SPIKE, seed=9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = gen_synthetic_ts(3, 16, 10, 5, SPIKE, seed=9)
        b = gen_synthetic_ts(3, 16, 10, 5, SPIKE, seed=10)
        assert not np.array_equal(a.train, b.train)

    @pytest.mark.parametrize("kind", ["spike", "level_shift", "noise_burst", "stuck_sensor"])
    def test_anomaly_differs_exactly_on_mask(self, kind):
        from arpro.data import inject_timeseries_anomaly
        from arpro.tensor import stream

        spec = AnomalySpec(kind=kind, magnitude=0.8, extent=0.08, count=2)
        g = stream(21, f"inject-{kind}")
        for _ in range(25):
            clean = g.standard_normal(4 * 24)
            x, mask = inject_timeseries_anomaly(clean, spec, 4, 24, g)
            assert np.array_equal(x != clean, mask == 1.0)
            assert mask.sum() > 0

    def test_image_defect_differs_exactly_on_mask(self):
        from arpro.data import inject_image_defect
        from arpro.tensor import stream

        g = stream(22, "inject-img")
        for kind in ("square_defect", "stripe_defect"):
            spec = AnomalySpec(kind=kind, magnitude=1.5, extent=0.1)
            for _ in range(10):
                clean = g.standard_normal(16 * 16)
                x, mask = inject_image_defect(clean, spec, 16, g)
                assert np.array_equal(x != clean, mask == 1.0)

    def test_anomalies_score_above_normals(self):
        # Separation sanity for magnitudes >= 3 sigma of the noise.
        spec = AnomalySpec(kind="level_shift", magnitude=0.5, extent=0.1)
        ds = gen_synthetic_ts(4, 32, 100, 30, spec, seed=5, noise_std=0.1, start_jitter=0.0)
        det = fit_gauss(ds.train)
        train_scores = [det.score(r).total for r in ds.train]
        test_scores = [det.score(r).total for r in ds.test]
        assert np.mean(test_scores) > np.mean(train_scores)

    def test_normal_test_rows_appended(self):
        ds = gen_synthetic_ts(2, 16, 10, 4, SPIKE, seed=6, n_test_normal=3)
        assert ds.test.shape[0] == 7
        assert np.all(ds.labels[4:] == 0.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen_synthetic_ts(0, 16, 10, 5, SPIKE, seed=1)
        with pytest.raises(ValueError):
            gen_synthetic_ts(2, 16, 10, 5, AnomalySpec(kind="square_defect"), seed=1)


class TestImageGenerator:
    def test_square_mask_area(self):
        spec = AnomalySpec(kind="square_defect", magnitude=2.0, extent=0.1)
        ds = gen_synthetic_image(16, 10, 20, spec, seed=4)
        edge = round(16 * np.sqrt(0.1))
        assert np.all(ds.labels.sum(axis=1) == edge * edge)

    def test_defect_scores_localized(self):
        spec = AnomalySpec(kind="square_defect", magnitude=3.0, extent=0.1)
        ds = gen_synthetic_image(16, 120, 20, spec, seed=7)
        det = fit_gauss(ds.train)
        inside, outside = [], []
        for row, mask in zip(ds.test, ds.labels):
            alpha = det.alpha(row)
            inside.append(alpha[mask == 1.0].mean())
            outside.append(alpha[mask == 0.0].mean())
        assert np.mean(inside) > np.mean(outside)

    def test_deterministic(self):
        spec = AnomalySpec(kind="stripe_defect", magnitude=2.0, extent=0.1)
        a = gen_synthetic_image(12, 8, 6, spec, seed=13)
        b = gen_synthetic_image(12, 8, 6, spec, seed=13)
        assert np.array_equal(a.test, b.test)

    def test_side_limit(self):
        with pytest.raises(ValueError, match="side"):
            gen_synthetic_image(33, 10, 5, AnomalySpec(kind="square_defect"), seed=1)

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="image kind"):
            gen_synthetic_image(16, 10, 5, SPIKE, seed=1)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        ds = gen_synthetic_ts(3, 16, 12, 6, SPIKE, seed=8)
        save_dataset(ds, tmp_path / "d")
        loaded = load_csv_dataset(tmp_path / "d")
        assert np.array_equal(loaded.train, ds.train)
        assert np.array_equal(loaded.test, ds.test)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.feature_names == ds.feature_names
        assert loaded.modality == ds.modality
        assert loaded.window == ds.window

    def test_missing_file_named(self, tmp_path):
        ds = gen_synthetic_ts(2, 8, 5, 3, SPIKE, seed=2)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "train.csv").unlink()
        with pytest.raises(FileNotFoundError, match="train.csv"):
            load_csv_dataset(tmp_path / "d")

    def test_bad_label_value_addressed(self, tmp_path):
        ds = gen_synthetic_ts(2, 8, 5, 3, SPIKE, seed=2)
        save_dataset(ds, tmp_path / "d")
        labels = (tmp_path / "d" / "test_labels.csv").read_text().splitlines()
        cells = labels[2].split(",")
        cells[1] = "2"
        labels[2] = ",".join(cells)
        (tmp_path / "d" / "test_labels.csv").write_text("\n".join(labels) + "\n")
        with pytest.raises(ValueError, match=r"row 3 column 2.*not in \{0, 1\}"):
            load_csv_dataset(tmp_path / "d")

    def test_non_numeric_cell_addressed(self, tmp_path):
        ds = gen_synthetic_ts(2, 8, 5, 3, SPIKE, seed=2)
        save_dataset(ds, tmp_path / "d")
        rows = (tmp_path / "d" / "train.csv").read_text().splitlines()
        cells = rows[1].split(",")
        cells[0] = "oops"
        rows[1] = ",".join(cells)
        (tmp_path / "d" / "train.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="row 2 column 1"):
            load_csv_dataset(tmp_path / "d")

    def test_ragged_row_rejected(self, tmp_path):
        ds = gen_synthetic_ts(2, 8, 5, 3, SPIKE, seed=2)
        save_dataset(ds, tmp_path / "d")
        rows = (tmp_path / "d" / "train.csv").read_text().splitlines()
        rows[1] = rows[1] + ",0.0"
        (tmp_path / "d" / "train.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv_dataset(tmp_path / "d")

    def test_write_is_deterministic(self, tmp_path):
        ds = gen_synthetic_ts(2, 8, 5, 3, SPIKE, seed=2)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("train.csv", "test.csv", "test_labels.csv", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestScaler:
    def test_two_point(self):
        scaler = fit_scaler(np.array([[0.0], [2.0]]))
        assert np.allclose(scaler.apply(np.array([2.0])), [1.0])

    def test_constant_feature_floor(self):
        scaler = fit_scaler(np.full((6, 1), 4.0))
        assert scaler.scale[0] == pytest.approx(1e-8)
        assert np.allclose(scaler.apply(np.array([4.0])), [0.0])

    def test_invert_apply_identity(self):
        rng = np.random.default_rng(0)
        train = rng.normal(3.0, 2.0, size=(40, 5))
        scaler = fit_scaler(train)
        x = rng.normal(size=5)
        assert np.allclose(scaler.invert(scaler.apply(x)), x, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((0, 2)))


class TestWindowing:
    def test_non_overlapping_default(self):
        frame = np.arange(12, dtype=float).reshape(6, 2)
        out = window_stream(frame, 3)
        assert out.shape == (2, 6)
        # Feature-major flattening: feature 0's three steps first.
        assert np.array_equal(out[0], [0.0, 2.0, 4.0, 1.0, 3.0, 5.0])

    def test_stride_overlap(self):
        frame = np.arange(10, dtype=float).reshape(10, 1)
        out = window_stream(frame, 4, stride=2)
        assert out.shape == (4, 4)
        assert np.array_equal(out[1], [2.0, 3.0, 4.0, 5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            window_stream(np.zeros((4, 2)), 5)
        with pytest.raises(ValueError):
            window_stream(np.zeros((4, 2)), 2, stride=0)


class TestDatasetInvariants:
    def test_label_shape_must_mirror_test(self):
        with pytest.raises(ValueError):
            Dataset(
                train=np.zeros((2, 3)),
                test=np.zeros((2, 3)),
                labels=np.zeros((1, 3)),
                feature_names=("a", "b", "c"),
                modality="timeseries",
            )

    def test_labels_binary(self):
        with pytest.raises(ValueError, match="binary"):
            Dataset(
                train=np.zeros((2, 2)),
                test=np.zeros((1, 2)),
                labels=np.array([[0.5, 0.0]]),
                feature_names=("a", "b"),
                modality="timeseries",
            )


def _row_by_row_read(path):
    """The reference parse: `csv.reader` and `float()` cell by cell, worded
    as a dataset CSV's errors are."""
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        rows = []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path} row {r}: expected {len(header)} cells, found {len(row)}")
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{path} row {r} column {c}: non-numeric cell {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path} row {r} column {c}: non-finite value {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _outcome(read, path):
    """The header, shape and bytes `read(path)` returns, or the message it raises."""
    try:
        header, values = read(path)
    except ValueError as exc:
        return str(exc)
    return header, values.shape, values.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
FORMATS = {"repr": repr, "17g": "{:.17g}".format, "3E": "{:.3E}".format}


class TestCsvParse:
    """A file of plain numbers is parsed in one call with the bits of the
    cell-by-cell parse; every other file keeps the cell-by-cell outcome."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(1, 4).flatmap(
            lambda width: st.lists(st.lists(FINITE | st.sampled_from(EDGE_VALUES), min_size=width, max_size=width),
                                   min_size=1, max_size=6)),
        fmt=st.sampled_from(sorted(FORMATS)),
    )
    @example(values=[EDGE_VALUES], fmt="repr")
    def test_plain_numbers_parse_to_the_bits_of_float(self, values, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            lines = [",".join(f"c{c}" for c in range(len(values[0])))]
            lines += [",".join(FORMATS[fmt](v) for v in row) for row in values]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = _outcome(_row_by_row_read, path)
            assert _outcome(_read_csv, path) == expected
            if not isinstance(expected, str):  # {:.3E} may round the largest values up to inf
                assert _outcome(lambda p: _read_plain_csv(p, None), path) == expected

    def test_saved_dataset_takes_the_one_call_parse(self, tmp_path, monkeypatch):
        ds = gen_synthetic_ts(2, 16, 5, 3, SPIKE, seed=4)
        save_dataset(ds, tmp_path)

        def fail(path, n_cols):
            raise AssertionError(f"{path} went to the row-by-row parser")

        monkeypatch.setattr(data, "_read_csv_rows", fail)
        back = load_csv_dataset(tmp_path)
        assert back.train.tobytes() == ds.train.tobytes() and back.labels.tobytes() == ds.labels.tobytes()

    @pytest.mark.parametrize("text, error", [
        ("", ": empty file"),
        ("a,b\n", ": no data rows"),
        ("a,b", ": no data rows"),
        ("a,b\n1,2\n\n3,4\n", " row 3: expected 2 cells, found 0"),
        ("a,b\n1,2\n\n", " row 3: expected 2 cells, found 0"),
        ("a,b\n1,2\n3,4,5\n", " row 3: expected 2 cells, found 3"),
        ("a,b\n1,2\n3\n", " row 3: expected 2 cells, found 1"),
        ("a,b\n1,2\n3,4\r\n5,6\r\r\n", " row 5: expected 2 cells, found 0"),
        ("a,b\noops,2\n", " row 2 column 1: non-numeric cell 'oops'"),
        ("a,b\n1,nan\n", " row 2 column 2: non-finite value 'nan'"),
        ("a,b\n1,inf\n", " row 2 column 2: non-finite value 'inf'"),
        ("a,b\n1,1e400\n", " row 2 column 2: non-finite value '1e400'"),
        ('a,b\n1,""\n', " row 2 column 2: non-numeric cell ''"),
        ("a,b\n1,\n", " row 2 column 2: non-numeric cell ''"),
        ("a,b\n0x1p3,1\n", " row 2 column 1: non-numeric cell '0x1p3'"),
        ('a,b\n"1,5",2\n', " row 2 column 1: non-numeric cell '1,5'"),
        ("a,b\n1\x1c,2\n", " row 2 column 1: non-numeric cell '1\\x1c'"),
        ("a,b\n1e,2\n", " row 2 column 1: non-numeric cell '1e'"),
    ])
    def test_malformed_file_raises_the_row_parsers_message(self, tmp_path, text, error):
        path = tmp_path / "x.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(_row_by_row_read, path) == f"{path}{error}"
        assert _outcome(_read_csv, path) == _outcome(_row_by_row_read, path)

    @pytest.mark.parametrize("text", [
        "a,b\n1_0,2\n",            # underscores: float() reads 10.0, numpy does not
        'a,b\n"1.5",2\n',          # quoted cell
        "a,b\n 1.5 ,\t2\n",        # padded cells
        'a,b\n"1"5,2\n',           # csv joins a quoted part and its tail
        "a,b\r\n1,2\r\n3,4",       # CRLF, no final line end
        "a,b\r1,2\r3,4\r",         # CR line ends
        '"a,x",b\n1,2\n',          # quoted header cell
    ])
    def test_other_files_keep_the_row_parsers_values(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _outcome(_row_by_row_read, path)
        assert not isinstance(expected, str)
        assert _outcome(_read_csv, path) == expected

    def test_width_checked_against_expected_columns(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"x.csv: expected 3 columns, found 2$"):
            _read_csv(path, n_cols=3)
