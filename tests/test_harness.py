import dataclasses
import json
import math

import numpy as np
import pytest

from arpro.data import AnomalySpec
from arpro.harness import (
    DataConfig,
    DetectorConfig,
    DiffusionConfig,
    ExperimentConfig,
    STOCK_ANOMALIES,
    RepairSettings,
    ablation_sweep,
    image_benchmark_config,
    aggregate_delta,
    prepare_pipeline,
    run_experiment,
    run_single_arm,
    timeseries_benchmark_config,
    write_ablation,
    write_report,
)
from arpro.detector import GaussDetector, binarize
from arpro.diffusion import train_denoiser
from arpro.properties import conformal_threshold


def tiny_config(seed: int = 0, **repair_kwargs) -> ExperimentConfig:
    """A fast miniature experiment for harness-level tests."""
    return ExperimentConfig(
        data=DataConfig(
            kind="ts",
            n_features=2,
            window_len=12,
            n_train=80,
            n_test=8,
            noise_std=0.1,
            start_jitter=12.0,
            anomalies=(AnomalySpec(kind="spike", magnitude=1.5, extent=0.15),),
        ),
        detector=DetectorConfig(kind="gauss"),
        diffusion=DiffusionConfig(T=15, hidden=(24, 24), time_embed=8, steps=250),
        repair=RepairSettings(**repair_kwargs),
        n_instances=4,
        ablation_instances=3,
        seed=seed,
    )


class TestAggregateDelta:
    def test_uniform_halving(self):
        assert aggregate_delta([10.0, 20.0], [5.0, 10.0]) == pytest.approx(50.0)

    def test_identical_arms(self):
        assert aggregate_delta([3.0, -1.0], [3.0, -1.0]) == 0.0

    def test_negative_scores_use_documented_formula(self):
        assert aggregate_delta([-10.0], [-20.0]) == pytest.approx(100.0)

    def test_median_invariant_under_median_pair(self):
        baseline = [10.0, 20.0, 40.0]
        guided = [5.0, 10.0, 20.0]
        before = aggregate_delta(baseline, guided)
        after = aggregate_delta(baseline + [100.0], guided + [50.0])  # pair at the median 50%
        assert before == after

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="paired"):
            aggregate_delta([1.0], [1.0, 2.0])


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(tiny_config(seed=1))


class TestRunExperiment:
    def test_zero_guidance_config_gives_zero_delta(self):
        cfg = tiny_config(seed=2, eta_start=0.0, eta_end=0.0)
        report = run_experiment(cfg)
        for name in ("m_s", "m_d", "m_omega", "m_omega_bar"):
            assert report.delta_percent[name] == 0.0
        for record in report.records:
            assert record.baseline.trajectory_hash == record.guided.trajectory_hash

    def test_paired_record_counts(self, tiny_report):
        assert len(tiny_report.records) == 4
        assert set(tiny_report.medians) == {"baseline", "guided"}

    def test_deterministic_payload(self):
        a = run_experiment(tiny_config(seed=3)).to_dict()
        b = run_experiment(tiny_config(seed=3)).to_dict()
        assert json.dumps(a) == json.dumps(b)

    def test_no_anomalies_found_raises(self):
        cfg = tiny_config(seed=4)
        dataset = cfg.data.generate(cfg.seed)
        quiet = dataclasses.replace(dataset, test=dataset.train[: dataset.test.shape[0]].copy())
        with pytest.raises(ValueError, match="no anomalous instances"):
            run_experiment(cfg, dataset=quiet)

    def test_does_not_mutate_dataset(self):
        cfg = tiny_config(seed=5)
        dataset = cfg.data.generate(cfg.seed)
        train_before = dataset.train.copy()
        test_before = dataset.test.copy()
        run_experiment(cfg, dataset=dataset)
        assert np.array_equal(dataset.train, train_before)
        assert np.array_equal(dataset.test, test_before)

    def test_single_arm_matches_experiment(self):
        cfg = tiny_config(seed=7)
        report = run_experiment(cfg)
        _, singles = run_single_arm(cfg, "guided")
        for record, (instance_id, result) in zip(report.records, singles):
            assert record.instance_id == instance_id
            assert record.guided.trajectory_hash == result.trajectory_hash


class TestAblation:
    def test_single_default_value_matches_default_run(self):
        cfg = tiny_config(seed=8)
        rows = ablation_sweep(cfg, "lambda2", [1.0])
        subset_cfg = dataclasses.replace(cfg, n_instances=cfg.ablation_instances)
        report = run_experiment(subset_cfg)
        guided = [r.guided.metrics for r in report.records[: cfg.ablation_instances]]
        assert rows[0]["mean_m_omega"] == pytest.approx(
            float(np.mean([m.m_omega for m in guided]))
        )

    def test_zero_eta_scale_is_the_baseline_arm(self):
        # The baseline is the configured repair with a ramp of zeros, so an
        # eta_scale of 0 repeats it bit for bit.
        cfg = tiny_config(seed=8)
        [row] = ablation_sweep(cfg, "eta_scale", [0.0])
        assert row["n_instances"] == cfg.ablation_instances
        baseline = [r.baseline.metrics for r in run_experiment(cfg).records[: cfg.ablation_instances]]
        for name in ("m_s", "m_d", "m_omega", "m_omega_bar"):
            assert row[f"mean_{name}"] == float(np.mean([getattr(m, name) for m in baseline]))

    def test_table_shape(self):
        rows = ablation_sweep(tiny_config(seed=9), "lambda1", [0.1, 1.0, 10.0])
        assert len(rows) == 3
        for row in rows:
            assert {"mean_m_s", "mean_m_d", "mean_m_omega", "mean_m_omega_bar"} <= set(row)

    def test_eta_scale_param(self):
        rows = ablation_sweep(tiny_config(seed=10), "eta_scale", [0.0, 1.0])
        assert rows[0]["value"] == 0.0 and rows[1]["value"] == 1.0

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown ablation parameter"):
            ablation_sweep(tiny_config(seed=11), "lambda9", [1.0])

    def test_deterministic(self):
        a = ablation_sweep(tiny_config(seed=12), "lambda3", [0.5, 2.0])
        b = ablation_sweep(tiny_config(seed=12), "lambda3", [0.5, 2.0])
        assert a == b


class TestWriteReport:
    def test_round_trip_and_layout(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path)
        payload = json.loads(paths["report"].read_text())
        assert payload["schema"] == "arpro-report-v1"
        assert payload == tiny_report.to_dict()
        summary = paths["summary"].read_text().splitlines()
        assert summary[0].split(",")[:2] == ["instance_id", "arm"]
        assert len(summary) == 1 + 2 * len(tiny_report.records)
        assert paths["aggregates"].read_text().startswith("key,")
        wall = json.loads(paths["timings"].read_text())["wall_clock"]
        assert wall["repair_rows"] == 2 * len(tiny_report.records)
        assert wall["repair_s"] == pytest.approx(wall["repair_rows"] * wall["repair_per_row_s"])

    def test_report_and_aggregates_bytes_stable(self, tmp_path):
        a = run_experiment(tiny_config(seed=13))
        b = run_experiment(tiny_config(seed=13))
        pa = write_report(a, tmp_path / "a")
        pb = write_report(b, tmp_path / "b")
        assert pa["report"].read_bytes() == pb["report"].read_bytes()
        assert pa["aggregates"].read_bytes() == pb["aggregates"].read_bytes()
        # summary.csv differs only in the trailing measured-seconds column
        strip = lambda p: ["," .join(line.split(",")[:-1]) for line in p.read_text().splitlines()]
        assert strip(pa["summary"]) == strip(pb["summary"])

    def test_ablation_csv(self, tmp_path):
        rows = ablation_sweep(tiny_config(seed=14), "lambda4", [1.0, 2.0])
        path = write_ablation(rows, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("param,value,")
        assert len(lines) == 3


class TestConfigParsing:
    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown keys in config"):
            ExperimentConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="config.data"):
            ExperimentConfig.from_dict({"data": {"bogus": 1}})
        with pytest.raises(ValueError, match="config.repair"):
            ExperimentConfig.from_dict({"repair": {"lambda9": 1.0}})
        with pytest.raises(ValueError, match=r"anomalies\[0\]"):
            ExperimentConfig.from_dict({"data": {"anomalies": [{"kinds": "spike"}]}})

    def test_round_trip(self):
        cfg = timeseries_benchmark_config(seed=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_zero_instances_rejected(self):
        for key, value, message in (("n_instances", 0, "n_instances must be >= 1"),
                                    ("quantile", 1.0, r"quantile must lie in \(0, 1\), got 1.0"),
                                    ("confidence", 0.0, r"confidence must lie in \(0, 1\), got 0.0")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(tiny_config(), **{key: value})

    def test_zero_ablation_instances_rejected(self):
        for key, value, message in (("ablation_instances", 0, "ablation_instances must be >= 1"),
                                    ("quantile", -0.5, r"quantile must lie in \(0, 1\)"),
                                    ("confidence", 1.5, r"confidence must lie in \(0, 1\)")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_dict({**tiny_config().to_dict(), key: value})

    def test_detector_kind_validated(self):
        with pytest.raises(ValueError, match="detector kind"):
            DetectorConfig(kind="flow")

    def test_prepare_pipeline_totals_are_batched_alpha_sums(self):
        cfg = dataclasses.replace(
            tiny_config(seed=16),
            detector=DetectorConfig(kind="recon", hidden=(8, 4, 8), steps=50),
            diffusion=DiffusionConfig(T=5, hidden=(8,), time_embed=4, steps=5),
        )
        pipe = prepare_pipeline(cfg)
        totals = pipe.detector.alpha_batch(pipe.train).sum(axis=1)
        assert pipe.score_threshold == conformal_threshold(totals, cfg.confidence)
        for instance_id, omega in zip(pipe.instance_ids, pipe.masks, strict=True):
            assert np.array_equal(omega, binarize(pipe.detector.score(pipe.test[instance_id]), pipe.thresholds))

    def test_prepare_pipeline_rejects_mismatched_denoiser(self):
        cfg = tiny_config(seed=15)
        other = ExperimentConfig.from_dict(
            {**cfg.to_dict(), "data": {**cfg.data.to_dict(), "n_features": 3}}
        )
        denoiser = train_denoiser(other.data.generate(0).train, other.diffusion, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            prepare_pipeline(cfg, denoiser=denoiser)

    def test_prepare_pipeline_rejects_mismatched_detector(self):
        with pytest.raises(ValueError, match="detector dimension 3 does not match data 24"):
            prepare_pipeline(tiny_config(seed=15), detector=GaussDetector(np.zeros(3), np.ones(3)))


# Values a fuzzed config key takes: each JSON type, non-finite and boundary numbers.
FUZZ_POOL = ("text", True, None, math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e308, [1, 2], {"k": 1})


def _node(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _key_paths(node, path=()):
    """The path of every key and list entry below `node`."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


def _dotted(path) -> str:
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _mutate(payload: dict, g):
    """Replace, delete or add one key of `payload` in place; the touched path
    and the path of the object holding it."""
    paths = list(_key_paths(payload))
    action = g.integers(3)
    if action == 2:  # add an unknown key to some object
        objects = [()] + [p for p in paths if isinstance(_node(payload, p), dict)]
        path = objects[g.integers(len(objects))] + ("extra",)
    else:
        if action == 1:  # delete a key, never a list entry
            paths = [p for p in paths if isinstance(p[-1], str)]
        path = paths[g.integers(len(paths))]
    parent = _node(payload, path[:-1])
    if action == 1:
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(FUZZ_POOL[g.integers(len(FUZZ_POOL))]))
    section = next(path[:cut] for cut in range(len(path) - 1, -1, -1)
                   if isinstance(_node(payload, path[:cut]), dict))
    return path, section


class TestConfigSchema:
    @pytest.mark.parametrize("make", [timeseries_benchmark_config, image_benchmark_config])
    def test_to_dict_is_json_native_in_field_order(self, make):
        payload = make(seed=3).to_dict()
        assert list(payload) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(payload["diffusion"]) == [f.name for f in dataclasses.fields(DiffusionConfig)]
        assert json.loads(json.dumps(payload)) == payload  # no tuples left: a list never equals a tuple

    @pytest.mark.parametrize("payload,message", [
        ({"diffusion": {"steps": 2.5}}, "config.diffusion.steps must be an int, got 2.5"),
        ({"seed": True}, "config.seed must be an int, got True"),
        ({"normalize": 1}, "config.normalize must be a bool, got 1"),
        ({"quantile": math.nan}, "config.quantile must be a finite number, got nan"),
        ({"repair": {"delta4": -math.inf}}, "config.repair.delta4 must be a finite number, got -inf"),
        ({"data": {"kind": 3}}, "config.data.kind must be a string, got 3"),
        ({"detector": {"hidden": [8, 2.0]}}, r"config.detector.hidden\[1\] must be an int, got 2.0"),
        ({"data": {"anomalies": {"kind": "spike"}}}, "config.data.anomalies must be a list"),
        ({"data": {"anomalies": None}}, "config.data.anomalies must be a list, got None"),
        ({"data": {"anomalies": [{"magnitude": 1.0}]}}, r"config.data.anomalies\[0\] lacks required key 'kind'"),
        ({"data": {"anomalies": ["spike"]}}, r"config.data.anomalies\[0\] must be an object"),
        ({"data": {"anomalies": [{"kind": "spike", "extent": 2}]}},
         r"config.data.anomalies\[0\]: anomaly extent must lie in \(0, 1\], got 2.0"),
        ({"diffusion": {"T": 0}}, "config.diffusion: step count T must be >= 1, got 0"),
        ({"diffusion": {"std_mode": "wide"}}, "config.diffusion: std mode"),
        ({"diffusion": {"hidden": [16, 0]}}, r"config.diffusion: hidden widths must be >= 1, got \[16, 0\]"),
        ({"diffusion": {"lr": -1e-3}}, "config.diffusion: lr must be >= 0.0, got -0.001"),
        ({"detector": {"batch": 0}}, "config.detector: batch must be >= 1, got 0"),
        ({"detector": {"steps": -1}}, "config.detector: steps must be >= 0, got -1"),
        ({"detector": {"weight_decay": -0.5}}, "config.detector: weight_decay must be >= 0.0"),
        ({"repair": {"lambda3": -1}}, "config.repair: lambda3 must be nonnegative"),
        ({"repair": {"delta2": 0}}, "config.repair: delta2 must be positive"),
        ({"repair": {"infill_mode": "bad"}}, "config.repair: infill mode"),
        ({"repair": {"eta_start": 0.5, "eta_end": 0.1}}, "config.repair: need 0 <= eta_start <= eta_end"),
        ({"diffusion": {"time_embed": 3}}, "config.diffusion: time_embed must be positive and even, got 3"),
        ({"diffusion": {"time_embed": 0}}, "config.diffusion: time_embed must be positive and even, got 0"),
        ({"data": {"n_train": -1}}, "config.data: n_train must be >= 1, got -1"),
        ({"data": {"n_test": 0}}, "config.data: n_test must be >= 1, got 0"),
        ({"data": {"n_features": 0}}, "config.data: n_features must be >= 1, got 0"),
        ({"data": {"window_len": 0}}, "config.data: window_len must be >= 6, got 0"),
        ({"data": {"window_len": 4}}, "config.data: window_len must be >= 6, got 4"),
        ({"data": {"n_test_normal": -1}}, "config.data: n_test_normal must be >= 0, got -1"),
        ({"data": {"noise_std": -0.1}}, "config.data: noise_std must be >= 0.0, got -0.1"),
        ({"data": {"start_jitter": -1}}, "config.data: start_jitter must be >= 0.0, got -1.0"),
        ({"data": {"anomalies": []}}, "config.data: anomalies must hold at least one anomaly spec"),
        ({"data": {"kind": "image", "anomalies": [{"kind": "spike"}]}},
         r"config.data: anomalies\[0\]: anomaly kind 'spike' is not an image kind"),
        ({"data": {"kind": "image", "side": 33, "anomalies": [{"kind": "square_defect"}]}},
         r"config.data: side must lie in \[1, 32\], got 33"),
        ({"data": {"kind": "image", "n_basis": 0, "anomalies": [{"kind": "square_defect"}]}},
         "config.data: n_basis must be >= 1, got 0"),
        ({"data": {"anomalies": [{"kind": "stripe_defect"}]}},
         r"config.data: anomalies\[0\]: anomaly kind 'stripe_defect' is not a time-series kind"),
    ])
    def test_types_and_ranges_checked_at_load(self, payload, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("kind", ["ts", "image"])
    def test_a_kind_without_anomalies_brings_its_stock_anomalies(self, kind):
        assert ExperimentConfig.from_dict({"data": {"kind": kind}}).data.anomalies == STOCK_ANOMALIES[kind]

    def test_data_keys_of_the_other_kind_are_not_checked(self):
        # A ts config never reads `side` or `n_basis`, nor an image config `window_len` or `start_jitter`.
        assert ExperimentConfig.from_dict({"data": {"side": 0, "n_basis": -3}}).data.side == 0
        image = {"kind": "image", "window_len": 0, "start_jitter": -1, "anomalies": [{"kind": "square_defect"}]}
        assert ExperimentConfig.from_dict({"data": image}).data.window_len == 0

    def test_json_ints_become_floats_and_null_stays_none(self):
        cfg = ExperimentConfig.from_dict({"repair": {"lambda1": 2, "delta2": None}, "quantile": 1e-300})
        assert type(cfg.repair.lambda1) is float and cfg.repair.lambda1 == 2.0
        assert cfg.repair.delta2 is None
        assert cfg.quantile == 1e-300

    @pytest.mark.parametrize("make", [timeseries_benchmark_config, image_benchmark_config])
    def test_fuzzed_configs_load_or_name_the_key(self, make):
        g = np.random.default_rng(20261018)
        stock = make(seed=1).to_dict()
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(300):
            payload = json.loads(json.dumps(stock))
            path, section = _mutate(payload, g)
            try:
                cfg = ExperimentConfig.from_dict(payload)
            except ValueError as exc:
                where = (_dotted(path), _dotted(section))
                assert any(w in str(exc) for w in where), (path, str(exc))
                outcomes["rejected"] += 1
            else:
                assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict(), allow_nan=False))) == cfg
                outcomes["loaded"] += 1
        assert min(outcomes.values()) >= 30, outcomes
