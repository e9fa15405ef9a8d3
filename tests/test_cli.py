import argparse
import base64
import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from arpro import cli, harness
from arpro.cli import main
from arpro.detector import GaussDetector, ReconDetector
from arpro.diffusion import MAX_T, Denoiser, make_schedule
from arpro.tensor import Mlp

TINY_CONFIG = {
    "data": {
        "kind": "ts",
        "n_features": 2,
        "window_len": 12,
        "n_train": 60,
        "n_test": 6,
        "noise_std": 0.1,
        "start_jitter": 12.0,
        "anomalies": [{"kind": "spike", "magnitude": 1.5, "extent": 0.15}],
    },
    "detector": {"kind": "gauss"},
    "diffusion": {"T": 12, "hidden": [16, 16], "time_embed": 8, "steps": 150},
    "repair": {"eta_start": 0.05, "eta_end": 0.2},
    "n_instances": 3,
    "ablation_instances": 2,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    assert main(["gen-data", "--kind", "ts", "--out", str(data_dir), "--seed", "7",
                 "--config", str(config)]) == 0
    models = root / "models"
    assert main(["train-detector", "--input", str(data_dir), "--out", str(models),
                 "--seed", "7", "--config", str(config)]) == 0
    assert main(["train-diffusion", "--input", str(data_dir), "--out", str(models),
                 "--seed", "7", "--config", str(config)]) == 0
    return root, config, data_dir, models


def dir_equal(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# A value for each flag whose dest is a config key, other than the stock config's.
OVERRIDE_VALUES = {
    "repair.lambda1": 0.5, "repair.lambda2": 2.5, "repair.lambda3": 0.25, "repair.lambda4": 4.0,
    "repair.eta_start": 0.01, "repair.eta_end": 0.5, "repair.infill_mode": "paper-literal",
    "diffusion.std_mode": "paper-literal", "data.kind": "image", "detector.kind": "recon",
}
# The other arguments each subcommand with such a flag requires.
REQUIRED_ARGS = {
    "gen-data": [], "train-detector": ["--input", "d"],
    "repair": ["--input", "d", "--detector", "a", "--denoiser", "b", "--guided"],
    "evaluate": ["--input", "d"], "ablate": ["--input", "d", "--param", "lambda1", "--values", "1"],
}


def _override_flags() -> list[tuple[str, str, str]]:
    """(subcommand, flag, dest) of every flag whose dest is a dotted config key."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, parser in sub.choices.items() for action in parser._actions if "." in action.dest]


class TestGenData:
    def test_deterministic_directories(self, workspace, tmp_path):
        root, config, data_dir, _ = workspace
        other = tmp_path / "again"
        assert main(["gen-data", "--kind", "ts", "--out", str(other), "--seed", "7",
                     "--config", str(config)]) == 0
        assert dir_equal(data_dir, other)

    def test_config_file_seed_used_without_flag(self, workspace, tmp_path):
        _, _, data_dir, _ = workspace
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({**TINY_CONFIG, "seed": 7}))
        other = tmp_path / "file-seed"
        assert main(["gen-data", "--kind", "ts", "--out", str(other), "--config", str(config)]) == 0
        assert dir_equal(data_dir, other)  # written with --seed 7

    def test_different_seed_differs(self, workspace, tmp_path):
        _, config, data_dir, _ = workspace
        other = tmp_path / "seed8"
        assert main(["gen-data", "--kind", "ts", "--out", str(other), "--seed", "8",
                     "--config", str(config)]) == 0
        assert not dir_equal(data_dir, other)

    def test_kind_without_config_uses_its_stock_anomalies(self, tmp_path):
        out = tmp_path / "image"
        assert main(["gen-data", "--kind", "image", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["modality"] == "image" and meta["n"] == 16 * 16
        config = tmp_path / "image.json"
        config.write_text(json.dumps({"data": {"kind": "image"}}))
        from_file = tmp_path / "image-from-file"
        assert main(["gen-data", "--config", str(config), "--out", str(from_file)]) == 0
        assert dir_equal(out, from_file)

    def test_kind_against_config_anomalies_exits_1_naming_key(self, tmp_path, capsys):
        config = tmp_path / "ts-anomalies.json"
        config.write_text(json.dumps({"data": {"anomalies": TINY_CONFIG["data"]["anomalies"]}}))
        out = tmp_path / "image"
        assert main(["gen-data", "--kind", "image", "--out", str(out), "--config", str(config)]) == 1
        assert ("config.data: anomalies[0]: anomaly kind 'spike' is not an image kind"
                in capsys.readouterr().err)
        assert not out.exists()


class TestRepairCommand:
    def test_zero_guidance_matches_baseline(self, workspace, tmp_path):
        _, config, data_dir, models = workspace
        base_out = tmp_path / "base"
        guided_out = tmp_path / "guided0"
        common = ["repair", "--input", str(data_dir), "--detector", str(models / "detector.json"),
                  "--denoiser", str(models / "denoiser.json"), "--seed", "7",
                  "--config", str(config)]
        assert main(common + ["--baseline", "--out", str(base_out)]) == 0
        assert main(common + ["--guided", "--eta-start", "0", "--eta-end", "0",
                              "--out", str(guided_out)]) == 0
        base = json.loads((base_out / "repairs.json").read_text())
        guided = json.loads((guided_out / "repairs.json").read_text())
        assert base["results"] and len(base["results"]) == len(guided["results"])
        for rb, rg in zip(base["results"], guided["results"]):
            assert rb["x_fix"] == rg["x_fix"]
            assert rb["trajectory_hash"] == rg["trajectory_hash"]

    def test_byte_reproducible(self, workspace, tmp_path):
        _, config, data_dir, models = workspace
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["repair", "--input", str(data_dir), "--detector", str(models / "detector.json"),
                         "--denoiser", str(models / "denoiser.json"), "--guided",
                         "--seed", "7", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "repairs.json").read_bytes() == (outs[1] / "repairs.json").read_bytes()


class TestEvaluateCommand:
    def test_runs_and_reports(self, workspace, tmp_path, capsys):
        _, config, data_dir, models = workspace
        out = tmp_path / "eval"
        assert main(["evaluate", "--input", str(data_dir), "--seed", "7",
                     "--config", str(config), "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wall-clock" in stdout
        payload = json.loads((out / "report.json").read_text())
        assert payload["schema"] == "arpro-report-v1"
        assert payload["provenance"]["overrides"]["seed"] == 7

    def test_flag_overrides_recorded_and_applied(self, workspace, tmp_path):
        _, config, data_dir, models = workspace
        flags = [(flag, dest) for command, flag, dest in _override_flags() if command == "evaluate"]
        out = tmp_path / "eval-ov"
        assert main(["evaluate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"), "--denoiser", str(models / "denoiser.json"),
                     *(arg for flag, dest in flags for arg in (flag, str(OVERRIDE_VALUES[dest]))),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        expected = {"seed": 7}
        for _, dest in flags:
            section, key = dest.split(".")
            expected.setdefault(section, {})[key] = OVERRIDE_VALUES[dest]
            assert payload["config"][section][key] == OVERRIDE_VALUES[dest]
        assert payload["provenance"]["overrides"] == expected
        assert list(expected["repair"]) == ["lambda1", "lambda2", "lambda3", "lambda4",
                                            "eta_start", "eta_end", "infill_mode"]


class TestOverrideFlags:
    def test_every_dotted_dest_names_a_field_of_its_section(self):
        sections = typing.get_type_hints(harness.ExperimentConfig)
        for command, flag, dest in _override_flags():
            section, key = dest.split(".")
            assert key in {f.name for f in dataclasses.fields(sections[section])}, (command, flag)
        assert {dest for _, _, dest in _override_flags()} == set(OVERRIDE_VALUES)

    @pytest.mark.parametrize("command,flag,dest", _override_flags())
    def test_flag_value_reaches_config_and_overrides_under_its_key(self, command, flag, dest):
        value = OVERRIDE_VALUES[dest]
        args = cli.build_parser().parse_args([command, flag, str(value), "--out", "o", *REQUIRED_ARGS[command]])
        cfg, overrides = cli._experiment_config(args, {})
        section, key = dest.split(".")
        assert getattr(getattr(harness.ExperimentConfig(), section), key) != value
        assert getattr(getattr(cfg, section), key) == value
        assert overrides == {section: {key: value}}


class TestStdMode:
    @pytest.mark.parametrize("command", ["evaluate", "repair"])
    def test_config_std_mode_reaches_a_loaded_denoiser(self, workspace, tmp_path, command):
        # The workspace denoiser was trained with the stock "standard" std mode.
        _, _, data_dir, models = workspace
        assert Denoiser.load(models / "denoiser.json").schedule.std_mode == "standard"
        config = tmp_path / "paper-literal.json"
        config.write_text(json.dumps({**TINY_CONFIG, "diffusion": {**TINY_CONFIG["diffusion"],
                                                                   "std_mode": "paper-literal"}}))
        out = tmp_path / command
        assert main([command, "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"), "--denoiser", str(models / "denoiser.json"),
                     "--out", str(out), *(["--guided"] if command == "repair" else [])]) == 0
        if command == "evaluate":
            payload = json.loads((out / "report.json").read_text())
            assert payload["config"]["diffusion"]["std_mode"] == "paper-literal"
            results = [instance[arm] for instance in payload["instances"] for arm in ("baseline", "guided")]
        else:
            results = json.loads((out / "repairs.json").read_text())["results"]
        assert results and {result["std_mode"] for result in results} == {"paper-literal"}


class TestAblateCommand:
    def test_emits_table(self, workspace, tmp_path):
        _, config, data_dir, models = workspace
        out = tmp_path / "ablate"
        assert main(["ablate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"),
                     "--param", "lambda2", "--values", "0.1,1,10", "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_unknown_param_exits_1(self, workspace, tmp_path, capsys):
        _, config, data_dir, models = workspace
        code = main(["ablate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"),
                     "--param", "zeta", "--values", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown ablation parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("param,values,shown", [
        ("lambda1", "nan,1", "[nan, 1.0]"),
        ("lambda3", "1,inf", "[1.0, inf]"),
        ("eta_scale", "0.5,inf", "[0.5, inf]"),
    ])
    def test_non_finite_values_exit_1_naming_them(self, workspace, tmp_path, capsys, param, values, shown):
        _, config, data_dir, models = workspace
        code = main(["ablate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"),
                     "--param", param, "--values", values, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"ablation values must be finite numbers, got {shown}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("param,values,message", [
        ("eta_scale", "-1", "ablation values of eta_scale must be nonnegative, got [-1.0]"),
        ("lambda3", "1,-0.5", "ablation values of lambda3 must be nonnegative, got [1.0, -0.5]"),
        ("lambda1", ",", "ablation needs at least one value"),
    ])
    def test_negative_or_no_values_exit_1_naming_them(self, workspace, tmp_path, capsys, param, values, message):
        _, config, data_dir, models = workspace
        code = main(["ablate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"),
                     "--param", param, "--values", values, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()


class TestValidationFailures:
    def test_missing_train_csv_names_path(self, workspace, tmp_path, capsys):
        _, config, data_dir, models = workspace
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("test.csv", "test_labels.csv", "meta.json"):
            (broken / name).write_bytes((data_dir / name).read_bytes())
        code = main(["train-detector", "--input", str(broken), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "train.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (b"[1]", "dataset metadata {} must hold a JSON object"),
        (b'{"schema": 1,', "malformed dataset metadata {}: "),
        (b"\xff{}", "malformed dataset metadata {}: "),
    ])
    def test_bad_meta_json_exits_1_naming_file(self, workspace, tmp_path, capsys, text, message):
        _, config, data_dir, _ = workspace
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("train.csv", "test.csv", "test_labels.csv"):
            (broken / name).write_bytes((data_dir / name).read_bytes())
        (broken / "meta.json").write_bytes(text)
        code = main(["train-detector", "--input", str(broken), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "m")])
        assert code == 1
        assert message.format(broken / "meta.json") in capsys.readouterr().err

    @pytest.mark.parametrize("edit,code,message", [
        ({"n": 7}, 1, "{}: n 7 does not match train.csv's header, which gives 24"),
        ({"feature_names": ["a", "b"]}, 1, "{}: feature_names ['a', 'b'] does not match train.csv's header"),
        ({"n": None, "feature_names": None}, 0, ""),  # both keys left out
    ], ids=["n", "feature_names", "neither"])
    def test_meta_json_checked_against_train_csv(self, workspace, tmp_path, capsys, edit, code, message):
        _, config, data_dir, _ = workspace
        edited = tmp_path / "edited"
        edited.mkdir()
        for name in ("train.csv", "test.csv", "test_labels.csv"):
            (edited / name).write_bytes((data_dir / name).read_bytes())
        meta = {**json.loads((data_dir / "meta.json").read_text()), **edit}
        (edited / "meta.json").write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
        assert main(["train-detector", "--input", str(edited), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "m")]) == code
        assert message.format(edited / "meta.json") in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["detector", "denoiser"])
    @pytest.mark.parametrize("text,message", [
        ("[1]", "checkpoint {} must hold a JSON object"),
        ('{"schema": 1,', "malformed checkpoint {}: "),
    ])
    def test_bad_checkpoint_json_exits_1_naming_file(self, workspace, tmp_path, capsys, which, text, message):
        _, config, data_dir, models = workspace
        paths = {"detector": models / "detector.json", "denoiser": models / "denoiser.json"}
        paths[which] = tmp_path / f"broken-{which}.json"
        paths[which].write_text(text)
        code = main(["repair", "--input", str(data_dir), "--detector", str(paths["detector"]),
                     "--denoiser", str(paths["denoiser"]), "--guided", "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 1
        assert message.format(paths[which]) in capsys.readouterr().err

    @pytest.mark.parametrize("source,edit,message", [
        ("denoiser", dict, "{}: checkpoint.kind: unknown detector kind 'denoiser'"),
        ("detector", lambda p: {**p, "kind": "denoiser"}, "{}: checkpoint.kind: unknown detector kind 'denoiser'"),
        ("detector", lambda p: {k: v for k, v in p.items() if k != "n"}, "{}: checkpoint lacks required key 'n'"),
        ("detector", lambda p: {**p, "n": 25}, "{}: checkpoint.data holds 48 values, expected 50"),
        ("detector", lambda p: {**p, "n": None}, "{}: checkpoint.n must be an int, got None"),
        ("detector", lambda p: {**p, "data": 5}, "{}: checkpoint.data must be a base64 string, got int"),
        ("detector", lambda p: {**p, "n": 0}, "{}: checkpoint.n must be >= 1, got 0"),
        ("detector", lambda p: {**p, "n": -1}, "{}: checkpoint.n must be >= 1, got -1"),
    ], ids=["denoiser-file", "denoiser-kind", "no-n", "short-data", "null-n", "int-data", "zero-n", "negative-n"])
    def test_wrong_kind_or_malformed_detector_exits_1(self, workspace, tmp_path, capsys, source, edit, message):
        _, config, data_dir, models = workspace
        broken = tmp_path / "broken-detector.json"
        broken.write_text(json.dumps(edit(json.loads((models / f"{source}.json").read_text()))))
        code = main(["evaluate", "--input", str(data_dir), "--detector", str(broken),
                     "--denoiser", str(models / "denoiser.json"), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(broken)}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda p: {**p, "schedule": {**p["schedule"], "b_start": 0.5, "b_end": 0.1}},
         "{}: checkpoint.schedule: need 0 < b_start <= b_end < 1, got (0.5, 0.1)"),
        (lambda p: {**p, "data": base64.b64encode(base64.b64decode(p["data"])[:-4]).decode()},
         "{}: checkpoint.data holds 1207 values, expected 1208"),
        (lambda p: {**p, "layers": [{**p["layers"][0], "act": "relu"}, *p["layers"][1:]]},
         "{}: checkpoint.layers: layer activations must be ['silu', 'silu', 'linear'], got ['relu', 'silu', 'linear']"),
        (lambda p: {**p, "time_embed": None, "in_dim": 32},
         "{}: denoiser input and output dimensions must match"),
        # The first layer's 32 inputs still add up, as 20 data and 12 embedding columns.
        (lambda p: {**p, "time_embed": 12, "in_dim": 20},
         "{}: denoiser input and output dimensions must match"),
        (lambda p: {**p, "schedule": {**p["schedule"], "T": None}},
         "{}: checkpoint.schedule.T must be an int, got None"),
        (lambda p: {**p, "data": 5}, "{}: checkpoint.data must be a base64 string, got int"),
        (lambda p: {**p, "schedule": {**p["schedule"], "T": MAX_T + 1}},
         f"{{}}: checkpoint.schedule: step count T must be <= {MAX_T}, got {MAX_T + 1}"),
        (lambda p: {**p, "data": "!!!!"}, "{}: checkpoint.data: Only base64 data is allowed"),
        (lambda p: {**p, "data": "AAAA"},
         "{}: checkpoint.data: buffer size must be a multiple of element size"),
        (lambda p: {**p, "data": "abc"}, "{}: checkpoint.data: Incorrect padding"),
        (lambda p: {**p, "dtype": ">f4"}, "{}: checkpoint.dtype must be one of ['<f4', '<f8'], got '>f4'"),
        # Layers of 10**12 units would need 49 * 10**12 parameters; the blob is checked before any is allocated.
        (lambda p: {**p, "layers": [{**p["layers"][0], "out": 10**12}, {**p["layers"][1], "in": 10**12},
                                    *p["layers"][2:]]},
         "{}: checkpoint.data holds 1208 values, expected 49000000000424"),
    ], ids=["schedule", "short-data", "activation", "no-step-embedding", "wider-step-embedding", "null-T",
            "int-data", "T-above-cap", "data-not-base64", "data-partial-value", "data-bad-padding", "big-endian-dtype", "huge-layers"])
    def test_malformed_denoiser_exits_1_naming_file(self, workspace, tmp_path, capsys, edit, message):
        _, config, data_dir, models = workspace
        broken = tmp_path / "broken-denoiser.json"
        broken.write_text(json.dumps(edit(json.loads((models / "denoiser.json").read_text()))))
        code = main(["evaluate", "--input", str(data_dir), "--detector", str(models / "detector.json"),
                     "--denoiser", str(broken), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(broken)}\n"

    @pytest.mark.parametrize("command", [["repair", "--guided"], ["evaluate"]])
    @pytest.mark.parametrize("which", ["detector", "denoiser"])
    def test_checkpoint_of_wrong_dimension_exits_1_naming_file(self, workspace, tmp_path, capsys, command, which):
        _, config, data_dir, models = workspace
        paths = {"detector": models / "detector.json", "denoiser": models / "denoiser.json"}
        paths[which] = tmp_path / f"{which}-8.json"
        if which == "detector":
            GaussDetector(np.zeros(8), np.ones(8)).save(paths[which])
        else:
            Denoiser(Mlp(12, [4], 8, seed=0), make_schedule(12)).save(paths[which])
        code = main([*command, "--input", str(data_dir), "--detector", str(paths["detector"]),
                     "--denoiser", str(paths["denoiser"]), "--seed", "7",
                     "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{paths[which]}: " in err and "checkpoint has dimension 8, but the dataset has 24" in err

    def test_too_few_training_rows_for_the_confidence_exits_1(self, tmp_path, capsys):
        # ceil((10+1)*0.95) = 11 > 10 training rows, so the conformal threshold would be +inf.
        config = tmp_path / "ten-rows.json"
        config.write_text(json.dumps({**TINY_CONFIG, "data": {**TINY_CONFIG["data"], "n_train": 10}}))
        data_dir = tmp_path / "data"
        common = ["--seed", "7", "--config", str(config)]
        assert main(["gen-data", "--out", str(data_dir), *common]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--input", str(data_dir), "--out", str(tmp_path / "eval"), *common]) == 1
        assert capsys.readouterr().err == ("error: confidence 0.95 needs at least 19 training rows for a "
                                           "finite conformal threshold, got 10\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command,out", [
        (["gen-data", "--kind", "ts"], "taken"),
        (["evaluate", "--input", "{data}"], "taken/sub"),
    ], ids=["gen-data-file", "evaluate-under-file"])
    def test_out_that_cannot_be_a_directory_exits_1_before_any_work(self, workspace, tmp_path, capsys,
                                                                    monkeypatch, command, out):
        _, config, data_dir, _ = workspace
        (tmp_path / "taken").write_text("a file")
        prepared = []
        monkeypatch.setattr(harness, "prepare_pipeline", lambda *args, **kwargs: prepared.append(args))
        argv = [arg.format(data=data_dir) for arg in command]
        code = main([*argv, "--seed", "7", "--config", str(config), "--out", str(tmp_path / out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path / out}: {tmp_path / 'taken'} is not a directory\n"
        assert prepared == []
        assert (tmp_path / "taken").read_text() == "a file"

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gen-data", "--out", "x", "--bogus-flag", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate", "--out", "x"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": True}))
        assert main(["gen-data", "--kind", "ts", "--out", str(tmp_path / "d"),
                     "--config", str(config)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["gen-data", "--kind", "ts", "--out", str(tmp_path / "d"),
                     "--config", str(config)]) == 1
        assert "malformed config" in capsys.readouterr().err

    def test_missing_checkpoint_exits_1(self, workspace, tmp_path, capsys):
        _, config, data_dir, _ = workspace
        code = main(["repair", "--input", str(data_dir), "--detector", str(tmp_path / "nope.json"),
                     "--denoiser", str(tmp_path / "nope2.json"), "--guided",
                     "--seed", "7", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_diverging_repair_exits_1_without_report(self, workspace, tmp_path, capsys):
        _, config, data_dir, models = workspace
        out = tmp_path / "diverged"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["evaluate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                         "--detector", str(models / "detector.json"),
                         "--denoiser", str(models / "denoiser.json"),
                         "--eta-start", "1e6", "--eta-end", "1e9", "--lambda1", "1e6", "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key", ["n_instances", "ablation_instances", "quantile", "confidence"])
    def test_zero_instance_count_exits_1_naming_key(self, workspace, tmp_path, capsys, key):
        _, _, data_dir, models = workspace
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({**TINY_CONFIG, key: 0}))
        out = tmp_path / "ablate"
        code = main(["ablate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"),
                     "--denoiser", str(models / "denoiser.json"),
                     "--param", "lambda1", "--values", "1", "--out", str(out)])
        assert code == 1
        bound = "must lie in (0, 1), got 0" if key in ("quantile", "confidence") else "must be >= 1"
        assert f"{key} {bound}" in capsys.readouterr().err
        assert not (out / "ablation.csv").exists()

    @pytest.mark.parametrize("text,message", [
        ('{"diffusion": {"steps": 2.5}}', "config.diffusion.steps must be an int, got 2.5"),
        # The key that turned off the scaler, and its overflow check, is gone.
        ('{"data": {"noise_std": 1e200}, "normalize": false}', "unknown keys in config: ['normalize']"),
        ('{"seed": 1.5}', "config.seed must be an int, got 1.5"),
        ('{"diffusion": {"T": 0}}', "config.diffusion: step count T must be >= 1, got 0"),
        ('{"diffusion": {"lr": NaN}}', "config.diffusion.lr must be a finite number, got nan"),
        ('{"repair": {"infill_mode": "bad"}}', "config.repair: infill mode must be one of"),
        ('{"repair": {"lambda1": "1"}}', "config.repair.lambda1 must be a finite number, got '1'"),
        ('{"detector": {"hidden": "abc"}}', "config.detector.hidden must be a list, got 'abc'"),
        ('{"n_instances": "5"}', "config.n_instances must be an int, got '5'"),
        ('{"diffusion": {"time_embed": 3}}', "config.diffusion: time_embed must be positive and even, got 3"),
        ('{"data": {"n_train": -1}}', "config.data: n_train must be >= 1, got -1"),
        ('{"data": {"anomalies": []}}', "config.data: anomalies must hold at least one anomaly spec"),
        ('{"detector": {"sigma_floor": -1}}', "config.detector: sigma_floor must be positive, got -1.0"),
        ('{"detector": {"sigma_floor": 1e200}}',
         "config.detector: sigma_floor 1e+200 makes 1/(2 sigma^2) or log(2 pi sigma^2) non-finite"),
        (json.dumps({"diffusion": {"T": MAX_T + 1}}),
         f"config.diffusion: step count T must be <= {MAX_T}, got {MAX_T + 1}"),
        ('{"data": {"noise_std": 1e308}}',
         "the generated data holds a non-finite value: noise_std or the anomalies' magnitude is too large"),
    ])
    def test_mistyped_or_out_of_range_config_exits_1_at_load(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "d"
        assert main(["gen-data", "--kind", "ts", "--out", str(out), "--config", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,argv,message", [
        ('{"repair": null}', ["evaluate", "--input", "d", "--lambda1", "2"], "config.repair must be an object, got None"),
        ('{"data": 5}', ["gen-data", "--kind", "ts"], "config.data must be an object, got 5"),
        ('{"diffusion": [1]}', ["evaluate", "--input", "d", "--std-mode", "standard"],
         "config.diffusion must be an object, got [1]"),
    ])
    def test_non_object_section_under_a_flag_exits_1(self, tmp_path, capsys, text, argv, message):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not out.exists()

    def test_diverged_training_exits_1_without_checkpoint(self, workspace, tmp_path, capsys):
        _, _, data_dir, _ = workspace
        config = tmp_path / "huge-lr.json"
        config.write_text(json.dumps({**TINY_CONFIG, "diffusion": {**TINY_CONFIG["diffusion"], "lr": 1e307}}))
        out = tmp_path / "models"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train-diffusion", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                         "--out", str(out)])
        assert code == 1
        assert "non-finite parameter values" in capsys.readouterr().err
        assert not (out / "denoiser.json").exists()

    @pytest.mark.parametrize("command", ["train-detector", "train-diffusion"])
    def test_data_too_large_to_standardize_exits_1_without_checkpoint(self, tmp_path, capsys, command):
        # A RuntimeWarning would fail the suite, so exit 1 here also means none was printed.
        config = tmp_path / "loud.json"
        config.write_text(json.dumps({**TINY_CONFIG, "data": {**TINY_CONFIG["data"], "noise_std": 1e200}}))
        data_dir, out = tmp_path / "data", tmp_path / "models"
        assert main(["gen-data", "--out", str(data_dir), "--config", str(config)]) == 0
        capsys.readouterr()
        assert main([command, "--input", str(data_dir), "--config", str(config), "--out", str(out)]) == 1
        assert "column 1 overflows its mean or std: noise_std or the data's values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,message", [
        ("gauss", "n", "checkpoint lacks required key 'n'"),
        ("gauss", "data", "checkpoint lacks required key 'data'"),
        ("recon", "layers", "checkpoint lacks required key 'layers'"),
        ("recon", "data", "checkpoint lacks required key 'data'"),
        ("denoiser", "layers", "checkpoint lacks required key 'layers'"),
        ("denoiser", "data", "checkpoint lacks required key 'data'"),
        ("denoiser", "schedule", "checkpoint lacks required key 'schedule'"),
        ("recon", "layers.act", "checkpoint.layers[0] lacks required key 'act'"),
        ("denoiser", "layers.in", "checkpoint.layers[0] lacks required key 'in'"),
        ("denoiser", "schedule.T", "checkpoint.schedule lacks required key 'T'"),
    ])
    def test_checkpoint_missing_key_exits_1(self, workspace, tmp_path, capsys, kind, key, message):
        def drop(payload):
            outer, _, inner = key.partition(".")
            if inner:
                nested = payload[outer]
                del (nested[0] if isinstance(nested, list) else nested)[inner]
            else:
                del payload[key]
            return payload

        broken = self._broken_checkpoint(workspace, tmp_path, kind, drop)
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"

    @pytest.mark.parametrize("kind,edit,message", [
        ("recon", lambda p: {**p, "layers": p["layers"][0]},
         "checkpoint.layers must be a list, got {'in': 24, 'out': 8, 'act': 'silu'}"),
        ("denoiser", lambda p: {**p, "layers": [p["layers"][0], 5, *p["layers"][2:]]},
         "checkpoint.layers[1] must be an object, got 5"),
        ("recon", lambda p: {**p, "layers": [p["layers"][0], {**p["layers"][1], "in": True}]},
         "checkpoint.layers[1].in must be an int, got True"),
        ("recon", lambda p: {**p, "layers": [{**p["layers"][0], "out": 8.0}, p["layers"][1]]},
         "checkpoint.layers[0].out must be an int, got 8.0"),
        ("denoiser", lambda p: {**p, "layers": [p["layers"][0], {**p["layers"][1], "in": "16"}, p["layers"][2]]},
         "checkpoint.layers[1].in must be an int, got '16'"),
        ("recon", lambda p: {**p, "layers": [{**p["layers"][0], "act": 5}, p["layers"][1]]},
         "checkpoint.layers[0].act must be a string, got 5"),
        ("recon", lambda p: {**p, "layers": [p["layers"][0], {**p["layers"][1], "bias": True}]},
         "unknown keys in checkpoint.layers[1]: ['bias']"),
        ("denoiser", lambda p: {**p, "schedule": {**p["schedule"], "beta": 0.1}},
         "unknown keys in checkpoint.schedule: ['beta']"),
    ], ids=["layers-object", "entry-not-object", "in-true", "out-float", "in-string", "act-int",
            "unknown-layer-key", "unknown-schedule-key"])
    def test_malformed_layer_or_schedule_exits_1_naming_key(self, workspace, tmp_path, capsys, kind, edit, message):
        broken = self._broken_checkpoint(workspace, tmp_path, kind, edit)
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"

    def test_autoencoder_with_a_step_embedding_exits_1_naming_file(self, workspace, tmp_path, capsys):
        # The first layer's 24 inputs still add up, as 20 data and 4 embedding
        # columns, and the net maps 24 to 24.
        broken = self._broken_checkpoint(workspace, tmp_path, "recon", lambda p: {**p, "in_dim": 20, "time_embed": 4})
        assert capsys.readouterr().err == f"error: {broken}: autoencoder output dimension 24 must equal input 20\n"

    def test_denoiser_value_beyond_float32_exits_1_naming_data(self, workspace, tmp_path, capsys):
        # The value is finite in a float64 blob, but the denoiser runs in
        # float32, where it would be an infinity.
        def overflow(payload):
            values = np.frombuffer(base64.b64decode(payload["data"]), dtype="<f4").astype("<f8")
            values[3] = 1e150
            return {**payload, "dtype": "<f8", "data": base64.b64encode(values.tobytes()).decode("ascii")}

        broken = self._broken_checkpoint(workspace, tmp_path, "denoiser", overflow)
        assert capsys.readouterr().err == (f"error: {broken}: checkpoint.data: parameter 3 is 1e+150, "
                                           f"beyond the float32 range the denoiser runs in\n")

    @staticmethod
    def _broken_checkpoint(workspace, tmp_path, kind, edit) -> Path:
        """The workspace's `kind` checkpoint (or a fresh recon detector for
        the 24-feature data) after ``edit(payload)``, written beside the
        other model and run through `repair`, which must exit 1."""
        _, config, data_dir, models = workspace
        detector, denoiser = models / "detector.json", models / "denoiser.json"
        if kind == "recon":
            detector = tmp_path / "recon.json"
            ReconDetector(Mlp(24, [8], 24, seed=0)).save(detector)
        target = denoiser if kind == "denoiser" else detector
        payload = json.loads(target.read_text())
        assert payload["kind"] == kind
        broken = tmp_path / f"broken-{target.name}"
        broken.write_text(json.dumps(edit(payload)))
        detector, denoiser = (detector, broken) if kind == "denoiser" else (broken, denoiser)
        code = main(["repair", "--input", str(data_dir), "--detector", str(detector),
                     "--denoiser", str(denoiser), "--guided", "--seed", "7", "--config", str(config),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        return broken

    def test_huge_final_iterate_exits_1_without_report(self, workspace, tmp_path, capsys):
        _, config, data_dir, models = workspace
        diffusion = TINY_CONFIG["diffusion"]
        net = Mlp(24 + diffusion["time_embed"], diffusion["hidden"], 24, seed=0)
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = 1e30  # huge, yet within the float32 range the denoiser runs in
        huge = tmp_path / "huge-denoiser.json"
        Denoiser(net, make_schedule(diffusion["T"])).save(huge)
        out = tmp_path / "eval"
        code = main(["evaluate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
                     "--detector", str(models / "detector.json"), "--denoiser", str(huge), "--out", str(out)])
        assert code == 1
        assert "the final iterate has a coordinate beyond ±1e+10" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_inputs_never_modified(self, workspace, tmp_path):
        _, config, data_dir, models = workspace
        before = {p.name: p.read_bytes() for p in data_dir.iterdir()}
        main(["evaluate", "--input", str(data_dir), "--seed", "7", "--config", str(config),
              "--detector", str(models / "detector.json"),
              "--denoiser", str(models / "denoiser.json"), "--out", str(tmp_path / "e")])
        after = {p.name: p.read_bytes() for p in data_dir.iterdir()}
        assert before == after
