"""Tests of the benchmark's own code: spans, percentiles and output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types

import checks
import run
from spans import Span, Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("a", 1.0, 4.0, 0, "op0"),
        Span("a.inner", 2.0, 3.0, 1, "op0"),
        Span("b", 5.0, 7.0, 0, "op0"),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("a", 1.0, 6.0, 0, "op0"),
        Span("b", 4.0, 12.0, 0, "op0"),  # overlaps a and outlives the parent
    ]
    assert self_times(spans)[0] == 1.0


def _fake_module():
    module = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    return module


def test_tracer_nests_restores_and_reports_absent(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_inner = module.inner
    tracer = Tracer(targets=(
        ("fake.outer", module.__name__, "outer", None),
        ("fake.inner", module.__name__, "inner", lambda args, kwargs: args[0]),
        ("fake.gone", module.__name__, "Tensor.backward", None),
        ("fake.no_module", "perfbench_no_such_module", "f", None),
    ))
    with tracer.active("op0"):
        assert module.outer(3) == 8
    assert module.inner is original_inner
    assert tracer.absent == ["fake.gone", "fake.no_module"]
    names = [(s.name, s.parent, s.run_id, s.size) for s in tracer.spans]
    assert names == [("fake.outer", -1, "op0", 0), ("fake.inner", 0, "op0", 3)]
    outer_self, _ = self_times(tracer.spans)
    outer, inner = tracer.spans
    assert abs(outer_self - ((outer.end - outer.start) - (inner.end - inner.start))) < 1e-12


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(5))) is None
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(1000))) == (99.0, 989)
    assert run.tail_percentile(list(range(10_010)))[0] == 99.9


def _report(x_fix, m_d=0.0, infill="level-matched") -> dict:
    baseline = {"x_fix": x_fix, "metrics": {"m_d": m_d, "m_omega": 0.0}}
    guided = {"x_fix": x_fix, "metrics": {"m_d": m_d, "m_omega": -1.0}}
    return {
        "config": {"repair": {"infill_mode": infill}},
        "n_instances": 1,
        "instances": [{"instance_id": 0, "baseline": baseline, "guided": guided}],
        "delta_percent": {"m_omega": 100.0, "m_s": 5.0, "m_d": 0.0},
    }


def _write(tmp_path, payload) -> None:
    # json.dump writes NaN and Infinity unless told not to, as the program's writers do.
    (tmp_path / "report.json").write_text(json.dumps(payload), encoding="utf-8")


def test_checker_accepts_a_good_report(tmp_path):
    _write(tmp_path, _report([0.5, -2.0]))
    report, reasons = checks.read_report(tmp_path)
    assert reasons == [] and report["n_instances"] == 1
    assert checks.summarize(report) == {
        "n_instances": 1, "delta_percent": {"m_omega": 100.0, "m_s": 5.0}, "diverged": 0, "guided_wins": 1,
    }
    assert checks.summarize({"instances": []}) is None


def test_checker_rejects_nan_in_report(tmp_path):
    _write(tmp_path, _report([float("nan"), 0.0]))
    report, reasons = checks.read_report(tmp_path)
    assert report is None
    assert len(reasons) == 1 and "NaN" in reasons[0]


def test_checker_rejects_diverged_x_fix(tmp_path):
    _write(tmp_path, _report([0.0, 1e149]))
    report, reasons = checks.read_report(tmp_path)
    assert len(reasons) == 2 and all("x_fix" in r for r in reasons)
    assert checks.summarize(report)["diverged"] == 2


def test_checker_rejects_moved_unmasked_features_only_when_level_matched():
    assert checks.check_report(_report([0.0], m_d=0.25))
    assert not checks.check_report(_report([0.0], m_d=0.25, infill="paper-literal"))


def test_same_bytes_names_differing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, text in ((a, "x"), (b, "y")):
        d.mkdir()
        (d / "same.csv").write_text("1\n")
        (d / "report.json").write_text(text)
    assert checks.same_bytes(a, b, ["same.csv"]) == []
    assert checks.same_bytes(a, b, ["same.csv", "report.json"]) == ["report.json differs between a and b"]
