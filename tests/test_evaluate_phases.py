import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("evaluate_phases", ROOT / "tools" / "evaluate_phases.py")
evaluate_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evaluate_phases)
sys.path.insert(0, str(ROOT / "perfbench"))  # as the tool imports it
import spans  # noqa: E402


def test_every_phase_target_is_named_and_timed():
    assert set(evaluate_phases.PHASE_OF.values()) == set(evaluate_phases.PHASES) - {"repair_other"}
    names = [name for name, *_ in evaluate_phases.make_tracer(spans).targets]
    assert names == list(evaluate_phases.PHASE_OF)


def test_uncalled_names_each_wrapped_function_not_called(monkeypatch):
    class Step:
        def grad(self):
            return 2

    module = types.ModuleType("fake_repair")
    module.predict_mu = lambda: 1
    module.Step = Step
    monkeypatch.setitem(sys.modules, "fake_repair", module)
    targets = [("predict_mu", "fake_repair", "predict_mu"), ("guidance", "fake_repair", "Step.grad"),
               ("guidance", "fake_repair", "Step.gone")]
    tracer = evaluate_phases.make_tracer(spans, targets)
    grad = vars(Step)["grad"]
    with tracer.active("warm-up"):
        assert module.predict_mu() == 1
    with tracer.active("measured"):
        assert Step().grad() == 2
    assert vars(Step)["grad"] is grad  # put back when the block closed
    assert [span.name for span in tracer.spans] == ["fake_repair.predict_mu", "fake_repair.Step.grad"]
    with pytest.raises(SystemExit, match=r"never called during the measured evaluates: "
                                         r"fake_repair\.predict_mu, fake_repair\.Step\.gone$"):
        evaluate_phases.require_called(tracer, "measured")
    with tracer.active("measured"):
        module.predict_mu()
    with pytest.raises(SystemExit, match=r"evaluates: fake_repair\.Step\.gone$"):
        evaluate_phases.require_called(tracer, "measured")
