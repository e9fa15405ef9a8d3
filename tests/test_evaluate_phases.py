import importlib.util
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "evaluate_phases.py"
_spec = importlib.util.spec_from_file_location("evaluate_phases", TOOL)
evaluate_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evaluate_phases)


def test_uncalled_names_each_wrapped_function_not_called():
    class Step:
        def grad(self):
            return 2

    module = types.ModuleType("fake.repair")
    module.predict_mu = lambda: 1
    phases = evaluate_phases.Phases()
    phases.wrap(module, "predict_mu", "predict_mu")
    phases.wrap(Step, "grad", "guidance")
    assert phases.uncalled() == ["fake.repair.predict_mu", f"{__name__}.Step.grad"]
    assert Step().grad() == 2
    assert phases.uncalled() == ["fake.repair.predict_mu"]
    assert module.predict_mu() == 1
    assert phases.uncalled() == []
    assert phases.seconds["guidance"] > 0.0 and phases.seconds["repair"] == 0.0
