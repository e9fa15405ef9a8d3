"""Checks on what the arpro commands write.

Each check returns a list of reasons; an empty list means the output passed.
The benchmark counts an operation as failed when its command exits non-zero
or any check on its output gives a reason, and it prints every reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# A repair whose x_fix leaves this box (in standardized units) has diverged.
X_FIX_BOUND = 1e3


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def load_strict_json(path) -> dict:
    """Parse a JSON file, rejecting NaN, Infinity and -Infinity."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def diverged(x_fix, bound: float = X_FIX_BOUND) -> bool:
    """True when a repair's x_fix is non-finite or leaves [-bound, bound]."""
    return not all(isinstance(v, (int, float)) and math.isfinite(v) and abs(v) <= bound for v in x_fix)


def check_report(report: dict) -> list[str]:
    """Reasons a parsed report.json is wrong: diverged repairs, moved unmasked features."""
    reasons = []
    instances = report.get("instances")
    if not instances or report.get("n_instances") != len(instances):
        return [f"report lists {len(instances or [])} instances, n_instances={report.get('n_instances')}"]
    level_matched = report["config"]["repair"]["infill_mode"] == "level-matched"
    for inst in instances:
        for arm in ("baseline", "guided"):
            result = inst[arm]
            where = f"instance {inst['instance_id']} {arm}"
            if diverged(result["x_fix"]):
                reasons.append(f"{where}: x_fix non-finite or beyond {X_FIX_BOUND:g}")
            # Level-matched infill copies x_bad exactly outside the mask at t=1.
            if level_matched and result["metrics"]["m_d"] != 0.0:
                reasons.append(f"{where}: m_d={result['metrics']['m_d']!r} under level-matched infill")
    return reasons


def summarize(report: dict) -> dict | None:
    """The few numbers the benchmark keeps from a parsed report.json, or None
    when the report lacks them."""
    try:
        pairs = [(inst["baseline"], inst["guided"]) for inst in report["instances"]]
        return {
            "n_instances": report["n_instances"],
            "delta_percent": {key: report["delta_percent"][key] for key in ("m_omega", "m_s")},
            "diverged": sum(diverged(arm["x_fix"]) for pair in pairs for arm in pair),
            "guided_wins": sum(g["metrics"]["m_omega"] < b["metrics"]["m_omega"] for b, g in pairs),
        }
    except (KeyError, TypeError):
        return None


def read_report(directory) -> tuple[dict | None, list[str]]:
    """Parse and check `report.json` in an evaluate output directory."""
    path = Path(directory) / "report.json"
    try:
        report = load_strict_json(path)
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]
    try:
        return report, check_report(report)
    except (KeyError, TypeError) as exc:
        return None, [f"{path.name} lacks the expected layout: {type(exc).__name__}: {exc}"]


def same_bytes(dir_a, dir_b, names) -> list[str]:
    """Reasons the named files differ between two output directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    reasons = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            reasons.append(f"{name} differs between {dir_a.name} and {dir_b.name}")
    return reasons


def same_tree(dir_a, dir_b) -> list[str]:
    """Reasons two output trees differ: a file missing from one, or differing bytes."""
    a, b = Path(dir_a), Path(dir_b)
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    others = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    reasons = [f"{name} is in only one of {a.name} and {b.name}" for name in sorted(names ^ others)]
    return reasons + same_bytes(a, b, sorted(names & others))


def check_checkpoints(directory, detector: bool, denoiser: bool) -> list[str]:
    """Reasons the checkpoints in `directory` do not load back."""
    from arpro.detector import load_detector
    from arpro.diffusion import Denoiser

    reasons = []
    for wanted, name, load in ((detector, "detector.json", load_detector), (denoiser, "denoiser.json", Denoiser.load)):
        if not wanted:
            continue
        try:
            load(Path(directory) / name)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons.append(f"{name} does not load: {type(exc).__name__}: {exc}")
    return reasons
