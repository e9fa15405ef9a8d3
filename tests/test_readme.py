import json
import re
from pathlib import Path

from arpro.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    """The README's Python example runs as written against the public API."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def _key_paths(payload, path=""):
    """The dotted path of every object key in a JSON document; list entries
    share one path, `[]`."""
    if isinstance(payload, dict):
        return {p for key, value in payload.items() for p in {f"{path}.{key}", *_key_paths(value, f"{path}.{key}")}}
    if isinstance(payload, list):
        return {p for value in payload for p in _key_paths(value, f"{path}[]")}
    return set()


def test_config_block_has_the_full_shape():
    """The README's "full shape" config block loads and spells every key of
    every section, and no other."""
    section = README.read_text(encoding="utf-8").split("### Configuration", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    ExperimentConfig.from_dict(block)
    assert _key_paths(block) == _key_paths(ExperimentConfig().to_dict())
