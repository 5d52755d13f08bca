"""The package root: its nine names and the README quick start."""

import json
import re
from pathlib import Path

import tokfix
from tokfix import decode

from helpers import NUMBER_MERGES, build_vocab, merges_text

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    "load_tokenizer",
    "encode",
    "decode",
    "check_consistency",
    "make_consistent_target",
    "read_dataset",
    "evaluate",
    "DatasetError",
    "TokenizerError",
}


def test_all_is_the_quick_start_surface():
    assert set(tokfix.__all__) == PUBLIC_NAMES
    assert len(tokfix.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(tokfix, name) is not None


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert "decode" in code.split(")", 1)[0]  # the import names decode

    (tmp_path / "vocab.json").write_text(json.dumps(build_vocab(NUMBER_MERGES)), encoding="utf-8")
    (tmp_path / "merges.txt").write_text(merges_text(NUMBER_MERGES), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)

    assert namespace["verdict"].status == "consistent_prefix_space"
    fix = namespace["fix"]
    assert decode(namespace["tok"], fix.target_ids) == " 1912"
    assert namespace["target"] == " 1912"
    span = fix.context_span
    assert namespace["enc"].ids[span.start : span.end] == fix.target_ids
