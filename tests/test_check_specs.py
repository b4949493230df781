"""The paper-matrix gate of ``scripts/check_specs.py``: the expansion of
``experiments/paper.toml`` must equal the committed golden list."""

import copy
import json

import pytest

from repro.spec import expand_spec_file, triple_keys_of
from scripts import check_specs
from scripts.check_specs import GOLDEN, compare_golden


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def expansion() -> tuple[list[str], list[str]]:
    cells = expand_spec_file("experiments/paper.toml")
    return triple_keys_of(cells), [cell.digest() for cell in cells]


def tampered(golden: dict, field: str, how: str) -> dict:
    """The golden list with exactly one entry added, dropped, moved or edited."""
    out = copy.deepcopy(golden)
    entries = out[field]
    if how == "add":
        entries.insert(5, entries[5])
    elif how == "drop":
        del entries[-1]
    elif how == "reorder":
        entries[3], entries[4] = entries[4], entries[3]
    else:
        entries[7] = entries[7][::-1]
    return out


def test_expansion_equals_golden(golden, expansion):
    assert len(golden["labels"]) == 130
    assert len(golden["digests"]) == 2340
    assert compare_golden(golden, *expansion) == []


@pytest.mark.parametrize("how", ["add", "drop", "reorder", "edit"])
@pytest.mark.parametrize("field", ["labels", "digests"])
def test_one_entry_tamper_fails(golden, expansion, field, how):
    problems = compare_golden(tampered(golden, field, how), *expansion)
    assert any(field in problem for problem in problems)


def test_gate_exits_nonzero_on_a_tampered_list(golden, tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(tampered(golden, "digests", "reorder")))
    monkeypatch.setattr(check_specs, "GOLDEN", str(path))
    assert check_specs.main([]) == 1
    assert "digests differ from the golden list at index 3" in capsys.readouterr().err
