"""reprolint: rules, suppressions, baseline and reporter behaviour.

Each rule is exercised on a bad/good fixture pair under
``tests/analysis/fixtures`` (the directory is excluded from the repo's
own lint run); the engine-level tests cover inline suppressions, the
content-fingerprint baseline lifecycle, the JSON reporter schema and
the CLI exit codes.
"""

import json
from pathlib import Path

import pytest

from reprolint import (
    Baseline,
    Config,
    Finding,
    all_rules,
    fingerprint,
    lint_paths,
    render_json,
)
from reprolint.cli import main, run

FIXTURES = Path(__file__).parent / "fixtures"

ALL_IDS = ("RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP007",
           "RP008")


def lint_fixture(name, select):
    """Lint one fixture with the given rules, scope restrictions lifted."""
    config = Config(rules={rule_id: {"scope": []} for rule_id in ALL_IDS})
    findings, suppressed, files = lint_paths(
        [str(FIXTURES / name)], all_rules(list(select)), config)
    assert files == 1
    return findings, suppressed


# ----------------------------------------------------------------------
# the rule battery, one bad/good pair each
# ----------------------------------------------------------------------

def test_rp001_flags_dtype_less_constructors():
    findings, _ = lint_fixture("rp001_bad.py", ["RP001"])
    assert [f.rule for f in findings] == ["RP001", "RP001"]
    assert "np.zeros()" in findings[0].message
    assert "np.asarray()" in findings[1].message
    assert "float64" in findings[0].message


def test_rp001_clean_on_explicit_dtypes():
    findings, _ = lint_fixture("rp001_good.py", ["RP001"])
    assert findings == []


def test_rp002_flags_all_three_promotion_patterns():
    findings, _ = lint_fixture("rp002_bad.py", ["RP002"])
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 5
    assert "explicit float64 promotion" in messages
    assert "float64 numpy scalar" in messages
    assert "copy=False" in messages


def test_rp002_flags_ufuncs_over_constant_expressions():
    # np.sqrt(2.0 / np.pi) and np.exp(-0.5 * np.e) are float64 numpy
    # scalars just like np.log(10000.0); the math-module constant and
    # the ufunc over a runtime name in the good fixture stay clean.
    findings, _ = lint_fixture("rp002_bad.py", ["RP002"])
    scalars = [f for f in findings if "float64 numpy scalar" in f.message]
    assert sorted(f.message.split("(")[0] for f in scalars) == [
        "np.exp", "np.log", "np.sqrt"]
    assert 6 in [f.line for f in scalars]    # GELU_C = np.sqrt(2.0 / np.pi)


def test_rp002_clean_on_policy_dtype_compute():
    findings, _ = lint_fixture("rp002_good.py", ["RP002"])
    assert findings == []


def test_rp003_flags_rebind_and_mutation():
    findings, _ = lint_fixture("rp003_bad.py", ["RP003"])
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("rebind" in message for message in messages)
    assert any("in-place mutation" in message for message in messages)


def test_rp003_clean_on_contract_paths():
    # step/load_state_dict by name; refresh directly and swap transitively
    # reach a plan validator on the intra-module call graph.
    findings, _ = lint_fixture("rp003_good.py", ["RP003"])
    assert findings == []


def test_rp004_flags_impure_pool_worker():
    findings, _ = lint_fixture("rp004_bad.py", ["RP004"])
    assert len(findings) == 1
    assert "worker" in findings[0].message
    assert "3-phase" in findings[0].message


def test_rp004_clean_on_three_phase_fanout():
    findings, _ = lint_fixture("rp004_good.py", ["RP004"])
    assert findings == []


def test_rp005_flags_contractless_buffer_apis():
    findings, _ = lint_fixture("rp005_bad.py", ["RP005"])
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("no docstring" in message for message in messages)
    assert any("states no shape/dtype contract" in message
               for message in messages)


def test_rp005_clean_on_documented_and_private():
    findings, _ = lint_fixture("rp005_good.py", ["RP005"])
    assert findings == []


def test_rp006_flags_per_entity_state_calls_in_loops():
    findings, _ = lint_fixture("rp006_bad.py", ["RP006"])
    messages = [f.message for f in findings]
    assert [f.line for f in findings] == [6, 10, 15, 19]
    assert "put_state()" in messages[0]
    assert "backend.get()" in messages[1]
    assert "backend.put()" in messages[2]
    assert "state_of()" in messages[3]
    assert all("gather()/scatter()" in message for message in messages)


def test_rp006_clean_on_batch_calls():
    # gather/scatter in loops, per-entity calls outside loops, a cache's
    # put and a loop's once-evaluated iterable are all fine.
    findings, _ = lint_fixture("rp006_good.py", ["RP006"])
    assert findings == []


def test_rp007_flags_steps_and_clipping_outside_the_driver():
    findings, _ = lint_fixture("rp007_bad.py", ["RP007"])
    messages = [f.message for f in findings]
    assert [f.line for f in findings] == [9, 12, 17, 18]
    assert "FusedTrainStep()" in messages[0] and "build_step()" in messages[0]
    assert "clip_grad_norm()" in messages[1]
    assert "apply_update()" in messages[1]
    assert "clip_grad_norm()" in messages[2]
    assert "FusedTrainStep()" in messages[3]


def test_rp007_clean_through_the_driver():
    # build_step/apply_update calls and a non-call FusedTrainStep use.
    findings, _ = lint_fixture("rp007_good.py", ["RP007"])
    assert findings == []


def test_rp007_allows_the_driver_module():
    config = Config(rules={"RP007": {"scope": [],
                                     "allowed_modules": ["rp007_bad.py"]}})
    findings, _, files = lint_paths([str(FIXTURES / "rp007_bad.py")],
                                    all_rules(["RP007"]), config)
    assert files == 1
    assert findings == []


def test_rp008_flags_per_entity_objects_on_batch_paths():
    findings, _ = lint_fixture("rp008_bad.py", ["RP008"])
    messages = [f.message for f in findings]
    assert sorted(f.line for f in findings) == [7, 13, 13, 17, 18]
    assert sum(".sequences" in message for message in messages) == 1
    assert sum(".offsets" in message for message in messages) == 1
    assert sum(".columns" in message for message in messages) == 1
    assert sum("EventSequence()" in message for message in messages) == 2
    assert all("collate(dataset, rows=" in message for message in messages)


def test_rp008_clean_on_table_gathers():
    # collate by rows, lengths()/ids/labels reads, an isinstance check
    # and an attribute store named like a layout field.
    findings, _ = lint_fixture("rp008_good.py", ["RP008"])
    assert findings == []


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------

def test_suppression_markers_same_line_standalone_and_whole_file():
    findings, suppressed = lint_fixture("suppressed.py",
                                        ["RP001", "RP005"])
    # one unsuppressed leak; one same-line, one standalone-above and one
    # whole-file (RP005) marker each swallow a finding.
    assert [f.rule for f in findings] == ["RP001"]
    assert "np.asarray(mask)" in findings[0].line_text
    assert suppressed == 3


# ----------------------------------------------------------------------
# baseline lifecycle
# ----------------------------------------------------------------------

def _finding(line=5, text="    return np.zeros((0, dim))"):
    return Finding(rule="RP001", path="pkg/mod.py", line=line, col=12,
                   message="np.zeros() without dtype=", line_text=text)


def test_fingerprint_survives_line_shift_not_edits():
    shifted = fingerprint(_finding(line=50))
    assert fingerprint(_finding(line=5)) == shifted
    edited = _finding(text="    return np.zeros((0, dim), dtype=dt)")
    assert fingerprint(edited) != shifted


def test_baseline_roundtrip_match_and_stale(tmp_path):
    path = str(tmp_path / "baseline.json")
    first, second = _finding(), _finding(line=9)  # identical line text
    Baseline(path=path).write([first, second])

    baseline = Baseline.load(path)
    new, matched, stale = baseline.split([first, second])
    assert (new, len(matched), stale) == ([], 2, [])

    # one occurrence fixed: its baseline entry goes stale
    new, matched, stale = baseline.split([first])
    assert new == [] and len(matched) == 1 and len(stale) == 1

    # the offending line edited: resurfaces as a new finding
    edited = _finding(text="    return np.empty((0, dim))")
    new, matched, stale = baseline.split([edited])
    assert [f.line_text for f in new] == [edited.line_text]


def test_baseline_missing_file_is_empty_and_version_checked(tmp_path):
    assert Baseline.load(str(tmp_path / "absent.json")).entries == []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(str(bad))


# ----------------------------------------------------------------------
# JSON reporter schema
# ----------------------------------------------------------------------

def test_json_reporter_schema_roundtrip():
    findings, suppressed = lint_fixture("rp001_bad.py", ["RP001"])
    result = {"findings": findings, "baselined": 0,
              "suppressed": suppressed, "stale_baseline": [],
              "files": 1, "baseline_path": "<none>"}
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["tool"] == "reprolint"
    assert payload["summary"] == {"files": 1, "findings": 2, "baselined": 0,
                                  "suppressed": 0, "stale_baseline": 0}
    assert [entry["rule"] for entry in payload["findings"]] == ["RP001",
                                                                "RP001"]
    assert set(payload["findings"][0]) == {"rule", "path", "line", "col",
                                           "severity", "message"}


# ----------------------------------------------------------------------
# CLI: exit codes, config, baseline flow
# ----------------------------------------------------------------------

def _write_project(tmp_path):
    """A throwaway project: unrestricted-scope config + one bad module."""
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[tool.reprolint]\n'
        'baseline = "%s"\n'
        '[tool.reprolint.rules.RP001]\n'
        'scope = []\n' % (tmp_path / "baseline.json").as_posix()
    )
    bad = tmp_path / "mod.py"
    bad.write_text("import numpy as np\n\n\ndef f(dim):\n"
                   "    return np.zeros((0, dim))\n")
    return str(pyproject), str(bad)


def test_cli_exit_one_on_findings_zero_after_baseline(tmp_path, capsys):
    pyproject, bad = _write_project(tmp_path)
    assert main([bad, "--config", pyproject, "--select", "RP001"]) == 1
    assert "RP001" in capsys.readouterr().out

    assert main([bad, "--config", pyproject, "--select", "RP001",
                 "--write-baseline"]) == 0
    assert main([bad, "--config", pyproject, "--select", "RP001"]) == 0
    capsys.readouterr()

    # --no-baseline reports the grandfathered finding again
    assert main([bad, "--config", pyproject, "--select", "RP001",
                 "--no-baseline"]) == 1


def test_cli_json_format_and_usage_error(tmp_path, capsys):
    pyproject, bad = _write_project(tmp_path)
    status = main([bad, "--config", pyproject, "--select", "RP001",
                   "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["summary"]["findings"] == 1
    assert main([]) == 2  # no paths


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_IDS:
        assert rule_id in out


def test_run_skips_out_of_scope_files(tmp_path):
    pyproject, bad = _write_project(tmp_path)
    config = tmp_path / "scoped.toml"
    config.write_text('[tool.reprolint.rules.RP001]\n'
                      'scope = ["src/repro/runtime/"]\n')
    result, status = run([bad], config_path=str(config), select=["RP001"],
                         use_baseline=False)
    assert (status, result["findings"]) == (0, [])
