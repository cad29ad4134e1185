"""Text, JSON, and SARIF report rendering."""

import json

import repro
from repro.analysis import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    Finding,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.project.baseline import fingerprint


def _sample_findings():
    return [
        Finding(
            path="src/repro/core/x.py", line=3, column=0,
            rule_id="RNG-001", message="global state",
        ),
        Finding(
            path="src/repro/core/x.py", line=9, column=4,
            rule_id="PRIV-001", message="raw records",
        ),
        Finding(
            path="src/repro/stream/y.py", line=1, column=0,
            rule_id="RNG-001", message="global state",
        ),
    ]


class TestText:
    def test_clean_summary(self):
        assert render_text([]) == "0 findings — clean"

    def test_findings_render_one_line_each_plus_summary(self):
        text = render_text(_sample_findings())
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "src/repro/core/x.py:3:0: RNG-001 global state"
        assert "3 finding(s), 0 error(s)" in lines[-1]
        assert "RNG-001: 2" in lines[-1]
        assert "PRIV-001: 1" in lines[-1]

    def test_errors_render_and_count(self):
        text = render_text([], errors=["bad.py: invalid syntax"])
        assert "error: bad.py: invalid syntax" in text
        assert "0 finding(s), 1 error(s)" in text


class TestJson:
    def test_schema(self):
        document = json.loads(
            render_json(_sample_findings(), errors=["bad.py: boom"])
        )
        assert document["schema_version"] == JSON_SCHEMA_VERSION
        assert set(document) == {
            "schema_version", "summary", "findings", "errors",
        }
        assert document["summary"] == {
            "files_with_findings": 2,
            "total": 3,
            "by_rule": {"PRIV-001": 1, "RNG-001": 2},
            "suppressed": {},
            "suppressed_total": 0,
            "baselined": 0,
        }
        assert document["errors"] == ["bad.py: boom"]
        first = document["findings"][0]
        assert set(first) == {"path", "line", "column", "rule_id", "message"}
        assert first["line"] == 3

    def test_zero_filled_by_rule_and_extras(self):
        document = json.loads(render_json(
            _sample_findings(),
            suppressed={"PRIV-001": 2},
            baselined=4,
            rules_run=["RNG-001", "PRIV-001", "PRIV-003"],
            stats={"total_files": 3, "analyzed_files": 3},
        ))
        assert document["summary"]["by_rule"] == {
            "PRIV-001": 1, "PRIV-003": 0, "RNG-001": 2,
        }
        assert document["summary"]["suppressed_total"] == 2
        assert document["summary"]["baselined"] == 4
        assert document["stats"] == {
            "total_files": 3, "analyzed_files": 3,
        }

    def test_trace_round_trips(self):
        finding = Finding(
            path="src/repro/cli.py", line=5, column=0,
            rule_id="PRIV-003", message="leak",
            trace=("from a", "to b"),
        )
        document = json.loads(render_json([finding]))
        assert document["findings"][0]["trace"] == ["from a", "to b"]
        text = render_text([finding])
        assert "    from a\n    to b" in text

    def test_clean_document(self):
        document = json.loads(render_json([]))
        assert document["summary"]["total"] == 0
        assert document["findings"] == []
        assert document["errors"] == []


class TestSarif:
    def test_envelope_is_valid_sarif_2_1_0(self):
        document = json.loads(render_sarif(_sample_findings()))
        assert document["version"] == SARIF_VERSION == "2.1.0"
        assert document["$schema"].endswith("sarif-2.1.0.json")
        [run] = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert driver["version"] == repro.__version__

    def test_results_carry_locations_and_fingerprints(self):
        findings = _sample_findings()
        document = json.loads(render_sarif(findings))
        [run] = document["runs"]
        results = run["results"]
        assert len(results) == len(findings)
        first, finding = results[0], findings[0]
        assert first["ruleId"] == finding.rule_id
        assert first["level"] == "error"
        assert first["message"]["text"] == finding.message
        [location] = first["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        # SARIF columns are 1-based; Finding columns are 0-based.
        assert region["startColumn"] == finding.column + 1
        assert first["partialFingerprints"]["reproLint/v1"] \
            == fingerprint(finding)

    def test_rule_metadata_indexes_results(self):
        findings = _sample_findings()
        document = json.loads(render_sarif(
            findings, rules_run=["RNG-001", "PRIV-001"],
        ))
        [run] = document["runs"]
        rules = run["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        assert set(ids) == {"RNG-001", "PRIV-001"}
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]

    def test_trace_folds_into_the_message(self):
        finding = Finding(
            path="src/repro/cli.py", line=5, column=0,
            rule_id="PRIV-003", message="leak",
            trace=("from a", "to b"),
        )
        document = json.loads(render_sarif([finding]))
        text = document["runs"][0]["results"][0]["message"]["text"]
        assert "leak" in text
        assert "from a" in text and "to b" in text

    def test_errors_become_tool_notifications(self):
        document = json.loads(
            render_sarif([], errors=["bad.py: invalid syntax"])
        )
        [invocation] = document["runs"][0]["invocations"]
        assert invocation["executionSuccessful"] is False
        [note] = invocation["toolExecutionNotifications"]
        assert note["message"]["text"] == "bad.py: invalid syntax"

    def test_clean_run_is_successful_with_properties(self):
        document = json.loads(render_sarif(
            [], suppressed={"THR-003": 2}, baselined=1,
            stats={"total_files": 3, "analyzed_files": 3},
        ))
        [run] = document["runs"]
        assert run["results"] == []
        [invocation] = run["invocations"]
        assert invocation["executionSuccessful"] is True
        assert run["properties"]["suppressed"] == {"THR-003": 2}
        assert run["properties"]["baselined"] == 1
        assert run["properties"]["stats"] == {
            "total_files": 3, "analyzed_files": 3,
        }

    def test_windows_paths_normalize_to_uri_slashes(self):
        finding = Finding(
            path="src\\repro\\core\\x.py", line=1, column=0,
            rule_id="RNG-001", message="global state",
        )
        document = json.loads(render_sarif([finding]))
        [result] = document["runs"][0]["results"]
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert "\\" not in uri
