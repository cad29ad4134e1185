"""Tests for repro.cli — the command-line pipeline."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.io.csv import read_records, write_records


@pytest.fixture
def data_csv(tmp_path, rng):
    data = rng.normal(size=(150, 3))
    labels = (data[:, 0] > 0).astype(float)
    path = tmp_path / "data.csv"
    write_records(
        path, np.column_stack([data, labels]),
        feature_names=["a", "b", "c", "label"],
    )
    return path


class TestCondenseGenerate:
    def test_condense_writes_model(self, tmp_path, data_csv, capsys):
        model_path = tmp_path / "model.json"
        exit_code = main([
            "condense", str(data_csv), str(model_path), "--k", "10",
        ])
        assert exit_code == 0
        payload = json.loads(model_path.read_text())
        assert payload["k"] == 10
        assert payload["metadata"] == {}
        out = capsys.readouterr().out
        assert "150 records" in out

    def test_condense_with_shards_meets_privacy_level(
        self, tmp_path, data_csv, capsys
    ):
        model_path = tmp_path / "model.json"
        exit_code = main([
            "condense", str(data_csv), str(model_path), "--k", "10",
            "--shards", "3", "--workers", "1",
        ])
        assert exit_code == 0
        payload = json.loads(model_path.read_text())
        assert payload["k"] == 10
        assert all(
            group["count"] >= 10 for group in payload["groups"]
        )
        assert "achieved 10" in capsys.readouterr().out

    def test_shards_give_same_model_for_any_worker_count(
        self, tmp_path, data_csv
    ):
        payloads = []
        for workers in ("1", "2"):
            model_path = tmp_path / f"model_{workers}.json"
            main([
                "condense", str(data_csv), str(model_path),
                "--k", "10", "--strategy", "mdav",
                "--shards", "3", "--workers", workers,
            ])
            payloads.append(json.loads(model_path.read_text()))
        assert payloads[0]["groups"] == payloads[1]["groups"]

    def test_generate_from_model(self, tmp_path, data_csv):
        model_path = tmp_path / "model.json"
        release_path = tmp_path / "release.csv"
        main(["condense", str(data_csv), str(model_path), "--k", "10"])
        exit_code = main([
            "generate", str(model_path), str(release_path),
        ])
        assert exit_code == 0
        release, header = read_records(release_path)
        assert release.shape == (150, 4)

    def test_generate_deterministic_under_seed(self, tmp_path, data_csv):
        model_path = tmp_path / "model.json"
        main(["condense", str(data_csv), str(model_path), "--k", "10"])
        first = tmp_path / "r1.csv"
        second = tmp_path / "r2.csv"
        main(["generate", str(model_path), str(first), "--seed", "3"])
        main(["generate", str(model_path), str(second), "--seed", "3"])
        a, __ = read_records(first)
        b, __ = read_records(second)
        np.testing.assert_array_equal(a, b)


class TestAnonymize:
    def test_one_step_anonymize(self, tmp_path, data_csv):
        release_path = tmp_path / "release.csv"
        exit_code = main([
            "anonymize", str(data_csv), str(release_path), "--k", "10",
        ])
        assert exit_code == 0
        release, header = read_records(release_path)
        assert release.shape == (150, 4)
        assert header == ["a", "b", "c", "label"]

    def test_classwise_anonymize_preserves_labels(self, tmp_path,
                                                  data_csv):
        release_path = tmp_path / "release.csv"
        exit_code = main([
            "anonymize", str(data_csv), str(release_path),
            "--k", "10", "--target-column", "label",
        ])
        assert exit_code == 0
        release, header = read_records(release_path)
        assert header[-1] == "label"
        labels = release[:, -1]
        assert set(np.unique(labels).tolist()) <= {0.0, 1.0}
        original, __ = read_records(data_csv)
        original_counts = np.bincount(original[:, -1].astype(int))
        release_counts = np.bincount(labels.astype(int))
        np.testing.assert_array_equal(original_counts, release_counts)

    def test_missing_target_column_fails(self, tmp_path, data_csv,
                                         capsys):
        exit_code = main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--target-column", "nope",
        ])
        assert exit_code == 1
        assert "not found" in capsys.readouterr().err

    def test_mdav_strategy_accepted(self, tmp_path, data_csv):
        exit_code = main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--strategy", "mdav",
        ])
        assert exit_code == 0


class TestReport:
    def test_report_output(self, tmp_path, data_csv, capsys):
        release_path = tmp_path / "release.csv"
        main(["anonymize", str(data_csv), str(release_path), "--k", "10"])
        capsys.readouterr()
        exit_code = main([
            "report", str(data_csv), str(release_path),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "covariance compatibility" in out
        assert "KS" in out

    def test_report_dimension_mismatch(self, tmp_path, data_csv, rng,
                                       capsys):
        other = tmp_path / "other.csv"
        write_records(other, rng.normal(size=(10, 2)))
        exit_code = main(["report", str(data_csv), str(other)])
        assert exit_code == 1
        assert "attribute counts" in capsys.readouterr().err


class TestCoarsen:
    def test_coarsen_model(self, tmp_path, data_csv, capsys):
        model_path = tmp_path / "model.json"
        coarse_path = tmp_path / "coarse.json"
        main(["condense", str(data_csv), str(model_path), "--k", "10"])
        exit_code = main([
            "coarsen", str(model_path), str(coarse_path), "--k", "30",
        ])
        assert exit_code == 0
        from repro.io.model_store import load_model

        coarse = load_model(coarse_path)
        assert (coarse.group_sizes >= 30).all()
        assert coarse.total_count == 150

    def test_coarsen_invalid_target(self, tmp_path, data_csv, capsys):
        model_path = tmp_path / "model.json"
        main(["condense", str(data_csv), str(model_path), "--k", "10"])
        exit_code = main([
            "coarsen", str(model_path), str(tmp_path / "c.json"),
            "--k", "5",
        ])
        assert exit_code == 1
        assert "below" in capsys.readouterr().err


class TestDurableCli:
    @pytest.fixture
    def wal_dir(self, tmp_path, data_csv):
        directory = tmp_path / "wal"
        exit_code = main([
            "condense", str(data_csv), str(tmp_path / "model.json"),
            "--k", "10", "--checkpoint-dir", str(directory),
            "--fsync-every", "8", "--checkpoint-every", "64",
        ])
        assert exit_code == 0
        return directory

    def test_recover_writes_model(self, tmp_path, wal_dir, capsys):
        out_path = tmp_path / "recovered.json"
        exit_code = main(["recover", str(wal_dir), str(out_path)])
        assert exit_code == 0
        assert json.loads(out_path.read_text())["k"] == 10
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "position 150" in out

    def test_recover_dry_run_writes_nothing(self, wal_dir, capsys):
        before = {
            path.name: path.read_bytes()
            for path in sorted(wal_dir.iterdir())
        }
        exit_code = main(["recover", str(wal_dir), "--dry-run"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "dry run: would recover" in out
        assert "no model written" in out
        after = {
            path.name: path.read_bytes()
            for path in sorted(wal_dir.iterdir())
        }
        assert after == before

    def test_recover_dry_run_matches_real_recovery(
        self, tmp_path, wal_dir, capsys
    ):
        main(["recover", str(wal_dir), "--dry-run"])
        preview = capsys.readouterr().out
        out_path = tmp_path / "recovered.json"
        main(["recover", str(wal_dir), str(out_path)])
        actual = capsys.readouterr().out
        # Identical summary lines modulo the dry-run prefix.
        assert preview.splitlines()[0].replace(
            "dry run: would recover", "recovered"
        ) == actual.splitlines()[0]

    def test_recover_dry_run_survives_torn_tail(self, wal_dir, capsys):
        segments = sorted(wal_dir.glob("wal-*.log"))
        tail = segments[-1]
        torn = tail.read_bytes()[:-9]
        tail.write_bytes(torn)
        exit_code = main(["recover", str(wal_dir), "--dry-run"])
        assert exit_code == 0
        assert tail.read_bytes() == torn  # observed, not repaired

    def test_recover_without_output_or_dry_run_errors(
        self, wal_dir, capsys
    ):
        exit_code = main(["recover", str(wal_dir)])
        assert exit_code == 2
        assert "output model path" in capsys.readouterr().err

    def test_wal_inspect_text_table(self, wal_dir, capsys):
        exit_code = main(["wal-inspect", str(wal_dir)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "seq" in out and "status" in out
        assert "bootstrap" in out
        assert "beyond the durable frontier" in out

    def test_wal_inspect_json_frames(self, wal_dir, capsys):
        exit_code = main(["wal-inspect", str(wal_dir), "--json"])
        assert exit_code == 0
        frames = json.loads(capsys.readouterr().out)
        assert frames[0]["seq"] == 1
        assert frames[0]["status"] == "ok"
        assert frames[0]["offset"] == 0
        assert {"segment", "length", "crc_ok", "kind"} <= set(frames[0])

    def test_wal_inspect_reports_torn_frames(self, wal_dir, capsys):
        tail = sorted(wal_dir.glob("wal-*.log"))[-1]
        tail.write_bytes(tail.read_bytes()[:-5])
        main(["wal-inspect", str(wal_dir), "--json"])
        frames = json.loads(capsys.readouterr().out)
        assert frames[-1]["status"] == "torn"
        assert frames[-1]["crc_ok"] is False

    def test_wal_inspect_missing_directory_errors(
        self, tmp_path, capsys
    ):
        exit_code = main(["wal-inspect", str(tmp_path / "absent")])
        assert exit_code == 1
        assert "no WAL segments" in capsys.readouterr().err


class TestAttack:
    def test_attack_output(self, data_csv, capsys):
        exit_code = main(["attack", str(data_csv), "--k", "10"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "record-linkage attack" in out
        assert "attribute-disclosure attack" in out
        assert "label" in out


class TestTelemetryFlags:
    def test_metrics_out_is_valid_prometheus(self, tmp_path, data_csv):
        metrics_path = tmp_path / "run.prom"
        exit_code = main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--metrics-out", str(metrics_path),
        ])
        assert exit_code == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_condense_records_total counter" in text
        assert "repro_condense_records_total 150.0" in text
        assert 'repro_condense_group_size_bucket{le="+Inf"}' in text
        # Every non-comment line is "name{labels} value".
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_")
            float(value)

    def test_trace_out_is_json_lines(self, tmp_path, data_csv):
        from repro.telemetry import read_events

        trace_path = tmp_path / "run.jsonl"
        exit_code = main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--trace-out", str(trace_path),
        ])
        assert exit_code == 0
        events = read_events(trace_path)
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "condense.create_groups" in names
        assert "generation.generate" in names
        assert events[-1]["type"] == "metrics"

    def test_telemetry_subcommand_summarizes(self, tmp_path, data_csv,
                                             capsys):
        trace_path = tmp_path / "run.jsonl"
        main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--trace-out", str(trace_path),
        ])
        capsys.readouterr()
        exit_code = main(["telemetry", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "condense.create_groups" in out
        assert "condense.records" in out

    def test_telemetry_subcommand_missing_file(self, tmp_path, capsys):
        exit_code = main(["telemetry", str(tmp_path / "nope.jsonl")])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_pipeline_restored_after_run(self, tmp_path, data_csv):
        from repro import telemetry
        from repro.telemetry import NULL_PIPELINE

        main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "--metrics-out", str(tmp_path / "m.prom"),
        ])
        assert telemetry.get_pipeline() is NULL_PIPELINE

    @pytest.mark.parametrize("flag, bounded", [
        (None, True), ("--metrics-out", True), ("--trace-out", False),
    ])
    def test_serve_keeps_spans_only_when_traced(self, tmp_path,
                                                monkeypatch, flag, bounded):
        import repro.serve
        from repro import telemetry
        from repro.cli import UNTRACED_SPAN_EVENTS

        buffered = []

        class StubServer:
            server_port = 0
            server_address = ("127.0.0.1", 0)

            def __init__(self, address, service, max_body_bytes):
                pass

            def serve_forever(self):
                for __ in range(1500):
                    with telemetry.span("probe"):
                        pass
                buffered.append(len(telemetry.get_pipeline()
                                    .finished_spans()))

            def server_close(self):
                pass

        monkeypatch.setattr(repro.serve, "AnonymizationHTTPServer",
                            StubServer)
        monkeypatch.setattr(repro.serve, "install_signal_handlers",
                            lambda server, service: None)
        argv = ["serve", "--port", "0"]
        if flag is not None:
            argv += [flag, str(tmp_path / "out")]
        try:
            assert main(argv) == 0
        finally:
            telemetry.disable()
        if bounded:
            assert buffered == [UNTRACED_SPAN_EVENTS]
        else:
            assert buffered[0] > 1500

    def test_no_flags_stays_on_null_pipeline(self, tmp_path, data_csv):
        from repro import telemetry
        from repro.telemetry import NULL_PIPELINE

        main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10",
        ])
        assert telemetry.get_pipeline() is NULL_PIPELINE


class TestVerbosityFlags:
    def test_quiet_and_verbose_accepted_after_subcommand(self, tmp_path,
                                                         data_csv):
        assert main([
            "anonymize", str(data_csv), str(tmp_path / "r1.csv"),
            "--k", "10", "--quiet",
        ]) == 0
        assert main([
            "anonymize", str(data_csv), str(tmp_path / "r2.csv"),
            "--k", "10", "-vv",
        ]) == 0

    def test_quiet_and_verbose_are_exclusive(self, tmp_path, data_csv):
        with pytest.raises(SystemExit):
            main([
                "anonymize", str(data_csv), str(tmp_path / "r.csv"),
                "--k", "10", "-q", "-v",
            ])

    def test_verbose_logs_progress(self, tmp_path, data_csv, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro"):
            main([
                "anonymize", str(data_csv), str(tmp_path / "r.csv"),
                "--k", "10", "-v",
            ])
        assert any("150 records" in record.message
                   for record in caplog.records)

    def test_quiet_suppresses_info(self, tmp_path, data_csv, caplog):
        main([
            "anonymize", str(data_csv), str(tmp_path / "r.csv"),
            "--k", "10", "-q",
        ])
        assert not [record for record in caplog.records
                    if record.name == "repro"
                    and record.levelname == "INFO"]
