"""Command-line interface for the condensation pipeline.

The subcommands mirror the deployment boundary of the paper's trust
model::

    repro condense  data.csv model.json --k 20      # trusted side
    repro generate  model.json release.csv          # either side
    repro anonymize data.csv release.csv --k 20     # both steps at once
    repro report    data.csv release.csv            # utility check
    repro recover   waldir/ model.json              # crash recovery
    repro recover   waldir/ --dry-run               # preview, read-only
    repro wal-inspect waldir/                       # frame-by-frame dump
    repro serve     --port 8000 --shards 4 --k 10   # HTTP service
    repro loadgen   http://127.0.0.1:8000           # serving benchmark
    repro lint      src/ tests/                     # static analysis
    repro telemetry trace.jsonl                     # summarize a trace

``anonymize`` accepts ``--target-column`` to run per-class condensation
(the paper's §2.3) and carry labels into the release.  ``condense`` and
``anonymize`` accept ``--shards`` / ``--workers`` to run condensation
on the sharded parallel engine (see ``docs/parallel.md``).  All
commands are deterministic under ``--seed``; sharded runs additionally
never depend on the worker count, only on the shard count.

``condense --checkpoint-dir DIR`` makes the run durable (see
``docs/durability.md``): without ``--shards`` the records are ingested
through a write-ahead-logged dynamic condenser that snapshots every
``--checkpoint-every`` operations; with ``--shards`` each completed
shard is checkpointed so an identical re-run resumes instead of
recomputing.  ``repro recover`` rebuilds the condensed model from a
durability directory after a crash; ``repro recover --dry-run``
previews the same rebuild without writing anything (not even the WAL
tail repair), and ``repro wal-inspect`` dumps the log frame by frame
with CRC status.  ``condense --fsync-every N`` batches WAL fsyncs
(group commit) for ingest throughput, and ``condense --batch-size N``
ingests the durable stream in vectorized blocks (one ``batch`` WAL
entry per block — see ``docs/api.md``).

``repro serve`` runs the long-lived anonymization service (see
``docs/serving.md``): a threading HTTP server over ``--shards``
durable condenser shards, each journaling to its own WAL under
``--checkpoint-dir`` so a restart recovers the exact pre-shutdown
model.  ``repro loadgen`` replays a UCI-twin stream against a running
server at ``--qps`` and writes per-endpoint latency percentiles to
``BENCH_serve.json``.

Every subcommand also accepts ``--metrics-out`` / ``--trace-out`` to
capture the run's telemetry (Prometheus text and JSON-lines span
events respectively — see ``docs/telemetry.md``), plus ``--quiet`` /
``--verbose`` to control logging.  Without the telemetry flags the
instrumented code paths run through the no-op pipeline.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from repro import telemetry
from repro.analysis.cli import add_lint_arguments, run_lint
from repro.core.coarsen import coarsen_model
from repro.core.condensation import create_condensed_groups
from repro.core.condenser import (
    ClasswiseCondenser,
    DynamicCondenser,
    StaticCondenser,
)
from repro.core.generation import generate_anonymized_data
from repro.evaluation.reporting import format_table
from repro.io.csv import read_records, write_records
from repro.io.model_store import load_model, save_model
from repro.privacy.attacks import (
    attribute_disclosure_attack,
    linkage_attack,
)
from repro.privacy.metrics import privacy_report
from repro.quality.report import utility_report
from repro.telemetry import write_events, write_prometheus
from repro.telemetry.summary import format_summary, summarize_trace

_logger = logging.getLogger("repro")

#: Finished-span buffer of a pipeline whose spans nobody exports (no
#: ``--trace-out``).  Metrics never read it, so a long-lived ``repro
#: serve`` keeps it small instead of holding the 100,000-event default.
UNTRACED_SPAN_EVENTS = 1000


def _build_common_parser() -> argparse.ArgumentParser:
    """Parent parser with the flags every subcommand shares."""
    common = argparse.ArgumentParser(add_help=False)
    observability = common.add_argument_group("observability")
    observability.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run metrics to PATH in Prometheus text format")
    observability.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write span events to PATH as JSON lines")
    verbosity = observability.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors")
    verbosity.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress (-v: info, -vv: debug)")
    return common


def _configure_logging(arguments) -> None:
    """Set the 'repro' logger level from the --quiet/--verbose flags."""
    if getattr(arguments, "quiet", False):
        level = logging.ERROR
    elif getattr(arguments, "verbose", 0) >= 2:
        level = logging.DEBUG
    elif getattr(arguments, "verbose", 0) == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    _logger.setLevel(level)
    # Tests invoke main() repeatedly in one process: attach the stream
    # handler only once.
    if not _logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(name)s %(levelname)s: %(message)s")
        )
        _logger.addHandler(handler)


def _add_condense_arguments(parser):
    parser.add_argument("--k", type=int, required=True,
                        help="indistinguishability level (minimum group "
                             "size)")
    parser.add_argument("--strategy", default="random",
                        choices=["random", "mdav", "kmeans"],
                        help="group seeding strategy (default: random, "
                             "the paper's)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    parser.add_argument("--shards", type=int, default=None,
                        metavar="N",
                        help="condense on the sharded parallel engine "
                             "with N locality-preserving shards "
                             "(default: serial)")
    parser.add_argument("--workers", type=int, default=None,
                        metavar="N",
                        help="worker-pool size for --shards (default: "
                             "one per shard, CPU-capped); implies "
                             "--shards N when --shards is omitted")


def _add_durability_arguments(parser):
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="make the run durable: WAL-journaled "
                             "ingest (serial) or per-shard result "
                             "checkpoints (--shards); recover with "
                             "'repro recover DIR'")
    parser.add_argument("--checkpoint-every", type=int, default=256,
                        metavar="N",
                        help="snapshot cadence for the durable ingest "
                             "path, in WAL entries (default: 256)")
    parser.add_argument("--fsync-every", type=int, default=1,
                        metavar="N",
                        help="group-commit batch: fsync the WAL every "
                             "N appends (default: 1 = every append; "
                             "larger values trade the newest N-1 "
                             "operations after a crash for ingest "
                             "throughput)")
    parser.add_argument("--batch-size", type=int, default=1,
                        metavar="N",
                        help="vectorized ingest block size for the "
                             "durable serial path: absorb N records "
                             "per distance matrix and journal one "
                             "'batch' WAL entry per block (default: "
                             "1 = record-at-a-time)")


def _condense_durable(arguments, data) -> int:
    """Durable serial condense: WAL-journaled dynamic ingest."""
    condenser = DynamicCondenser(
        arguments.k, strategy=arguments.strategy,
        random_state=arguments.seed,
        wal_dir=arguments.checkpoint_dir,
        checkpoint_every=arguments.checkpoint_every,
        fsync_every=arguments.fsync_every,
        batch_size=arguments.batch_size,
    )
    condenser.fit()
    condenser.partial_fit(data)
    condenser.checkpoint()
    condenser.close()
    save_model(arguments.output, condenser.model_)
    report = privacy_report(condenser.model_)
    print(f"condensed {condenser.model_.total_count} records into "
          f"{report.n_groups} groups "
          f"(k={arguments.k}, achieved {report.achieved_k})")
    print(f"durable state in {arguments.checkpoint_dir} "
          f"(position {condenser.position})")
    print(f"wrote model to {arguments.output}")
    return 0


def _command_condense(arguments) -> int:
    durable_serial = (
        arguments.checkpoint_dir is not None
        and arguments.shards is None and arguments.workers is None
    )
    if arguments.batch_size > 1 and not durable_serial:
        print("error: --batch-size applies to the durable serial path "
              "(--checkpoint-dir without --shards/--workers); static "
              "condensation already sees the whole database at once",
              file=sys.stderr)
        return 2
    data, __ = read_records(arguments.input)
    _logger.info("read %d records from %s", data.shape[0],
                 arguments.input)
    if durable_serial:
        return _condense_durable(arguments, data)
    condenser = StaticCondenser(
        arguments.k, strategy=arguments.strategy,
        random_state=arguments.seed,
        n_shards=arguments.shards, n_workers=arguments.workers,
        checkpoint_dir=arguments.checkpoint_dir,
    ).fit(data)
    save_model(arguments.output, condenser.model_)
    report = privacy_report(condenser.model_)
    print(f"condensed {condenser.model_.total_count} records into "
          f"{report.n_groups} groups "
          f"(k={arguments.k}, achieved {report.achieved_k})")
    print(f"wrote model to {arguments.output}")
    return 0


def _command_recover(arguments) -> int:
    from repro.durability import (
        DurabilityManager,
        RecoveryError,
        rebuild_maintainer,
        recovered_window,
    )
    from repro.durability.manager import _read_recovered

    if arguments.output is None and not arguments.dry_run:
        print("error: an output model path is required unless "
              "--dry-run is given", file=sys.stderr)
        return 2
    try:
        if arguments.dry_run:
            # Read-only: never opens the WAL for append, so a torn tail
            # is observed, not repaired, and the directory is untouched.
            __, recovered = _read_recovered(arguments.directory)
        else:
            manager = DurabilityManager(arguments.directory)
            try:
                recovered = manager.recover()
            finally:
                manager.close()
        maintainer, position = rebuild_maintainer(recovered)
    except RecoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    model = maintainer.to_model()
    source = ("snapshot + WAL tail"
              if recovered.snapshot_state is not None else "WAL only")
    mode = "dry run: would recover" if arguments.dry_run else "recovered"
    print(f"{mode} {model.n_groups} groups from {source} "
          f"(last WAL seq {recovered.last_seq}, "
          f"{len(recovered.entries)} tail entries)")
    print(f"resume the upstream feed from position {position}")
    window = recovered_window(recovered)
    if window is not None:
        print(f"sliding-window state: window={window}; re-feed the "
              f"last {min(position, window)} records via "
              "restore_window() before pushing")
    if arguments.dry_run:
        print("dry run: no model written, directory left untouched")
        return 0
    save_model(arguments.output, model)
    print(f"wrote model to {arguments.output}")
    return 0


def _command_wal_inspect(arguments) -> int:
    import json

    from repro.durability import inspect_frames, list_segments

    if not list_segments(arguments.directory):
        print(f"error: no WAL segments in {arguments.directory}",
              file=sys.stderr)
        return 1
    frames = list(inspect_frames(arguments.directory))
    if arguments.json:
        print(json.dumps(frames, indent=2))
        return 0
    rows = [
        [
            "-" if frame["seq"] is None else str(frame["seq"]),
            frame["status"],
            frame["kind"] or "-",
            frame["segment"],
            str(frame["offset"]),
            str(frame["length"]),
        ]
        for frame in frames
    ]
    print(format_table(
        ["seq", "status", "kind", "segment", "offset", "bytes"],
        rows,
        title=f"WAL frames in {arguments.directory}",
    ))
    unreplayable = sum(
        1 for frame in frames if frame["status"] != "ok"
    )
    print(f"{len(frames)} frames, {unreplayable} beyond the durable "
          "frontier")
    return 0


def _command_generate(arguments) -> int:
    model = load_model(arguments.model)
    anonymized = generate_anonymized_data(
        model, sampler=arguments.sampler, random_state=arguments.seed
    )
    write_records(arguments.output, anonymized)
    print(f"generated {anonymized.shape[0]} anonymized records "
          f"from {model.n_groups} groups into {arguments.output}")
    return 0


def _command_anonymize(arguments) -> int:
    data, header = read_records(arguments.input)
    _logger.info("read %d records from %s", data.shape[0],
                 arguments.input)
    if arguments.target_column is not None:
        if arguments.target_column not in header:
            print(f"error: column {arguments.target_column!r} not found "
                  f"in {arguments.input}", file=sys.stderr)
            return 1
        target_index = header.index(arguments.target_column)
        attribute_columns = [
            position for position in range(len(header))
            if position != target_index
        ]
        attributes = data[:, attribute_columns]
        labels = data[:, target_index]
        condenser = ClasswiseCondenser(
            arguments.k, strategy=arguments.strategy,
            sampler=arguments.sampler,
            small_class_policy="single_group",
            random_state=arguments.seed,
            n_shards=arguments.shards, n_workers=arguments.workers,
        )
        anonymized, anonymized_labels = condenser.fit_generate(
            attributes, labels
        )
        release = np.column_stack([anonymized, anonymized_labels])
        names = [header[position] for position in attribute_columns]
        names.append(arguments.target_column)
        write_records(arguments.output, release, feature_names=names)
        n_groups = sum(
            model.n_groups for model in condenser.models_.values()
        )
    else:
        condenser = StaticCondenser(
            arguments.k, strategy=arguments.strategy,
            sampler=arguments.sampler, random_state=arguments.seed,
            n_shards=arguments.shards, n_workers=arguments.workers,
        ).fit(data)
        anonymized = condenser.generate()
        write_records(arguments.output, anonymized, feature_names=header)
        n_groups = condenser.model_.n_groups
    print(f"anonymized {data.shape[0]} records via {n_groups} condensed "
          f"groups (k={arguments.k}) into {arguments.output}")
    return 0


def _command_report(arguments) -> int:
    original, __ = read_records(arguments.original)
    anonymized, __ = read_records(arguments.anonymized)
    if original.shape[1] != anonymized.shape[1]:
        print("error: the two files have different attribute counts",
              file=sys.stderr)
        return 1
    report = utility_report(original, anonymized)
    for line in report.summary_lines():
        print(line)
    return 0


def _command_coarsen(arguments) -> int:
    model = load_model(arguments.model)
    try:
        coarse = coarsen_model(model, arguments.k)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    save_model(arguments.output, coarse)
    print(f"coarsened {model.n_groups} groups (k={model.k}) into "
          f"{coarse.n_groups} groups (k={arguments.k}); "
          f"wrote {arguments.output}")
    return 0


def _command_attack(arguments) -> int:
    data, header = read_records(arguments.input)
    model = create_condensed_groups(
        data, arguments.k, random_state=arguments.seed
    )
    linkage = linkage_attack(data, model, random_state=arguments.seed)
    print(f"record-linkage attack at k={arguments.k}:")
    print(f"  group linkage rate:       "
          f"{linkage.group_linkage_rate:.4f}")
    print(f"  record disclosure:        "
          f"{linkage.expected_record_disclosure:.4f} "
          f"(bound 1/k = {1.0 / arguments.k:.4f})")
    print(f"  blind-guess baseline:     "
          f"{linkage.baseline_disclosure:.5f}")
    rows = []
    for attribute, name in enumerate(header):
        result = attribute_disclosure_attack(
            data, model, attribute=attribute,
            random_state=arguments.seed,
        )
        rows.append([
            name,
            f"{result.attack_error:.4f}",
            f"{result.baseline_error:.4f}",
            f"{result.relative_gain:.4f}",
        ])
    print()
    print(format_table(
        ["attribute", "attack error", "baseline error",
         "adversary gain"],
        rows,
        title="attribute-disclosure attack (per hidden attribute)",
    ))
    return 0


def _command_serve(arguments) -> int:
    from repro.serve import (
        AnonymizationHTTPServer,
        ShardedCondensationService,
        install_signal_handlers,
    )

    # /metrics needs a live registry even when no --metrics-out capture
    # was requested, so serving always runs on a real pipeline.
    if not telemetry.enabled():
        telemetry.configure(max_events=UNTRACED_SPAN_EVENTS)
    if arguments.checkpoint_dir is not None:
        service = ShardedCondensationService.open(
            arguments.checkpoint_dir, arguments.shards, arguments.k,
            strategy=arguments.strategy, sampler=arguments.sampler,
            bootstrap_size=arguments.bootstrap_size,
            checkpoint_every=arguments.checkpoint_every,
            fsync_every=arguments.fsync_every,
            random_state=arguments.seed,
        )
        if service.recovered_shards:
            _logger.info(
                "recovered %d/%d shards from %s (position %d)",
                service.recovered_shards, service.n_shards,
                arguments.checkpoint_dir, service.position,
            )
    else:
        service = ShardedCondensationService(
            arguments.shards, arguments.k,
            strategy=arguments.strategy, sampler=arguments.sampler,
            bootstrap_size=arguments.bootstrap_size,
            random_state=arguments.seed,
        )
    server = AnonymizationHTTPServer(
        (arguments.host, arguments.port), service,
        max_body_bytes=arguments.max_body_bytes,
    )
    install_signal_handlers(server, service)
    if arguments.port_file is not None:
        # Ephemeral-port coordination for tests/CI: publish the bound
        # port so callers using --port 0 can find the server.
        with open(arguments.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{server.server_port}\n")
    print(
        f"serving {service.n_shards} shard(s) at k={service.k} on "
        f"http://{server.server_address[0]}:{server.server_port} "
        f"(durable: {service.root is not None})"
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
    return 0


def _command_loadgen(arguments) -> int:
    from repro.serve import run_loadgen, write_report

    try:
        report = run_loadgen(
            arguments.url, dataset=arguments.dataset,
            duration_seconds=arguments.duration, qps=arguments.qps,
            batch_size=arguments.batch_size,
            generate_n=arguments.generate_n,
            random_state=arguments.seed, timeout=arguments.timeout,
        )
    except (RuntimeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    path = write_report(report, arguments.out)
    print(f"achieved {report['achieved_qps']} req/s "
          f"(target {report['target_qps']}) over "
          f"{report['duration_seconds']}s, "
          f"{report['n_failures']} failures")
    rows = [
        [endpoint, str(stats["n"]), f"{stats['p50_ms']:.2f}",
         f"{stats['p95_ms']:.2f}", f"{stats['p99_ms']:.2f}"]
        for endpoint, stats in report["endpoints"].items()
    ]
    print(format_table(
        ["endpoint", "requests", "p50 ms", "p95 ms", "p99 ms"],
        rows, title="latency per endpoint",
    ))
    print(f"wrote {path}")
    return 0


def _command_telemetry(arguments) -> int:
    try:
        summary = summarize_trace(arguments.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser.

    Returns
    -------
    argparse.ArgumentParser
        Parser with one subparser per subcommand; each sets a
        ``handler`` default taking the parsed namespace.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Condensation-based privacy preserving data mining.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Shared flags ride on every subparser (parents=), so they are
    # accepted after the subcommand token: repro condense ... -v
    common = _build_common_parser()

    condense = subparsers.add_parser(
        "condense", help="condense a CSV into group statistics (JSON)",
        parents=[common],
    )
    condense.add_argument("input", help="input CSV of numeric records")
    condense.add_argument("output", help="output model JSON")
    _add_condense_arguments(condense)
    _add_durability_arguments(condense)
    condense.set_defaults(handler=_command_condense)

    generate = subparsers.add_parser(
        "generate", help="generate anonymized records from a model",
        parents=[common],
    )
    generate.add_argument("model", help="model JSON from 'condense'")
    generate.add_argument("output", help="output CSV")
    generate.add_argument("--sampler", default="uniform",
                          choices=["uniform", "gaussian"],
                          help="per-eigenvector distribution "
                               "(default: uniform, the paper's)")
    generate.add_argument("--seed", type=int, default=0,
                          help="random seed (default: 0)")
    generate.set_defaults(handler=_command_generate)

    anonymize = subparsers.add_parser(
        "anonymize", help="condense and generate in one step",
        parents=[common],
    )
    anonymize.add_argument("input", help="input CSV of numeric records")
    anonymize.add_argument("output", help="output CSV of anonymized "
                                          "records")
    _add_condense_arguments(anonymize)
    anonymize.add_argument("--sampler", default="uniform",
                           choices=["uniform", "gaussian"],
                           help="per-eigenvector distribution")
    anonymize.add_argument("--target-column", default=None,
                           help="label column: condense per class and "
                                "keep labels in the release")
    anonymize.set_defaults(handler=_command_anonymize)

    report = subparsers.add_parser(
        "report", help="utility report of a release vs its original",
        parents=[common],
    )
    report.add_argument("original", help="original CSV")
    report.add_argument("anonymized", help="anonymized CSV")
    report.set_defaults(handler=_command_report)

    recover = subparsers.add_parser(
        "recover", help="rebuild a condensed model from a durability "
                        "directory (WAL + snapshots)",
        parents=[common],
    )
    recover.add_argument("directory",
                         help="durability directory written by a "
                              "wal_dir= condenser or "
                              "'condense --checkpoint-dir'")
    recover.add_argument("output", nargs="?", default=None,
                         help="output model JSON (optional with "
                              "--dry-run)")
    recover.add_argument("--dry-run", action="store_true",
                         help="report what recovery would rebuild "
                              "without writing a model or repairing "
                              "the WAL tail (fully read-only)")
    recover.set_defaults(handler=_command_recover)

    wal_inspect = subparsers.add_parser(
        "wal-inspect", help="dump a write-ahead log frame by frame "
                            "(seq, CRC status, entry kind, offsets)",
        parents=[common],
    )
    wal_inspect.add_argument(
        "directory", help="WAL directory (same layout as 'recover')"
    )
    wal_inspect.add_argument(
        "--json", action="store_true",
        help="emit the frame descriptors as a JSON array"
    )
    wal_inspect.set_defaults(handler=_command_wal_inspect)

    coarsen = subparsers.add_parser(
        "coarsen", help="raise a model's privacy level (merge groups)",
        parents=[common],
    )
    coarsen.add_argument("model", help="model JSON from 'condense'")
    coarsen.add_argument("output", help="output model JSON")
    coarsen.add_argument("--k", type=int, required=True,
                         help="target indistinguishability level")
    coarsen.set_defaults(handler=_command_coarsen)

    attack = subparsers.add_parser(
        "attack", help="red-team a data set's condensation at level k",
        parents=[common],
    )
    attack.add_argument("input", help="original CSV of numeric records")
    attack.add_argument("--k", type=int, required=True,
                        help="indistinguishability level to evaluate")
    attack.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    attack.set_defaults(handler=_command_attack)

    serve = subparsers.add_parser(
        "serve", help="run the anonymization HTTP service over durable "
                      "condenser shards",
        parents=[common],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8000)")
    serve.add_argument("--shards", type=int, default=4,
                       help="condenser shard count (default: 4)")
    serve.add_argument("--k", type=int, default=10,
                       help="indistinguishability level per shard "
                            "(default: 10)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="durability root: one WAL directory per "
                            "shard; restarting against the same DIR "
                            "recovers the exact pre-shutdown model")
    serve.add_argument("--checkpoint-every", type=int, default=256,
                       help="per-shard snapshot cadence in WAL entries, "
                            "one per request the shard takes part in "
                            "(default: 256)")
    serve.add_argument("--fsync-every", type=int, default=1,
                       help="per-shard WAL group-commit batch "
                            "(default: 1, fsync every entry)")
    serve.add_argument("--bootstrap-size", type=int, default=None,
                       help="records buffered before the shard router "
                            "is fitted (default: max(2*k*shards, "
                            "8*shards))")
    serve.add_argument("--strategy", default="random",
                       choices=["random", "mdav", "kmeans"],
                       help="group seeding strategy (default: random)")
    serve.add_argument("--sampler", default="uniform",
                       choices=["uniform", "gaussian"],
                       help="generation sampler (default: uniform)")
    serve.add_argument("--seed", type=int, default=0,
                       help="root seed for per-shard RNG streams "
                            "(default: 0)")
    serve.add_argument("--max-body-bytes", type=int,
                       default=8 * 1024 * 1024,
                       help="largest accepted /ingest body "
                            "(default: 8 MiB)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port to PATH after "
                            "binding (for --port 0 coordination)")
    serve.set_defaults(handler=_command_serve)

    loadgen = subparsers.add_parser(
        "loadgen", help="replay a UCI-twin stream against a running "
                        "server and write BENCH_serve.json",
        parents=[common],
    )
    loadgen.add_argument("url", help="server root URL, e.g. "
                                     "http://127.0.0.1:8000")
    loadgen.add_argument("--dataset", default="ionosphere",
                         help="twin dataset replayed as the stream "
                              "(default: ionosphere)")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="run length in seconds (default: 10)")
    loadgen.add_argument("--qps", type=float, default=50.0,
                         help="target request rate (default: 50)")
    loadgen.add_argument("--batch-size", type=int, default=1,
                         help="records per /ingest request "
                              "(default: 1)")
    loadgen.add_argument("--generate-n", type=int, default=32,
                         help="n for /generate probes (default: 32)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="dataset twin seed (default: 0)")
    loadgen.add_argument("--timeout", type=float, default=10.0,
                         help="per-request socket timeout in seconds "
                              "(default: 10)")
    loadgen.add_argument("--out", default="BENCH_serve.json",
                         help="report path (default: BENCH_serve.json)")
    loadgen.set_defaults(handler=_command_loadgen)

    lint = subparsers.add_parser(
        "lint", help="static analysis: RNG discipline, privacy "
                     "invariant, Python pitfalls",
        parents=[common],
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint)

    telemetry_parser = subparsers.add_parser(
        "telemetry", help="summarize a JSON-lines trace written by "
                          "--trace-out",
        parents=[common],
    )
    telemetry_parser.add_argument(
        "trace", help="trace file (JSON lines) from --trace-out"
    )
    telemetry_parser.set_defaults(handler=_command_telemetry)

    return parser


def main(argv=None) -> int:
    """CLI entry point.

    Parameters
    ----------
    argv:
        Argument list; ``sys.argv[1:]`` when ``None``.

    Returns
    -------
    int
        Process exit code of the selected subcommand.
    """
    parser = build_parser()
    arguments = parser.parse_args(argv)
    _configure_logging(arguments)
    metrics_out = getattr(arguments, "metrics_out", None)
    trace_out = getattr(arguments, "trace_out", None)
    if metrics_out is None and trace_out is None:
        # No capture requested: the instrumented paths stay on the
        # no-op pipeline.
        return arguments.handler(arguments)
    if trace_out is None:
        pipeline = telemetry.configure(max_events=UNTRACED_SPAN_EVENTS)
    else:
        pipeline = telemetry.configure()
    try:
        return arguments.handler(arguments)
    finally:
        telemetry.disable()
        if metrics_out is not None:
            write_prometheus(metrics_out, pipeline.registry)
            _logger.info("wrote metrics to %s", metrics_out)
        if trace_out is not None:
            write_events(trace_out, pipeline.finished_spans(),
                         registry=pipeline.registry)
            _logger.info("wrote trace to %s", trace_out)


if __name__ == "__main__":
    sys.exit(main())
