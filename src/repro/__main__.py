"""``python -m repro`` — the experiment, data and serving CLI.

Subcommands:

``sweep``
    Run the NeuroRule-vs-C4.5 comparison over a set of benchmark functions
    and seeds, in parallel, against an on-disk artifact cache.  Re-running
    the same sweep (or widening it) resumes from the cache: completed
    ``function x seed`` tasks are served from disk without retraining.

``cache``
    Inspect an artifact cache directory: one line per completed entry with
    its key, function, seed, extraction strategy and configuration label.

``extractors``
    The extractor zoo.  ``extractors list`` names every registered
    rule-extraction strategy; ``extractors compare`` runs the comparison
    grid (function x seed x extractor, cached like any sweep) and renders
    the fidelity / rule-count / extraction-time table.

``generate``
    Stream labelled Agrawal tuples to a CSV/JSONL file in bounded-size
    columnar chunks — multi-million-tuple workloads never materialise in
    memory.  A drift point can switch the labelling function and/or the
    perturbation factor mid-stream (concept-drift scenarios).

``predict``
    Classify a CSV/JSONL record stream with a served model — loaded from an
    artifact-cache entry (by key or by function/seed), a standalone
    ``rules.json``/``network.json``, or a built-in reference rule set — and
    stream the labels out, never materialising the input file.

``serve-bench``
    Measure the micro-batched :class:`PredictionService` against a naive
    per-record prediction loop on generated Agrawal tuples.

``pipeline``
    Run generate → classify → store end-to-end through the columnar chunk
    fabric: multi-process generation into shared-memory chunks, rule
    classification on the chunk columns (labels stay index arrays), and a
    raw-page bulk write into SQLite — zero row dicts anywhere on the path.

``db``
    In-database mining over a SQLite tuple store: ``db load`` bulk-loads a
    CSV/JSONL export (or generated tuples) into a schema-typed relation,
    ``db classify`` labels every stored tuple with a single-pass SQL
    ``CASE`` scan (the pushdown path), ``db stats`` computes per-rule
    support/coverage/confidence and the confusion matrix inside the engine,
    and ``db sql`` prints the rendered statements for any dialect.

Examples::

    python -m repro sweep --functions 1,2,3 --seeds 2 --processes 2 \\
        --cache-dir .repro-cache --out sweep.json
    python -m repro sweep --functions 1,2 --extractor covering
    python -m repro extractors list
    python -m repro extractors compare --functions 1-10 \\
        --cache-dir .repro-cache --out comparison.json
    python -m repro extractors compare --functions 1,4 --quick
    python -m repro cache --cache-dir .repro-cache
    python -m repro generate --function 2 --n 1000000 --seed 1 \\
        --out tuples.jsonl
    python -m repro generate --function 2 --n 1000000 --drift-at 500000 \\
        --drift-function 5 --out drifted.jsonl
    python -m repro predict --cache-dir .repro-cache --function 2 \\
        --input tuples.csv --out labels.jsonl
    python -m repro predict --reference-function 1 --input tuples.jsonl
    python -m repro serve-bench --n 50000 --out BENCH_serving.json
    python -m repro pipeline --n 1000000 --function 1 --processes 4 \\
        --db labelled.db --out pipeline.json
    python -m repro db load --db tuples.db --input tuples.jsonl
    python -m repro db classify --db tuples.db --reference-function 2 \\
        --out labels.jsonl
    python -m repro db stats --db tuples.db --reference-function 2
    python -m repro db sql --reference-function 2 --dialect postgres
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence

from repro import obs
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import ArtifactCache, run_sweep
from repro.experiments.reporting import format_sweep_table

#: Valid Agrawal benchmark function numbers.
FUNCTION_RANGE = range(1, 11)


def parse_functions(spec: str) -> List[int]:
    """Parse a function list: comma-separated numbers and ``a-b`` ranges.

    Duplicates are dropped (first occurrence wins, order preserved) and any
    number outside 1–10 fails fast with :class:`SystemExit` — previously
    ``--functions 3,3,12`` trained function 3 twice and only failed on 12
    mid-sweep, after minutes of work.
    """
    functions: List[int] = []
    seen = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            low_text, _, high_text = part.partition("-")
            try:
                low, high = int(low_text), int(high_text)
            except ValueError:
                raise SystemExit(f"error: invalid function range {part!r}")
            if low > high:
                raise SystemExit(f"error: empty function range {part!r}")
            numbers = list(range(low, high + 1))
        else:
            try:
                numbers = [int(part)]
            except ValueError:
                raise SystemExit(f"error: invalid function number {part!r}")
        for number in numbers:
            if number not in FUNCTION_RANGE:
                raise SystemExit(
                    f"error: function {number} is outside the benchmark range "
                    f"{FUNCTION_RANGE.start}-{FUNCTION_RANGE.stop - 1}"
                )
            if number not in seen:
                seen.add(number)
                functions.append(number)
    if not functions:
        raise SystemExit(f"error: no functions in {spec!r}")
    return functions


def positive_int(text: str) -> int:
    """Argparse type for integer options that must be >= 1.

    Rejecting the value at parse time gives a readable usage error instead of
    an empty task grid (``--seeds 0``) or a crash deep inside
    ``ProcessPoolExecutor`` (``--processes 0``).
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by the data-plane commands.

    Both are opt-in: without them the run pays nothing for tracing (spans
    still time their regions — the subsystems use them as stopwatches — but
    nothing is recorded) and the metrics registry is never rendered.
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record the span trace and write it as JSON Lines to this file "
        "(inspect with `python -m repro obs report --trace FILE`)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry in Prometheus text format to this "
        "file when the command finishes",
    )


def _obs_begin(args: argparse.Namespace) -> None:
    """Enable span recording before the handler runs, if asked for."""
    if getattr(args, "trace", None):
        obs.enable_tracing()


def _obs_finish(args: argparse.Namespace) -> None:
    """Flush telemetry after the handler, even when it failed.

    Runs from ``main``'s ``finally`` so an early ``return 1`` or a raised
    :class:`ReproError` still leaves the partial trace on disk — usually the
    most interesting one.
    """
    trace_path = getattr(args, "trace", None)
    if trace_path:
        written = obs.write_trace_jsonl(obs.export_spans(), trace_path)
        print(f"wrote {written} trace records to {trace_path}", file=sys.stderr)
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path:
        obs.write_metrics(obs.registry(), metrics_path)
        print(f"wrote metrics to {metrics_path}", file=sys.stderr)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Summarise a JSONL span trace as an aligned per-span-name table."""
    records = obs.read_trace_jsonl(args.trace)
    if not records:
        print(f"no trace records in {args.trace}", file=sys.stderr)
        return 1
    print(obs.format_trace_table(records, limit=args.limit))
    return 0


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        name: getattr(args, name)
        for name in (
            "n_train",
            "n_test",
            "training_iterations",
            "retrain_iterations",
            "pruning_rounds",
        )
        if getattr(args, name) is not None
    }
    if args.preset == "paper":
        config = ExperimentConfig.paper(**overrides)
    else:
        config = ExperimentConfig.quick(**overrides)
    extractor = getattr(args, "extractor", None)
    if extractor is not None:
        # Validated by ExperimentConfig.__post_init__ against the registry;
        # an unknown name fails fast with the list of registered strategies.
        config = config.with_extractor(extractor)
    return config


def _cmd_sweep(args: argparse.Namespace) -> int:
    functions = parse_functions(args.functions)
    config = _build_config(args)
    print(
        f"sweep: functions {functions}, {args.seeds} seed(s), "
        f"{args.processes} process(es), preset {config.label!r}, "
        f"extractor {config.extractor!r}, cache {args.cache_dir or 'disabled'}"
    )
    sweep = run_sweep(
        functions,
        config=config,
        seeds=args.seeds,
        processes=args.processes,
        cache_dir=args.cache_dir,
    )
    for outcome in sweep.outcomes:
        if outcome.ok:
            source = "cache" if outcome.cached else "ran"
            assert outcome.result is not None
            print(
                f"  function {outcome.function} seed {outcome.seed}: {source} "
                f"in {outcome.seconds:.2f}s "
                f"(rules test {100.0 * outcome.result.rule_test_accuracy:.1f}%)"
            )
        else:
            kind = f" ({outcome.error_type})" if outcome.error_type else ""
            print(
                f"  function {outcome.function} seed {outcome.seed}: FAILED{kind}"
            )
    rows = sweep.aggregate()
    if rows:
        print()
        print(format_sweep_table(rows))
    print(
        f"\n{len(sweep.outcomes)} task(s): {len(sweep.results)} ok, "
        f"{len(sweep.failures)} failed, {sweep.cache_hits} from cache"
    )
    for failure in sweep.failures:
        print(
            f"\nfunction {failure.function} seed {failure.seed} failed:\n"
            f"{failure.error}",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(sweep.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 1 if sweep.failures else 0


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.agrawal import AgrawalGenerator, DriftPoint
    from repro.data.io import write_csv, write_jsonl

    if args.function not in FUNCTION_RANGE:
        raise SystemExit(
            f"error: function {args.function} is outside the benchmark range "
            f"{FUNCTION_RANGE.start}-{FUNCTION_RANGE.stop - 1}"
        )
    drift = None
    if args.drift_function is not None or args.drift_perturbation is not None:
        if args.drift_at is None:
            raise SystemExit(
                "error: --drift-function/--drift-perturbation need --drift-at"
            )
        drift = [
            DriftPoint(
                at=args.drift_at,
                function=args.drift_function,
                perturbation=args.drift_perturbation,
            )
        ]
    elif args.drift_at is not None:
        raise SystemExit(
            "error: --drift-at needs --drift-function and/or --drift-perturbation"
        )
    generator = AgrawalGenerator(
        function=args.function, perturbation=args.perturbation, seed=args.seed
    )
    if not args.no_class and args.class_column in generator.schema:
        raise SystemExit(
            f"error: class column name {args.class_column!r} collides with an "
            "attribute name"
        )
    from repro.data.io import resolve_format

    form = resolve_format(args.out, args.format)
    chunks_written = 0
    started = perf_counter()

    def rows():
        nonlocal chunks_written
        for chunk in generator.iter_chunks(
            args.n, chunk_size=args.chunk_size, drift=drift
        ):
            chunks_written += 1
            if args.no_class:
                for record, _ in chunk.iter_rows():
                    yield record
            else:
                for record, label in chunk.iter_rows():
                    record[args.class_column] = label
                    yield record

    if form == "jsonl":
        count = write_jsonl(args.out, rows())
    else:
        fieldnames = list(generator.schema.attribute_names)
        if not args.no_class:
            fieldnames.append(args.class_column)
        count = write_csv(args.out, rows(), fieldnames)
    elapsed = perf_counter() - started
    drift_note = ""
    if drift is not None:
        point = drift[0]
        switches = []
        if point.function is not None:
            switches.append(f"function {point.function}")
        if point.perturbation is not None:
            switches.append(f"perturbation {point.perturbation}")
        drift_note = f", drift at {point.at} -> {' + '.join(switches)}"
    print(
        f"generated {count} function-{args.function} tuple(s) in {elapsed:.2f}s "
        f"({count / elapsed:,.0f} tuples/s) — {chunks_written} chunk(s) of "
        f"<= {args.chunk_size}{drift_note}",
        file=sys.stderr,
    )
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Serving commands
# ---------------------------------------------------------------------------

#: Name the single CLI-loaded model is registered under.
_MODEL_NAME = "model"


def _write_labels(out, labels) -> int:
    """Stream label rows to ``out`` and return how many were written.

    ``out=None`` prints JSONL to stdout, a ``.csv`` path gets a one-column
    label file, anything else JSON lines — shared by ``predict`` and
    ``db classify`` so the formats cannot drift apart.
    """
    rows = ({"label": label} for label in labels)
    if out is None:
        count = 0
        for row in rows:
            print(json.dumps(row))
            count += 1
        return count
    if Path(out).suffix == ".csv":
        from repro.data.io import write_csv

        return write_csv(out, rows, ["label"])
    from repro.data.io import write_jsonl

    return write_jsonl(out, rows)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    """Model-source flags shared by ``predict`` and ``serve-bench``."""
    source = parser.add_argument_group("model source (exactly one)")
    source.add_argument(
        "--cache-dir", default=None, help="artifact cache holding the model"
    )
    source.add_argument(
        "--key", default=None, help="cache entry key (with --cache-dir)"
    )
    source.add_argument(
        "--function",
        type=positive_int,
        default=None,
        help="look the cache entry up by benchmark function (with --cache-dir)",
    )
    source.add_argument(
        "--seed",
        type=int,
        default=None,
        help="narrow the function lookup to one replicate seed",
    )
    source.add_argument(
        "--extractor",
        default=None,
        help="narrow the function lookup to entries produced by this "
        "extraction strategy (see `extractors list`)",
    )
    source.add_argument("--rules", default=None, help="standalone rules.json file")
    source.add_argument("--network", default=None, help="standalone network.json file")
    source.add_argument(
        "--classes",
        default=None,
        help="comma-separated class labels for --network (default: Agrawal A,B)",
    )
    source.add_argument(
        "--reference-function",
        type=positive_int,
        default=None,
        help="serve the built-in ground-truth rule set of this function (1-4)",
    )
    parser.add_argument(
        "--prefer",
        choices=("rules", "network"),
        default="rules",
        help="artifact to serve when a cache entry holds both (default: rules)",
    )
    parser.add_argument(
        "--backend",
        choices=("numpy", "sql"),
        default="numpy",
        help="rule execution backend: in-process NumPy masks (default) or "
        "an in-database SQL CASE scan",
    )
    service = parser.add_argument_group("service tuning")
    service.add_argument(
        "--batch-size",
        type=positive_int,
        default=8192,
        help="micro-batch flush size (default: 8192)",
    )
    service.add_argument(
        "--workers",
        type=positive_int,
        default=2,
        help="dispatch thread-pool size (default: 2)",
    )


def _load_model(args: argparse.Namespace):
    """Resolve the model flags into a registered :class:`ServableModel`."""
    from repro.serving import ModelRegistry, reference_ruleset

    registry = ModelRegistry()
    backend = getattr(args, "backend", "numpy")
    sources = [
        args.cache_dir is not None,
        args.rules is not None,
        args.network is not None,
        args.reference_function is not None,
    ]
    if sum(sources) != 1:
        raise SystemExit(
            "error: exactly one model source is required: --cache-dir, --rules, "
            "--network or --reference-function"
        )
    if args.network is not None and backend == "sql":
        raise SystemExit(
            "error: --backend sql applies to rule models; networks cannot be "
            "pushed down into the database"
        )
    if args.cache_dir is not None:
        cache = ArtifactCache(args.cache_dir)
        if args.key is not None:
            registry.load_artifact(
                _MODEL_NAME, cache, args.key, prefer=args.prefer, backend=backend
            )
        elif args.function is not None:
            registry.load_artifact_by_task(
                _MODEL_NAME,
                cache,
                args.function,
                seed=args.seed,
                extractor=getattr(args, "extractor", None),
                prefer=args.prefer,
                backend=backend,
            )
        else:
            raise SystemExit("error: --cache-dir needs --key or --function")
    elif args.rules is not None:
        registry.load_rules_file(_MODEL_NAME, args.rules, backend=backend)
    elif args.network is not None:
        classes = args.classes.split(",") if args.classes else None
        registry.load_network_file(_MODEL_NAME, args.network, classes=classes)
    else:
        registry.register_ruleset(
            _MODEL_NAME,
            reference_ruleset(args.reference_function),
            backend=backend,
            source=f"reference function {args.reference_function}",
        )
    return registry


def _service_config(args: argparse.Namespace):
    from repro.serving import ServiceConfig

    return ServiceConfig(
        max_batch_size=args.batch_size,
        workers=args.workers,
    )


def _input_records(args: argparse.Namespace):
    """A bounded-memory record iterator over the input file."""
    from repro.data.agrawal import agrawal_schema
    from repro.data.io import iter_csv_records, iter_jsonl_records, resolve_format

    schema = agrawal_schema() if args.schema == "agrawal" else None
    form = resolve_format(args.input, args.format)
    reader = iter_jsonl_records if form == "jsonl" else iter_csv_records
    return reader(args.input, schema=schema, class_column=args.class_column)


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.serving import PredictionService

    registry = _load_model(args)
    model = registry.get(_MODEL_NAME)
    print(f"serving {model.describe()}", file=sys.stderr)
    records = _input_records(args)
    started = perf_counter()
    with PredictionService(registry, _service_config(args)) as service:
        label_batches = service.predict_stream_batches(_MODEL_NAME, records)
        count = _write_labels(
            args.out, (label for labels in label_batches for label in labels)
        )
        elapsed = perf_counter() - started
        stats = service.stats(_MODEL_NAME)
    print(
        f"classified {count} record(s) in {elapsed:.2f}s "
        f"({count / elapsed:,.0f} records/s wall) — "
        f"{stats.batches} micro-batch(es), mean size {stats.mean_batch_size:.0f}, "
        f"{stats.records_per_second:,.0f} records/s in-batch",
        file=sys.stderr,
    )
    if args.out is not None:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.data.agrawal import AgrawalGenerator
    from repro.serving import PredictionService

    if (
        args.cache_dir is None
        and args.rules is None
        and args.network is None
        and args.reference_function is None
    ):
        # The benchmark works out of the box: serve the function-1 ground
        # truth rules when no model source is given.
        args.reference_function = 1
    registry = _load_model(args)
    model = registry.get(_MODEL_NAME)
    data_function = args.data_function or args.reference_function or args.function or 1
    print(f"serving {model.describe()}", file=sys.stderr)
    print(
        f"generating {args.n} clean Agrawal function-{data_function} tuples...",
        file=sys.stderr,
    )
    records = AgrawalGenerator(
        function=data_function, perturbation=0.0, seed=args.data_seed
    ).generate(args.n).records

    started = perf_counter()
    naive = [model.predict_record(record) for record in records]
    naive_seconds = perf_counter() - started

    with PredictionService(registry, _service_config(args)) as service:
        served: List[np.ndarray] = []
        stream_seconds = float("inf")
        for _ in range(args.repeats):
            started = perf_counter()
            served = list(service.predict_stream_batches(_MODEL_NAME, iter(records)))
            stream_seconds = min(stream_seconds, perf_counter() - started)
        stats = service.stats(_MODEL_NAME)
    labels = np.concatenate(served) if served else np.empty(0, dtype=object)
    if labels.tolist() != naive:
        print("error: served labels differ from the per-record loop", file=sys.stderr)
        return 1

    speedup = naive_seconds / stream_seconds if stream_seconds > 0 else float("inf")
    report = {
        "workload": f"serve_function{data_function}_{args.n}tuples",
        "n_records": args.n,
        "model": model.describe(),
        "max_batch_size": args.batch_size,
        "workers": args.workers,
        "naive_seconds": round(naive_seconds, 4),
        "service_seconds": round(stream_seconds, 4),
        "speedup": round(speedup, 1),
        "service_stats": stats.to_dict(),
    }
    print(
        f"naive per-record loop: {naive_seconds:.3f}s — micro-batched service: "
        f"{stream_seconds:.3f}s — speedup {speedup:.1f}x"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.pipeline import run_pipeline

    result = run_pipeline(
        args.n,
        function=args.function,
        perturbation=args.perturbation,
        seed=args.seed,
        chunk_size=args.chunk_size,
        processes=args.processes,
        workers=args.workers,
        db_path=args.db,
        table=args.table,
        store_method=args.method,
        model_function=args.model_function,
        drop=args.drop,
        index_label=args.index_label,
    )
    print(result.describe(), file=sys.stderr)
    rendered = ", ".join(
        f"{label}: {n}" for label, n in result.class_distribution.items()
    )
    print(f"class distribution: {rendered}", file=sys.stderr)
    report = dict(
        asdict(result), tuples_per_second=round(result.tuples_per_second, 0)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# In-database commands (`python -m repro db ...`)
# ---------------------------------------------------------------------------


def _add_db_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags locating the tuple store a ``db`` subcommand works against."""
    parser.add_argument(
        "--db", required=True, help="SQLite database file (or :memory:)"
    )
    parser.add_argument(
        "--table", default="tuples", help="relation name (default: tuples)"
    )
    parser.add_argument(
        "--class-column",
        default="class",
        help="label column name (default: class)",
    )


def _add_db_rules_arguments(
    parser: argparse.ArgumentParser, required: bool
) -> None:
    """Rule-model source flags for ``db`` subcommands (rules only — there is
    no SQL form of a network)."""
    qualifier = "exactly one" if required else "at most one"
    source = parser.add_argument_group(f"rule-set source ({qualifier})")
    source.add_argument(
        "--cache-dir", default=None, help="artifact cache holding the rules"
    )
    source.add_argument(
        "--key", default=None, help="cache entry key (with --cache-dir)"
    )
    source.add_argument(
        "--function",
        type=positive_int,
        default=None,
        help="look the cache entry up by benchmark function (with --cache-dir)",
    )
    source.add_argument(
        "--seed",
        type=int,
        default=None,
        help="narrow the function lookup to one replicate seed",
    )
    source.add_argument(
        "--extractor",
        default=None,
        help="narrow the function lookup to entries produced by this "
        "extraction strategy (see `extractors list`)",
    )
    source.add_argument("--rules", default=None, help="standalone rules.json file")
    source.add_argument(
        "--reference-function",
        type=positive_int,
        default=None,
        help="use the built-in ground-truth rule set of this function (1-4)",
    )


def _load_db_ruleset(args: argparse.Namespace, required: bool = True):
    """Resolve the rule-source flags of a ``db`` subcommand to a RuleSet."""
    from repro.rules.ruleset import RuleSet
    from repro.serving import ModelRegistry, reference_ruleset

    sources = [
        args.cache_dir is not None,
        args.rules is not None,
        args.reference_function is not None,
    ]
    if sum(sources) == 0:
        if required:
            raise SystemExit(
                "error: a rule-set source is required: --cache-dir, --rules or "
                "--reference-function"
            )
        return None
    if sum(sources) != 1:
        raise SystemExit(
            "error: at most one rule-set source: --cache-dir, --rules or "
            "--reference-function"
        )
    if args.reference_function is not None:
        return reference_ruleset(args.reference_function)
    registry = ModelRegistry()
    if args.rules is not None:
        model = registry.load_rules_file(_MODEL_NAME, args.rules)
    else:
        cache = ArtifactCache(args.cache_dir)
        if args.key is not None:
            model = registry.load_artifact(_MODEL_NAME, cache, args.key)
        elif args.function is not None:
            model = registry.load_artifact_by_task(
                _MODEL_NAME,
                cache,
                args.function,
                seed=args.seed,
                extractor=getattr(args, "extractor", None),
            )
        else:
            raise SystemExit("error: --cache-dir needs --key or --function")
    ruleset = model.predictor
    if not isinstance(ruleset, RuleSet) or (ruleset.rules and ruleset.is_binary):
        raise SystemExit(
            "error: the selected artifact is not an attribute rule set; only "
            "attribute rules have a SQL form"
        )
    return ruleset


def _open_store(args: argparse.Namespace):
    from repro.data.agrawal import agrawal_schema
    from repro.db.store import TupleStore

    return TupleStore(
        agrawal_schema(),
        path=args.db,
        table=args.table,
        class_column=args.class_column,
    )


def _cmd_db_load(args: argparse.Namespace) -> int:
    from repro.data.agrawal import AgrawalGenerator
    from repro.data.io import iter_csv_records, iter_jsonl_records, resolve_format

    generating = args.n is not None
    if generating == (args.input is not None):
        raise SystemExit(
            "error: exactly one input is required: --input FILE, or --n "
            "(with --gen-function/--gen-seed) to load generated tuples"
        )
    if generating and args.gen_function not in FUNCTION_RANGE:
        raise SystemExit(
            f"error: function {args.gen_function} is outside the benchmark "
            f"range {FUNCTION_RANGE.start}-{FUNCTION_RANGE.stop - 1}"
        )
    store = _open_store(args)
    with store:
        store.create(drop=args.drop)
        started = perf_counter()
        if generating:
            generator = AgrawalGenerator(
                function=args.gen_function,
                perturbation=args.perturbation,
                seed=args.gen_seed,
            )
            count = store.load(
                generator.iter_chunks(args.n, chunk_size=args.chunk_size),
                batch_size=args.batch_size,
            )
            source = f"generated function-{args.gen_function} tuples"
        else:
            form = resolve_format(args.input, args.format)
            reader = iter_jsonl_records if form == "jsonl" else iter_csv_records
            records = reader(args.input, schema=None, class_column=None)
            count = store.load_records(
                records,
                label_key=args.class_column,
                batch_size=args.batch_size,
                validate=args.validate,
            )
            source = args.input
        elapsed = perf_counter() - started
        total = store.count()
        distribution = store.class_distribution()
    print(
        f"loaded {count} tuple(s) from {source} into {args.db}:{args.table} "
        f"in {elapsed:.2f}s ({count / elapsed:,.0f} tuples/s); "
        f"table now holds {total} tuple(s)",
        file=sys.stderr,
    )
    rendered = ", ".join(f"{label}: {n}" for label, n in distribution.items())
    print(f"class distribution: {rendered}", file=sys.stderr)
    return 0


def _cmd_db_classify(args: argparse.Namespace) -> int:
    from repro.db.predictor import SqlRulePredictor

    if args.into is not None and args.out is not None:
        raise SystemExit(
            "error: --out and --into are mutually exclusive: labels either "
            "stream out of the database or stay in it"
        )
    ruleset = _load_db_ruleset(args)
    store = _open_store(args)
    with store:
        predictor = SqlRulePredictor(ruleset, store=store)
        print(f"classifying with {predictor.describe()}", file=sys.stderr)
        started = perf_counter()
        if args.into is not None:
            count = predictor.classify_into(args.into, drop=args.drop_into)
            elapsed = perf_counter() - started
            print(
                f"classified {count} stored tuple(s) into table {args.into!r} "
                f"in {elapsed:.2f}s ({count / elapsed:,.0f} tuples/s) — labels "
                "never left the database",
                file=sys.stderr,
            )
            return 0
        count = _write_labels(args.out, predictor.iter_classified())
        elapsed = perf_counter() - started
    print(
        f"classified {count} stored tuple(s) in {elapsed:.2f}s "
        f"({count / elapsed:,.0f} tuples/s) — single CASE scan pushdown",
        file=sys.stderr,
    )
    if args.out is not None:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_db_stats(args: argparse.Namespace) -> int:
    from repro.db.queries import confusion_matrix, rule_quality
    from repro.experiments.reporting import format_rule_quality_table

    ruleset = _load_db_ruleset(args, required=False)
    store = _open_store(args)
    with store:
        total = store.count()
        distribution = store.class_distribution()
        print(f"{args.db}:{args.table} — {total} tuple(s)")
        rendered = ", ".join(f"{label}: {n}" for label, n in distribution.items())
        print(f"class distribution: {rendered}")
        if ruleset is None:
            return 0
        qualities = rule_quality(store, ruleset)
        matrix = confusion_matrix(store, ruleset)
    print()
    print(format_rule_quality_table(qualities, title=f"rule quality ({ruleset.name})"))
    print()
    print(matrix.describe())
    print()
    print(matrix.describe_per_class())
    if matrix.total:
        print(f"\nin-database accuracy: {100.0 * matrix.accuracy():.2f}%")
    else:
        print("\nin-database accuracy: n/a (no stored tuples)")
    return 0


def _cmd_db_sql(args: argparse.Namespace) -> int:
    from repro.data.agrawal import agrawal_schema
    from repro.db.dialect import dialect_for
    from repro.db.queries import classification_preview_sql
    from repro.db.schema import label_index_ddl, schema_ddl
    from repro.exceptions import DatabaseError
    from repro.rules.serialization import ruleset_to_sql

    try:
        dialect = dialect_for(args.dialect)
    except DatabaseError as exc:
        raise SystemExit(f"error: {exc}")
    ruleset = _load_db_ruleset(args)
    schema = agrawal_schema()
    statements = [
        schema_ddl(schema, args.table, args.class_column, dialect) + ";",
        label_index_ddl(args.table, args.class_column, dialect) + ";",
        *ruleset_to_sql(ruleset, args.table, dialect=dialect),
        classification_preview_sql(ruleset, args.table, dialect=dialect) + ";",
    ]
    print(f"-- dialect: {dialect.name}")
    for statement in statements:
        print(statement)
        print()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir)
    count = 0
    for key in cache.keys():
        entry = cache.describe_entry(key)
        config = entry.get("config", {})
        extractor = cache.entry_extractor(key)
        print(
            f"{key[:16]}  function {entry.get('function')} "
            f"seed {entry.get('seed')}  "
            f"extractor {extractor if extractor is not None else 'unknown'}  "
            f"label {config.get('label')!r}  "
            f"n_train {config.get('n_train')}"
        )
        count += 1
    print(f"{count} cached entr{'y' if count == 1 else 'ies'} in {args.cache_dir}")
    return 0


# ---------------------------------------------------------------------------
# The extractor zoo (`python -m repro extractors ...`)
# ---------------------------------------------------------------------------


def _cmd_extractors_list(args: argparse.Namespace) -> int:
    from repro.extractors import available_extractors, create_extractor

    names = available_extractors()
    for name in names:
        extractor = create_extractor(name)
        doc = (type(extractor).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name}  ({type(extractor).__name__})  {summary}")
        if args.params:
            print(f"  params: {json.dumps(extractor.params(), sort_keys=True)}")
    print(f"{len(names)} registered extractor(s)")
    return 0


def _cmd_extractors_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import (
        DEFAULT_COMPARISON_EXTRACTORS,
        compare_extractors,
    )
    from repro.experiments.reporting import format_extractor_table

    functions = parse_functions(args.functions)
    if args.extractors:
        extractors = [
            part.strip() for part in args.extractors.split(",") if part.strip()
        ]
        if not extractors:
            raise SystemExit(f"error: no extractors in {args.extractors!r}")
    else:
        extractors = list(DEFAULT_COMPARISON_EXTRACTORS)
    if args.quick:
        # The smoke-scale grid: small enough for CI, still trains a real
        # network per (function, seed) cell and extracts with every strategy.
        config = ExperimentConfig.quick(
            n_train=200,
            n_test=200,
            training_iterations=120,
            retrain_iterations=40,
            pruning_rounds=30,
        )
    else:
        config = _build_config(args)
    print(
        f"extractors compare: functions {functions}, extractors {extractors}, "
        f"{args.seeds} seed(s), {args.processes} process(es), "
        f"preset {config.label!r}{' (smoke scale)' if args.quick else ''}, "
        f"cache {args.cache_dir or 'disabled'}"
    )
    comparison = compare_extractors(
        functions,
        config=config,
        extractors=extractors,
        seeds=args.seeds,
        processes=args.processes,
        cache_dir=args.cache_dir,
    )
    sweep = comparison.sweep
    for outcome in sweep.outcomes:
        if outcome.ok:
            source = "cache" if outcome.cached else "ran"
            print(
                f"  function {outcome.function} seed {outcome.seed} "
                f"extractor {outcome.extractor}: {source} in {outcome.seconds:.2f}s"
            )
        else:
            print(
                f"  function {outcome.function} seed {outcome.seed} "
                f"extractor {outcome.extractor}: FAILED"
            )
    print()
    print(format_extractor_table(comparison.rows))
    print(
        f"\n{len(sweep.outcomes)} task(s): {len(sweep.results)} ok, "
        f"{len(sweep.failures)} failed, {sweep.cache_hits} from cache"
    )
    for failure in sweep.failures:
        print(
            f"\nfunction {failure.function} seed {failure.seed} "
            f"extractor {failure.extractor} failed:\n{failure.error}",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(comparison.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 1 if sweep.failures else 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-configuration flags shared by ``sweep`` and
    ``extractors compare`` — both feed :func:`_build_config`."""
    parser.add_argument(
        "--preset",
        choices=("quick", "paper"),
        default="quick",
        help="base configuration (default: quick)",
    )
    parser.add_argument("--n-train", type=int, default=None, help="override training tuples")
    parser.add_argument("--n-test", type=int, default=None, help="override test tuples")
    parser.add_argument(
        "--training-iterations", type=int, default=None, help="override BFGS budget"
    )
    parser.add_argument(
        "--retrain-iterations", type=int, default=None, help="override retrain budget"
    )
    parser.add_argument(
        "--pruning-rounds", type=int, default=None, help="override pruning rounds"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import checker_catalogue, run_analysis

    if args.list_rules:
        for name, description, severity in checker_catalogue():
            print(f"{name}  [{severity.value}]")
            print(f"    {description}")
        return 0
    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]
    report = run_analysis(args.paths, checkers=rules, strict=args.strict)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    failed = report.failed
    if args.race:
        from repro.analysis.racecheck import run_racecheck

        race = run_racecheck(threads=args.race_threads)
        print(race.render())
        failed = failed or not race.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NeuroRule reproduction: orchestrated experiment sweeps.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="run the NeuroRule-vs-C4.5 sweep in parallel, with caching"
    )
    sweep.add_argument(
        "--functions",
        default="1,2,3",
        help="benchmark functions, e.g. '1,2,3' or '1-5' (default: 1,2,3)",
    )
    sweep.add_argument(
        "--seeds",
        type=positive_int,
        default=1,
        help="replicates per function, at least 1 (default: 1)",
    )
    sweep.add_argument(
        "--processes",
        type=positive_int,
        default=1,
        help="worker processes, at least 1 (default: 1)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache root; omit to disable caching/resume",
    )
    sweep.add_argument(
        "--extractor",
        default=None,
        help="rule-extraction strategy for every task "
        "(default: neurorule; see `extractors list`)",
    )
    _add_config_arguments(sweep)
    sweep.add_argument(
        "--out", default=None, help="write the full sweep summary to this JSON file"
    )
    _add_obs_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    cache = commands.add_parser("cache", help="list the entries of an artifact cache")
    cache.add_argument("--cache-dir", required=True, help="artifact cache root")
    cache.set_defaults(handler=_cmd_cache)

    extractors = commands.add_parser(
        "extractors",
        help="the extractor zoo: list registered strategies, run the "
        "fidelity/size/time comparison grid",
    )
    extractor_commands = extractors.add_subparsers(
        dest="extractors_command", required=True
    )

    extractors_list = extractor_commands.add_parser(
        "list", help="name every registered rule-extraction strategy"
    )
    extractors_list.add_argument(
        "--params",
        action="store_true",
        help="also print each strategy's default parameters as JSON",
    )
    extractors_list.set_defaults(handler=_cmd_extractors_list)

    extractors_compare = extractor_commands.add_parser(
        "compare",
        help="run every strategy over the same trained networks and render "
        "the fidelity / rule-count / extraction-time table",
    )
    extractors_compare.add_argument(
        "--functions",
        default="1-10",
        help="benchmark functions, e.g. '1,4' or '1-10' (default: 1-10)",
    )
    extractors_compare.add_argument(
        "--extractors",
        default=None,
        help="comma-separated strategy names "
        "(default: neurorule,c45-surrogate,covering)",
    )
    extractors_compare.add_argument(
        "--seeds",
        type=positive_int,
        default=1,
        help="replicates per (function, extractor) cell (default: 1)",
    )
    extractors_compare.add_argument(
        "--processes",
        type=positive_int,
        default=1,
        help="worker processes, at least 1 (default: 1)",
    )
    extractors_compare.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache root; omit to disable caching/resume",
    )
    extractors_compare.add_argument(
        "--quick",
        action="store_true",
        help="smoke-scale configuration (200 tuples, reduced budgets) — "
        "overrides --preset and the override flags",
    )
    _add_config_arguments(extractors_compare)
    extractors_compare.add_argument(
        "--out",
        default=None,
        help="write the comparison grid (rows + full sweep) to this JSON file",
    )
    extractors_compare.set_defaults(handler=_cmd_extractors_compare)

    generate = commands.add_parser(
        "generate",
        help="stream labelled Agrawal tuples to CSV/JSONL in bounded-memory chunks",
    )
    generate.add_argument(
        "--function",
        type=positive_int,
        default=2,
        help="Agrawal benchmark function labelling the tuples (default: 2)",
    )
    generate.add_argument(
        "--n", type=positive_int, required=True, help="number of tuples to generate"
    )
    generate.add_argument(
        "--out", required=True, help="output file (.jsonl/.ndjson for JSONL, else CSV)"
    )
    generate.add_argument(
        "--format",
        choices=("auto", "csv", "jsonl"),
        default="auto",
        help="output format (default: by file extension)",
    )
    generate.add_argument(
        "--chunk-size",
        type=positive_int,
        default=100_000,
        help="tuples generated (and resident) per columnar chunk (default: 100000)",
    )
    generate.add_argument(
        "--perturbation",
        type=float,
        default=0.05,
        help="perturbation factor in [0, 1) (default: 0.05, as in the paper)",
    )
    generate.add_argument(
        "--seed", type=int, default=None, help="generator seed (default: random)"
    )
    generate.add_argument(
        "--class-column",
        default="class",
        help="column name for the class label (default: class)",
    )
    generate.add_argument(
        "--no-class",
        action="store_true",
        help="omit the class label (unlabelled prediction input)",
    )
    generate.add_argument(
        "--drift-at",
        type=positive_int,
        default=None,
        help="tuple index at which the scenario drifts",
    )
    generate.add_argument(
        "--drift-function",
        type=positive_int,
        default=None,
        help="labelling function after the drift point",
    )
    generate.add_argument(
        "--drift-perturbation",
        type=float,
        default=None,
        help="perturbation factor after the drift point",
    )
    generate.set_defaults(handler=_cmd_generate)

    predict = commands.add_parser(
        "predict",
        help="classify a CSV/JSONL record stream with a cached or file-based model",
    )
    _add_model_arguments(predict)
    predict.add_argument(
        "--input", required=True, help="CSV or JSONL file of records to classify"
    )
    predict.add_argument(
        "--out",
        default=None,
        help="output file (.jsonl, or .csv for a one-column label file); "
        "omit to stream JSONL to stdout",
    )
    predict.add_argument(
        "--format",
        choices=("auto", "csv", "jsonl"),
        default="auto",
        help="input format (default: by file extension)",
    )
    predict.add_argument(
        "--schema",
        choices=("agrawal", "none"),
        default="agrawal",
        help="how to type input values: the Agrawal Table-1 schema (default) "
        "or raw coercion (int, then float, then string)",
    )
    predict.add_argument(
        "--class-column",
        default="class",
        help="input column to drop if present (default: class)",
    )
    predict.set_defaults(handler=_cmd_predict)

    bench = commands.add_parser(
        "serve-bench",
        help="micro-batched service vs naive per-record loop on Agrawal tuples",
    )
    _add_model_arguments(bench)
    bench.add_argument(
        "--n",
        type=positive_int,
        default=50_000,
        help="number of tuples to classify (default: 50000)",
    )
    bench.add_argument(
        "--data-function",
        type=positive_int,
        default=None,
        help="Agrawal function generating the tuples (default: the model's)",
    )
    bench.add_argument(
        "--data-seed", type=int, default=1, help="generator seed (default: 1)"
    )
    bench.add_argument(
        "--repeats",
        type=positive_int,
        default=3,
        help="service timing repeats; the best run counts (default: 3)",
    )
    bench.add_argument(
        "--out", default=None, help="write the benchmark report to this JSON file"
    )
    _add_obs_arguments(bench)
    bench.set_defaults(handler=_cmd_serve_bench)

    pipeline = commands.add_parser(
        "pipeline",
        help="generate -> classify -> store through the columnar chunk "
        "fabric (zero-copy hand-offs, optional multi-process generation)",
    )
    pipeline.add_argument(
        "--n",
        type=positive_int,
        default=1_000_000,
        help="tuples to push through the pipeline (default: 1000000)",
    )
    pipeline.add_argument(
        "--function",
        type=positive_int,
        default=1,
        help="Agrawal function generating the tuples (default: 1)",
    )
    pipeline.add_argument(
        "--perturbation",
        type=float,
        default=0.0,
        help="perturbation factor of the generator (default: 0)",
    )
    pipeline.add_argument(
        "--seed", type=int, default=7, help="generator seed (default: 7)"
    )
    pipeline.add_argument(
        "--chunk-size",
        type=positive_int,
        default=200_000,
        help="tuples per chunk at every hand-off (default: 200000)",
    )
    pipeline.add_argument(
        "--processes",
        type=positive_int,
        default=1,
        help="generation worker processes; 1 = sequential (default: 1)",
    )
    pipeline.add_argument(
        "--workers",
        type=positive_int,
        default=2,
        help="classification threads of the service (default: 2)",
    )
    pipeline.add_argument(
        "--db",
        default=":memory:",
        help="target SQLite file; a fresh file takes the raw-page bulk "
        "writer, :memory: falls back to driver rows (default: :memory:)",
    )
    pipeline.add_argument(
        "--table", default="tuples", help="relation name (default: tuples)"
    )
    pipeline.add_argument(
        "--method",
        choices=("auto", "rows", "raw"),
        default="auto",
        help="store path: raw page writer, driver rows, or auto (default)",
    )
    pipeline.add_argument(
        "--model-function",
        type=positive_int,
        default=None,
        help="reference rule set classifying the stream (default: --function;"
        " must be one of the functions with ground-truth rules, 1-4)",
    )
    pipeline.add_argument(
        "--drop",
        action="store_true",
        help="replace the target table if it already holds tuples",
    )
    pipeline.add_argument(
        "--index-label",
        action="store_true",
        help="build the label index during the run (off by default: it "
        "costs about as much as the raw page write itself)",
    )
    pipeline.add_argument(
        "--out", default=None, help="write the pipeline report to this JSON file"
    )
    _add_obs_arguments(pipeline)
    pipeline.set_defaults(handler=_cmd_pipeline)

    db = commands.add_parser(
        "db",
        help="in-database mining: load tuples into SQLite, classify with SQL "
        "pushdown, compute rule quality in the engine",
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    db_load = db_commands.add_parser(
        "load",
        help="bulk-load tuples (a CSV/JSONL file, or generated Agrawal "
        "tuples) into a SQLite tuple store",
    )
    _add_db_store_arguments(db_load)
    db_load.add_argument(
        "--input", default=None, help="CSV or JSONL file of labelled records"
    )
    db_load.add_argument(
        "--format",
        choices=("auto", "csv", "jsonl"),
        default="auto",
        help="input format (default: by file extension)",
    )
    db_load.add_argument(
        "--validate",
        action="store_true",
        help="validate every input record against the Agrawal schema",
    )
    db_load.add_argument(
        "--n",
        type=positive_int,
        default=None,
        help="generate this many Agrawal tuples instead of reading --input",
    )
    db_load.add_argument(
        "--gen-function",
        type=positive_int,
        default=2,
        help="labelling function for generated tuples (default: 2)",
    )
    db_load.add_argument(
        "--gen-seed", type=int, default=None, help="generator seed (default: random)"
    )
    db_load.add_argument(
        "--perturbation",
        type=float,
        default=0.05,
        help="perturbation factor for generated tuples (default: 0.05)",
    )
    db_load.add_argument(
        "--chunk-size",
        type=positive_int,
        default=100_000,
        help="tuples generated per columnar chunk (default: 100000)",
    )
    db_load.add_argument(
        "--batch-size",
        type=positive_int,
        default=50_000,
        help="rows per INSERT batch (default: 50000)",
    )
    db_load.add_argument(
        "--drop",
        action="store_true",
        help="drop and re-create the relation instead of appending",
    )
    db_load.set_defaults(handler=_cmd_db_load)

    db_classify = db_commands.add_parser(
        "classify",
        help="classify every stored tuple with a single-pass SQL CASE scan",
    )
    _add_db_store_arguments(db_classify)
    _add_db_rules_arguments(db_classify, required=True)
    db_classify.add_argument(
        "--out",
        default=None,
        help="output file (.jsonl, or .csv for a one-column label file); "
        "omit to stream JSONL to stdout",
    )
    db_classify.add_argument(
        "--into",
        default=None,
        help="materialise the labels into this table inside the database "
        "instead of streaming them out (refuses to replace an existing "
        "table unless --drop-into is given)",
    )
    db_classify.add_argument(
        "--drop-into",
        action="store_true",
        help="with --into: drop and replace the label table if it exists "
        "(same contract as `db load --drop`)",
    )
    db_classify.set_defaults(handler=_cmd_db_classify)

    db_stats = db_commands.add_parser(
        "stats",
        help="store statistics; with a rule source, per-rule "
        "support/coverage/confidence and the in-database confusion matrix",
    )
    _add_db_store_arguments(db_stats)
    _add_db_rules_arguments(db_stats, required=False)
    db_stats.set_defaults(handler=_cmd_db_stats)

    db_sql = db_commands.add_parser(
        "sql",
        help="print the rendered statements (DDL, per-rule SELECTs, CASE "
        "classifier) without executing them",
    )
    db_sql.add_argument(
        "--table", default="tuples", help="relation name (default: tuples)"
    )
    db_sql.add_argument(
        "--class-column",
        default="class",
        help="label column name (default: class)",
    )
    db_sql.add_argument(
        "--dialect",
        default="sqlite",
        help="target dialect: sqlite, ansi, postgres or mysql (default: sqlite)",
    )
    _add_db_rules_arguments(db_sql, required=True)
    db_sql.set_defaults(handler=_cmd_db_sql)

    analyze = commands.add_parser(
        "analyze",
        help="run the codebase-aware static-analysis rules over a source "
        "tree (and optionally the dynamic race harness)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="warnings fail the run too, not just errors (what CI uses)",
    )
    analyze.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: every registered rule)",
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (id, severity, description) and exit",
    )
    analyze.add_argument(
        "--race",
        action="store_true",
        help="also run the dynamic race harness (multithreaded serving and "
        "db stress with lock-ownership tracing)",
    )
    analyze.add_argument(
        "--race-threads",
        type=positive_int,
        default=4,
        help="stress threads for --race (default: 4)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the analysis report as JSON instead of text",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    obs_cmd = commands.add_parser(
        "obs",
        help="inspect telemetry captured by --trace / --metrics-out",
    )
    obs_commands = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_commands.add_parser(
        "report",
        help="summarise a JSON Lines span trace as a per-span-name table",
    )
    obs_report.add_argument(
        "--trace",
        required=True,
        metavar="FILE",
        help="trace file written by a command's --trace flag",
    )
    obs_report.add_argument(
        "--limit",
        type=positive_int,
        default=None,
        help="show only the N most expensive span names (default: all)",
    )
    obs_report.set_defaults(handler=_cmd_obs_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    recording = args.handler is not _cmd_obs_report
    if recording:
        _obs_begin(args)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if recording:
            _obs_finish(args)


if __name__ == "__main__":
    sys.exit(main())
