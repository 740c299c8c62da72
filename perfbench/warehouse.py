"""``warehouse``: the deployment story, rules classifying data where it lives.

Cycles, until ``--seconds`` have passed, of:

1. ``load`` — ``run_pipeline`` loads 1M function-2 tuples into a fresh
   file-backed store with the label index (``processes=1``, raw page
   writer); each load replaces the last cycle's file.
2. ``append`` — 200k more tuples in fixed-size batches through
   ``TupleStore.load(method="rows")``, which maintains the label index.
3. ``classify`` — the mined fixture rule set classifies all 1.2M rows with
   ``SqlRulePredictor.classify_into``.

``tuples_per_s`` is the ingest rate, all tuples loaded and appended over
their time; ``latency_ms`` is the mean wait for ``classify_into`` to label
the whole table.  Then, once, on the last table, after the timed cycles:

4. ``quality`` — ``confusion_matrix``, checked to total the row count, and
   in the traced run ``rule_quality`` too (per-layer ``db.confusion_s`` and
   ``db.rule_quality_s``).

The ~112 MB table is far larger than SQLite's 2 MiB default page cache, so
the scans read through the OS page cache, not SQLite's.
"""

from __future__ import annotations

import os
from typing import Dict, List

from common import log, median, now, peak_rss_mb

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.db import queries
from repro.db.fastload import RawSqliteWriter
from repro.db.predictor import SqlRulePredictor
from repro.db.store import TupleStore
from repro.pipeline import run_pipeline

import fixture

N_LOAD = 1_000_000
N_APPEND = 200_000
APPEND_BATCH = 10_000
#: Cycles run until --seconds have passed, and at least this many.
MIN_CYCLES = 2
CHECKED = 2_000
SETUP_REPEATS = 5
WARM_TUPLES = 20_000


def append_batches(seed: int):
    generator = AgrawalGenerator(function=2, perturbation=0.0, seed=seed + 1)
    return list(generator.iter_chunks(N_APPEND, chunk_size=APPEND_BATCH))


def load(path: str, n: int, seed: int):
    if os.path.exists(path):
        os.remove(path)
    return run_pipeline(
        n,
        function=2,
        seed=seed,
        processes=1,
        db_path=path,
        store_method="raw",
        index_label=True,
    )


def stored_records(store: TupleStore, first: int, count: int) -> List[dict]:
    names = store.schema.attribute_names
    with store.lock:
        rows = store.connection.execute(
            f'SELECT * FROM "{store.table}" WHERE rowid >= ? ORDER BY rowid LIMIT ?',
            (first, count),
        ).fetchall()
    return [dict(zip(names, row)) for row in rows]


def stored_labels(store: TupleStore, table: str, first: int, count: int) -> List[str]:
    with store.lock:
        rows = store.connection.execute(
            f'SELECT * FROM "{table}" WHERE rowid >= ? ORDER BY rowid LIMIT ?',
            (first, count),
        ).fetchall()
    return [row[0] for row in rows]


def run(ctx) -> None:
    seed, spans, report = ctx.seed, ctx.spans, ctx.report
    path = str(ctx.scratch.file("warehouse.sqlite"))
    warm_path = str(ctx.scratch.file("warm.sqlite"))
    schema = agrawal_schema()
    for _ in range(SETUP_REPEATS):
        start = now()
        mined = fixture.load_ruleset()
        batches = append_batches(seed)
        load(warm_path, WARM_TUPLES, seed)
        with TupleStore(schema, path=warm_path) as store:
            store.load(batches[0], method="rows")
            with SqlRulePredictor(mined, store=store) as predictor:
                predictor.classify_into("labels", drop=True)
            queries.rule_quality(store, mined)
            queries.confusion_matrix(store, mined)
        os.remove(warm_path)
        ctx.setup.record(now() - start)
    if spans.enabled:
        spans.wrap(RawSqliteWriter, "finish", "db.raw_finish")

    load_phase = report.phase("load")
    append_phase = report.phase("append")
    classify_phase = report.phase("classify")
    loads, append_seconds, classify_seconds = [], [], []
    # Each cycle rebuilds the table, so each metric pools samples from the
    # whole run rather than from one stretch of it.
    deadline = now() + ctx.seconds
    while len(loads) < MIN_CYCLES or now() < deadline:
        # 1. a fresh 1M-tuple load through the pipeline
        start = now()
        result = load(path, N_LOAD, seed)
        loads.append((now() - start, result))
        load_phase.attempted += 1
        if result.n_tuples != N_LOAD:
            load_phase.fail(f"pipeline stored {result.n_tuples} of {N_LOAD}")
        with TupleStore(schema, path=path) as store:
            # 2. appends in fixed-size batches
            for batch in batches:
                start = now()
                added = store.load(batch, method="rows")
                append_seconds.append(now() - start)
                append_phase.attempted += 1
                if added != len(batch):
                    append_phase.fail(f"append stored {added} of {len(batch)}")
            rows = store.count()
            if rows != N_LOAD + N_APPEND:
                append_phase.fail(f"store holds {rows} rows, expected {N_LOAD + N_APPEND}")
            file_bytes = os.path.getsize(path)

            # 3. classify every stored tuple inside the database
            with SqlRulePredictor(mined, store=store) as predictor:
                start = now()
                written = predictor.classify_into("labels", drop=True)
                classify_seconds.append(now() - start)
            classify_phase.attempted += 1
            if written != rows:
                classify_phase.fail(f"classify_into wrote {written} labels for {rows} rows")
            check_labels(store, mined, classify_phase)
    log(f"cycles: {len(loads)}")

    # Sustained rates: all the work over all the time it took.  The machine
    # flips between fast and slow spells, which makes a median of repeats
    # jump between the two; the total moves smoothly with their mix.
    ingest_seconds = sum(s for s, _ in loads) + sum(append_seconds)
    report.metric("tuples_per_s", len(loads) * (N_LOAD + N_APPEND) / ingest_seconds, "1/s")
    report.metric("latency_ms", 1e3 * sum(classify_seconds) / len(classify_seconds), "ms")
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    with TupleStore(schema, path=path) as store:
        quality(store, mined, rows, report, spans.enabled)
    if spans.enabled:
        layers: Dict[str, float] = {
            "pipeline.generate_s": median([r.generate_seconds for _, r in loads]),
            "pipeline.classify_s": median([r.classify_seconds for _, r in loads]),
            "pipeline.store_s": median([r.store_seconds for _, r in loads]),
            "db.raw_finish_s": median([s.seconds for s in spans.named("db.raw_finish")]),
            "db.append_batch_s": median(append_seconds),
            "db.classify_into_s": median(classify_seconds),
        }
        for name, value in layers.items():
            report.layer(name, value, "s")
        report.layer("db.file_bytes", file_bytes, "B")
        report.layer("db.rows", rows, "count")
    os.remove(path)


def quality(store: TupleStore, mined, rows: int, report, traced: bool) -> None:
    """4. the confusion matrix over the last cycle's table, checked; when
    traced, rule quality too (a ~17 s scan that feeds only a layer metric)."""
    phase = report.phase("quality")
    start = now()
    matrix = queries.confusion_matrix(store, mined)
    report.layer("db.confusion_s", now() - start, "s")
    phase.attempted += 1
    if int(matrix.total) != rows:
        phase.fail(f"confusion matrix totals {matrix.total}, expected {rows}")
    if not traced:
        return
    start = now()
    qualities = queries.rule_quality(store, mined)
    report.layer("db.rule_quality_s", now() - start, "s")
    phase.attempted += 1
    if len(qualities) != mined.n_rules or any(q.n_rows != rows for q in qualities):
        phase.fail("rule_quality did not cover every rule over every row")


def check_labels(store: TupleStore, mined, phase) -> None:
    """Sampled ``classify_into`` labels, from the loaded and the appended
    rows, must equal ``RuleSet.predict_batch`` on the same tuples."""
    for first in (1, N_LOAD + 1):
        records = stored_records(store, first, CHECKED)
        expected = mined.predict_batch(records)
        got = stored_labels(store, "labels", first, CHECKED)
        phase.attempted += len(records)
        wrong = sum(a != b for a, b in zip(expected, got)) + abs(len(records) - len(got))
        if wrong:
            phase.fail(
                f"{wrong} sampled label(s) from row {first} differ from predict_batch", wrong
            )
