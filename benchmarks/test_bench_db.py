"""Benchmark E12 — SQL pushdown classification vs streaming tuples to Python.

500 000 perturbed function-4 Agrawal tuples are bulk-loaded into an in-memory
SQLite :class:`TupleStore` once, then classified with the function-4
reference rule set (six rules over age/elevel/salary — the shape of a real
extracted rule set) four ways:

* **pushdown (materialised)** — ``CREATE TABLE AS SELECT CASE ...``: one
  sequential scan inside the engine, labels land in a relation next to the
  tuples and never cross into Python.  This is the paper's deployment story
  and the acceptance-criterion path (>= 10x over the per-record loop).
* **pushdown (fetched)** — the same ``CASE`` scan with the label column
  fetched back into a NumPy array (what ``SqlRulePredictor.predict_batch``
  style consumers pay).
* **NumPy stream** — tuples stream *out* of the database as columnar chunks
  and the compiled rule set classifies them in process; the honest
  comparison in the other direction, since the vectorised evaluator itself
  is fast but pays for materialising half a million tuples out of storage.
* **per-record Python** — ``predict_record`` over streamed row dicts, the
  loop an application without either batch path would write.

All four paths must agree label for label.  Results append to
``BENCH_db.json`` at the repository root; the timed sides take the best of
three runs so a noisy CI neighbour cannot fail the ratio spuriously.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.db.predictor import SqlRulePredictor
from repro.db.store import TupleStore
from repro.serving.reference import reference_ruleset

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_db.json"

FUNCTION = 4
N_TUPLES = 500_000
CHUNK_SIZE = 100_000
REPEATS = 3
REQUIRED_SPEEDUP = 10.0


def best_of(repeats, run):
    seconds = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        seconds = min(seconds, time.perf_counter() - started)
    return seconds, result


def test_bench_sql_pushdown_classification():
    """In-database CASE classification >= 10x over per-record Python."""
    n = N_TUPLES
    if os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "False"):
        n = 2 * N_TUPLES
    generator = AgrawalGenerator(function=FUNCTION, perturbation=0.05, seed=19)
    rules = reference_ruleset(FUNCTION)

    with TupleStore(agrawal_schema()) as store:
        store.create()
        started = time.perf_counter()
        loaded = store.load(generator.iter_chunks(n, chunk_size=CHUNK_SIZE))
        load_seconds = time.perf_counter() - started
        assert loaded == n

        predictor = SqlRulePredictor(rules, store=store)

        # Direction 1a: pushdown, labels materialised inside the database.
        materialize_seconds, written = best_of(
            REPEATS, lambda: predictor.classify_into("bench_labels", drop=True)
        )
        assert written == n

        # Direction 1b: pushdown, labels fetched back into Python.
        fetch_seconds, pushdown_labels = best_of(
            REPEATS, predictor.classify_stored
        )

        # Direction 2: stream tuples out, classify with the compiled rules.
        compiled = rules.compiled()

        def numpy_stream():
            return np.concatenate(
                [
                    compiled.predict_batch(chunk)
                    for chunk in store.iter_chunks(chunk_size=CHUNK_SIZE)
                ]
            )

        numpy_seconds, numpy_labels = best_of(REPEATS, numpy_stream)

        # Baseline: the per-record Python loop (run once; it is the slow side).
        started = time.perf_counter()
        per_record_labels = [
            rules.predict_record(record) for record, _ in store.iter_rows()
        ]
        per_record_seconds = time.perf_counter() - started

        # The materialised labels, read back outside the timed region.
        stored_labels = [
            row[0]
            for row in store.connection.execute(
                'SELECT "predicted_class" FROM "bench_labels" ORDER BY rowid'
            )
        ]

    # Every path must produce identical labels, tuple for tuple.
    assert pushdown_labels.tolist() == per_record_labels
    assert numpy_labels.tolist() == per_record_labels
    assert stored_labels == per_record_labels

    materialize_speedup = per_record_seconds / materialize_seconds
    fetch_speedup = per_record_seconds / fetch_seconds
    numpy_speedup = per_record_seconds / numpy_seconds

    trajectory = []
    if RESULT_PATH.exists():
        trajectory = json.loads(RESULT_PATH.read_text()).get("trajectory", [])
    entry = {
        "workload": f"db_pushdown_function{FUNCTION}_{n}tuples",
        "n_tuples": n,
        "n_rules": rules.n_rules,
        "load_seconds": round(load_seconds, 4),
        "load_tuples_per_second": round(n / load_seconds, 0),
        "pushdown_materialize_seconds": round(materialize_seconds, 4),
        "pushdown_fetch_seconds": round(fetch_seconds, 4),
        "numpy_stream_seconds": round(numpy_seconds, 4),
        "per_record_seconds": round(per_record_seconds, 4),
        "pushdown_materialize_speedup": round(materialize_speedup, 1),
        "pushdown_fetch_speedup": round(fetch_speedup, 1),
        "numpy_stream_speedup": round(numpy_speedup, 1),
        # Both directions, honestly: fetching labels into Python erodes the
        # pushdown win, and the NumPy path is fast once tuples are resident
        # — its cost here is streaming them out of storage.
        "pushdown_fetch_vs_numpy_stream": round(numpy_seconds / fetch_seconds, 2),
    }
    trajectory = [t for t in trajectory if t.get("workload") != entry["workload"]]
    trajectory.append(entry)
    RESULT_PATH.write_text(
        json.dumps({"benchmark": "db", "trajectory": trajectory}, indent=2) + "\n"
    )

    print(
        f"\n[E12] {n} function-{FUNCTION} tuples: load {load_seconds:.2f}s, "
        f"pushdown {materialize_seconds:.3f}s in-db / {fetch_seconds:.3f}s "
        f"fetched, numpy-stream {numpy_seconds:.3f}s, per-record "
        f"{per_record_seconds:.2f}s -> {materialize_speedup:.1f}x / "
        f"{fetch_speedup:.1f}x / {numpy_speedup:.1f}x"
    )
    assert materialize_speedup >= REQUIRED_SPEEDUP
    # The fetched direction pays ~0.5 Python-object builds per label; it must
    # still clearly beat the per-record loop.
    assert fetch_speedup >= REQUIRED_SPEEDUP / 2


#: The mined 82-rule function-2 rule set of the performance benchmark; only
#: read here.
MINED_FIXTURE = REPO_ROOT / "perfbench" / "fixtures" / "mined_f2.json"
#: Every predictor, confusion-matrix query and CLI call renders its rule set
#: afresh, so compiling the decision tree must stay cheap next to the scan
#: it speeds up.
TREE_BUILD_BUDGET_SECONDS = 0.050


def test_bench_rule_tree_build():
    """Compiling the mined 82-rule set into its decision tree takes < 50 ms."""
    from repro.rules.rule_tree import build_rule_tree
    from repro.rules.serialization import ruleset_from_json

    mined = ruleset_from_json(MINED_FIXTURE.read_text())
    seconds, _ = best_of(
        5, lambda: build_rule_tree(mined.rules, mined.default_class)
    )
    print(f"\n[E12] decision tree for {mined.n_rules} mined rules: {1e3 * seconds:.1f} ms")
    assert seconds < TREE_BUILD_BUDGET_SECONDS
