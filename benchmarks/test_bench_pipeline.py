"""Benchmark E13 — the chunk-fabric pipeline: generate → classify → store.

One million perturbation-free function-1 Agrawal tuples flow through
:func:`repro.pipeline.run_pipeline` on one machine: multi-process generation
into shared-memory chunks, reference-rule classification on the chunk columns
(labels stay ``int64`` code arrays end-to-end), and a raw-page bulk write
into a file-backed SQLite store.  No stage ever builds a per-record dict.

The headline number is **sustained end-to-end tuples/second** over the whole
run — wall clock from the first generated chunk to the last stored page, best
of three runs (each into a fresh database file).  The acceptance floor for
the fabric is 500 k tuples/s sustained with 1 M tuples/s as the stretch
target; the assertion below is deliberately lower so a noisy CI neighbour
cannot fail the build, while the committed trajectory records the real
measurement.

Correctness rides along: after the timed runs the stored rows are read back
and must match, value for value, what the same chunk stream delivers
directly — and the predicted labels must agree with the scalar
``predict_record`` reference on a prefix sample.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.data.agrawal import AgrawalGenerator
from repro.db.store import TupleStore
from repro.pipeline import run_pipeline
from repro.serving.reference import reference_ruleset

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_pipeline.json"

FUNCTION = 1
N_TUPLES = 1_000_000
CHUNK_SIZE = 200_000
PROCESSES = 4
REPEATS = 3
#: CI-safe assertion floor; the fabric's acceptance target is 500k sustained
#: (1M stretch) and the committed trajectory must report a run meeting it.
REQUIRED_TPS = 200_000
SAMPLE = 2_000


def test_bench_pipeline_sustained_throughput(tmp_path):
    """Generate → classify → store sustains the fabric throughput floor."""
    n = N_TUPLES
    if os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "False"):
        n = 2 * N_TUPLES

    best = None
    for repeat in range(REPEATS):
        db_path = str(tmp_path / f"pipeline_{repeat}.db")
        result = run_pipeline(
            n,
            function=FUNCTION,
            perturbation=0.0,
            seed=7,
            chunk_size=CHUNK_SIZE,
            processes=PROCESSES,
            db_path=db_path,
        )
        if best is None or result.total_seconds < best[0].total_seconds:
            best = (result, db_path)
    result, db_path = best

    # ---- correctness: stored bytes match the chunk stream ----------------
    generator = AgrawalGenerator(function=FUNCTION, perturbation=0.0, seed=7)
    expected = list(
        generator.iter_chunks(n, chunk_size=CHUNK_SIZE, processes=PROCESSES)
    )
    with TupleStore(generator.schema, path=db_path) as store:
        assert store.count() == n
        stored = list(store.iter_chunks(chunk_size=CHUNK_SIZE))
    for stored_chunk, expected_chunk in zip(stored, expected):
        for name in generator.schema.attribute_names:
            assert np.array_equal(
                stored_chunk.column(name), expected_chunk.column(name)
            ), f"stored column {name!r} diverged from the generated stream"
    stored_labels = np.concatenate([chunk.label_array() for chunk in stored])
    # Clean tuples + the ground-truth rule set: predicted == generated labels.
    generated_labels = np.concatenate(
        [chunk.label_array() for chunk in expected]
    )
    assert stored_labels.tolist() == generated_labels.tolist()
    # And the chunk path agrees with the scalar reference on a prefix sample.
    rules = reference_ruleset(FUNCTION)
    sample = expected[0].subset(slice(0, SAMPLE))
    scalar = [rules.predict_record(record) for record in sample.records]
    assert stored_labels[:SAMPLE].tolist() == scalar

    tps = result.tuples_per_second
    trajectory = []
    if RESULT_PATH.exists():
        trajectory = json.loads(RESULT_PATH.read_text()).get("trajectory", [])
    entry = {
        "workload": f"pipeline_function{FUNCTION}_{n}tuples",
        "n_tuples": n,
        "chunk_size": CHUNK_SIZE,
        "processes": PROCESSES,
        "workers": result.workers,
        "store_method": result.store_method,
        "generate_wait_seconds": round(result.generate_seconds, 4),
        "classify_wait_seconds": round(result.classify_seconds, 4),
        "store_wait_seconds": round(result.store_seconds, 4),
        "total_seconds": round(result.total_seconds, 4),
        "tuples_per_second": round(tps, 0),
    }
    trajectory = [t for t in trajectory if t.get("workload") != entry["workload"]]
    trajectory.append(entry)
    RESULT_PATH.write_text(
        json.dumps({"benchmark": "pipeline", "trajectory": trajectory}, indent=2)
        + "\n"
    )

    print(
        f"\n[E13] {n} function-{FUNCTION} tuples generate->classify->store: "
        f"{result.total_seconds:.2f}s sustained {tps:,.0f} tuples/s (waited "
        f"generate {result.generate_seconds:.2f}s, classify "
        f"{result.classify_seconds:.2f}s, store {result.store_seconds:.2f}s)"
    )
    assert tps >= REQUIRED_TPS
