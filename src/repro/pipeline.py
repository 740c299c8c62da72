# repro: hot-path
"""The chunk-fabric pipeline: generate → classify → store on one machine.

:func:`run_pipeline` wires the three data-plane stages of the reproduction
together over the library's one dataset type,
:class:`~repro.data.dataset.Dataset` — the type training consumes too —
with zero-copy hand-offs at every boundary:

* **generate** — :meth:`AgrawalGenerator.iter_chunks
  <repro.data.agrawal.AgrawalGenerator.iter_chunks>` emits dataset chunks
  (optionally from an N-process fan-out pool writing columns into shared
  memory);
* **classify** — :meth:`PredictionService.predict_chunks
  <repro.serving.service.PredictionService.predict_chunks>` swaps each
  chunk's label *codes* for the predicted ones (attribute rules evaluate on
  the chunk's columns directly; labels never become Python strings);
* **store** — :meth:`TupleStore.load <repro.db.store.TupleStore.load>`
  consumes the labelled chunk stream, on the raw-page writer when the target
  is an empty file-backed store (:mod:`repro.db.fastload`), zipping chunk
  columns otherwise.

Because the stages are generators pulling from each other and the service
classifies on a thread pool, classification of chunk *i + 1* overlaps the
store append of chunk *i*; at no point does more than a bounded window of
chunks exist in memory on the generate/classify side.

Per-stage seconds are *wall-clock attribution*, not exclusive CPU time: they
measure how long the driving thread waited on each stage's iterator
(``classify_seconds`` excludes the generate time nested inside its pulls,
``store_seconds`` is the remainder of the total).  The headline number is
``tuples_per_second`` — sustained end-to-end throughput over the whole run.

Stage attribution is built on :mod:`repro.obs` spans: every pull from a
stage iterator is a ``pipeline.generate.wait`` / ``pipeline.classify.wait``
span under the run's ``pipeline.run`` root, so enabling tracing
(``--trace``) yields a per-chunk wait profile of the same numbers the
:class:`PipelineResult` reports in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro import obs
from repro.data.agrawal import AgrawalGenerator
from repro.data.dataset import Dataset
from repro.db.store import TupleStore
from repro.exceptions import ReproError
from repro.serving.models import KIND_RULES, ServableModel
from repro.serving.reference import reference_ruleset
from repro.serving.registry import ModelRegistry
from repro.serving.service import PredictionService, ServiceConfig

#: Default chunk size: large enough that per-chunk dispatch overhead is
#: negligible, small enough that the in-flight window stays tens of MB.
DEFAULT_CHUNK_SIZE = 200_000


@dataclass
class PipelineResult:
    """Outcome and timing attribution of one :func:`run_pipeline` run."""

    n_tuples: int
    function: int
    model_function: int
    perturbation: float
    seed: int
    chunk_size: int
    processes: int
    workers: int
    db_path: str
    store_method: str
    generate_seconds: float
    classify_seconds: float
    store_seconds: float
    total_seconds: float
    class_distribution: Dict[str, int] = field(default_factory=dict)

    @property
    def tuples_per_second(self) -> float:
        """Sustained end-to-end throughput (the acceptance-criterion number)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.n_tuples / self.total_seconds

    def describe(self) -> str:
        return (
            f"{self.n_tuples} function-{self.function} tuple(s) "
            f"generate->classify->store in {self.total_seconds:.2f}s "
            f"({self.tuples_per_second:,.0f} tuples/s sustained; waited "
            f"generate {self.generate_seconds:.2f}s, classify "
            f"{self.classify_seconds:.2f}s, store {self.store_seconds:.2f}s)"
        )


#: Sentinel distinguishing exhaustion from a yielded chunk in the timed pull.
_DONE = object()


class _StageTimer:
    """Accumulates the wall-clock time spent pulling from one iterator.

    Each pull is an obs span (``pipeline.<stage>.wait``), so the aggregate
    ``seconds`` the :class:`PipelineResult` reports and the per-chunk trace
    are the same measurement.  With tracing disabled the span degenerates to
    two clock reads — exactly the hand-rolled stopwatch this replaces.
    """

    __slots__ = ("seconds", "span_name")

    def __init__(self, span_name: str) -> None:
        self.seconds = 0.0
        self.span_name = span_name

    def wrap(self, chunks: Iterable[Dataset]) -> Iterator[Dataset]:
        iterator = iter(chunks)
        index = 0
        while True:
            with obs.trace(self.span_name, chunk=index) as span:
                chunk = next(iterator, _DONE)
                if chunk is not _DONE:
                    span.set(rows=len(chunk))
            self.seconds += span.seconds
            if chunk is _DONE:
                return
            index += 1
            yield chunk


def run_pipeline(
    n: int,
    function: int = 1,
    perturbation: float = 0.0,
    seed: int = 7,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    processes: int = 1,
    workers: int = 2,
    db_path: str = ":memory:",
    table: str = "tuples",
    store_method: str = "auto",
    model_function: Optional[int] = None,
    drop: bool = False,
    index_label: bool = False,
) -> PipelineResult:
    """Run generate → classify → store through the chunk fabric.

    Parameters
    ----------
    n:
        Tuples to push through the pipeline.
    function / perturbation / seed:
        Generator configuration (see :class:`AgrawalGenerator`).
    chunk_size:
        Tuples per chunk at every hand-off.
    processes:
        Generation fan-out: ``1`` generates sequentially (bit-identical to
        :meth:`AgrawalGenerator.generate`), ``>1`` uses the shared-memory
        worker pool of :mod:`repro.data.fanout`.
    workers:
        Classification threads of the :class:`PredictionService`.
    db_path / table:
        Target store.  A file path with a fresh (or ``drop``-ed) table takes
        the raw-page bulk writer; ``":memory:"`` falls back to driver rows.
    store_method:
        Forwarded to :meth:`TupleStore.load` (``"auto"``/``"rows"``/``"raw"``).
    model_function:
        Reference rule set to classify with; defaults to ``function``.  Must
        be one of the functions with a ground-truth rule set (1–4).
    drop:
        Recreate the target table even if it holds tuples.
    index_label:
        Build the label index as part of the run.  Off by default: a bulk
        load has no lookups to serve mid-run, and rebuilding the index costs
        about as much as the raw page write itself — run ``store.create()``
        on the loaded database afterwards to add it (``db load`` keeps its
        indexed default).
    """
    if n < 1:
        raise ReproError(f"pipeline needs n >= 1 tuples, got {n}")
    if model_function is None:
        model_function = function
    # Fails fast (ServingError) when model_function has no reference rules.
    ruleset = reference_ruleset(model_function)
    generator = AgrawalGenerator(function=function, perturbation=perturbation, seed=seed)

    registry = ModelRegistry()
    registry.register(
        ServableModel(
            name=f"reference-f{model_function}",
            kind=KIND_RULES,
            predictor=ruleset,
            source="reference",
        )
    )

    generate_timer = _StageTimer("pipeline.generate.wait")
    classify_timer = _StageTimer("pipeline.classify.wait")
    with obs.trace(
        "pipeline.run",
        n=n,
        function=function,
        chunk_size=chunk_size,
        processes=processes,
        workers=workers,
    ) as run_span:
        with TupleStore(generator.schema, path=db_path, table=table) as store:
            store.create(drop=drop, index_label=index_label)
            with PredictionService(registry, ServiceConfig(workers=workers)) as service:
                generated = generate_timer.wrap(
                    generator.iter_chunks(n, chunk_size=chunk_size, processes=processes)
                )
                labelled = classify_timer.wrap(
                    service.predict_chunks(f"reference-f{model_function}", generated)
                )
                loaded = store.load(labelled, method=store_method)
            run_span.close()
            total_seconds = run_span.seconds
            # Outside the timed region: a convenience read, not pipeline work.
            distribution = store.class_distribution()
    obs.counter(
        "repro_pipeline_tuples_total", "Tuples pushed end-to-end through run_pipeline"
    ).inc(loaded)
    if loaded != n:
        raise ReproError(f"pipeline stored {loaded} of {n} tuple(s)")

    return PipelineResult(
        n_tuples=n,
        function=function,
        model_function=model_function,
        perturbation=perturbation,
        seed=seed,
        chunk_size=chunk_size,
        processes=processes,
        workers=workers,
        db_path=db_path,
        store_method=store_method,
        generate_seconds=generate_timer.seconds,
        classify_seconds=max(0.0, classify_timer.seconds - generate_timer.seconds),
        store_seconds=max(0.0, total_seconds - classify_timer.seconds),
        total_seconds=total_seconds,
        class_distribution=distribution,
    )


__all__ = ["DEFAULT_CHUNK_SIZE", "PipelineResult", "run_pipeline"]
