"""Synthetic data generator of Agrawal, Imielinski and Swami (1993).

The NeuroRule paper evaluates on synthetic "bank loan" tuples with the nine
attributes of its Table 1:

============  ==========================================================
Attribute     Distribution
============  ==========================================================
salary        uniform in [20 000, 150 000]
commission    0 if salary >= 75 000, else uniform in [10 000, 75 000]
age           uniform in [20, 80]
elevel        uniform over {0, 1, 2, 3, 4}
car           uniform over {1, ..., 20}
zipcode       uniform over 9 available zip codes {0, ..., 8}
hvalue        uniform in [0.5·k·100 000, 1.5·k·100 000], k from zipcode
hyears        uniform over {1, ..., 30}
loan          uniform in [0, 500 000]
============  ==========================================================

A *perturbation factor* ``p`` (5 % in the paper's experiments) adds noise to
the numeric attributes *after* the class label has been determined, exactly
as in the original benchmark: each numeric attribute value is shifted by a
uniform random amount in ``±p·range`` and clipped back into its range.  This
means a perturbed tuple can carry a label inconsistent with its stored
attribute values, which is what makes the benchmark non-trivial.

Columnar generation
-------------------
Generation is columnar: all nine attributes are sampled as NumPy arrays in
one shot (:meth:`AgrawalGenerator.generate`), labelled with the vectorised
benchmark functions and perturbed with clipped vectorised noise, yielding a
:class:`~repro.data.dataset.Dataset` built straight from the column arrays.
A per-record reference path (:meth:`AgrawalGenerator.generate_scalar`) is
kept for equivalence testing: it samples, labels and perturbs one record
dict at a time and hands the dicts to :meth:`Dataset.from_records
<repro.data.dataset.Dataset.from_records>`, whose record view keeps them as
they are.  Every random stream is a *per-attribute* child of the seed,
consumed one value per tuple, so the scalar and columnar paths (and any
chunking of the columnar path) produce bit-identical tuples, labels and
perturbed values.

:meth:`AgrawalGenerator.iter_chunks` streams a workload as bounded-size
:class:`~repro.data.dataset.Dataset` chunks — the same type
:meth:`~AgrawalGenerator.generate` returns and training consumes, labels
carried as class-index codes — and supports *drift scenarios*: a
:class:`DriftPoint` switches the labelling function and/or the perturbation
factor mid-stream, opening concept-drift workloads on top of the classic
benchmark.

Parallel generation
-------------------
``iter_chunks(..., processes=N)`` fans chunk production out to an N-process
pool (:class:`~repro.data.fanout.ChunkFanout`): each chunk is generated by a
worker from its own deterministic seed child and handed back through shared
memory, no row ever pickled.  The parallel stream is a pure function of
``(seed, n, chunk_size)`` — invariant under the process count — and every
chunk is individually scalar-verifiable (chunk ``i`` equals
``AgrawalGenerator(seed=<child i>).generate(len(chunk))``), but it is a
*different* deterministic stream from the sequential one: per-attribute
streams restart per chunk, so the concatenation does not equal
``generate(n)`` the way the sequential chunking does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, Record
from repro.data.functions import (
    BatchLabeller,
    Labeller,
    get_batch_function,
    get_function,
)
from repro.data.schema import (
    CategoricalAttribute,
    ContinuousAttribute,
    Schema,
)
from repro.exceptions import DataGenerationError

#: Class labels used by the benchmark.
CLASSES = ("A", "B")

#: House-value base factor per zipcode, k in {1..9}: the original benchmark
#: ties the house value range to the zipcode so that zipcode is (weakly)
#: informative for functions that use hvalue.
_ZIPCODE_FACTORS = tuple(range(1, 10))

#: Numeric attributes subject to perturbation (categorical codes are not
#: perturbed, matching the original benchmark).
PERTURBED_ATTRIBUTES = ("salary", "commission", "age", "hvalue", "hyears", "loan")

#: Table-1 sampling order; fixes the per-attribute stream assignment.
ATTRIBUTE_ORDER = (
    "salary",
    "commission",
    "age",
    "elevel",
    "car",
    "zipcode",
    "hvalue",
    "hyears",
    "loan",
)


def agrawal_schema() -> Schema:
    """Return the nine-attribute schema of Table 1.

    The ``hvalue`` range spans the union over all zipcodes (0 for the lowest
    possible value up to ``1.5 * 9 * 100000``).
    """
    return Schema(
        attributes=[
            ContinuousAttribute("salary", 20_000.0, 150_000.0),
            ContinuousAttribute("commission", 0.0, 75_000.0),
            ContinuousAttribute("age", 20.0, 80.0, integer=True),
            CategoricalAttribute("elevel", tuple(range(5)), ordered=True),
            CategoricalAttribute("car", tuple(range(1, 21))),
            CategoricalAttribute("zipcode", tuple(range(9))),
            ContinuousAttribute("hvalue", 0.0, 1_350_000.0),
            ContinuousAttribute("hyears", 1.0, 30.0, integer=True),
            ContinuousAttribute("loan", 0.0, 500_000.0),
        ],
        classes=CLASSES,
    )


@dataclass(frozen=True)
class DriftPoint:
    """A mid-stream scenario switch for :meth:`AgrawalGenerator.iter_chunks`.

    At tuple index ``at`` (0-based, counted over the whole stream) the
    generator switches to labelling function ``function`` and/or perturbation
    factor ``perturbation`` for all subsequent tuples.  The attribute sample
    itself is unaffected — only the concept (labels) and/or the noise level
    drift, which is exactly the classic "sudden concept drift" workload built
    on this generator.
    """

    at: int
    function: Optional[int] = None
    perturbation: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise DataGenerationError(
                f"drift point must be at a positive tuple index, got {self.at}"
            )
        if self.function is None and self.perturbation is None:
            raise DataGenerationError(
                "a drift point must change the function and/or the perturbation"
            )
        if self.function is not None:
            get_function(self.function)  # validates the number
        if self.perturbation is not None and not (0.0 <= self.perturbation < 1.0):
            raise DataGenerationError(
                f"perturbation must be in [0, 1), got {self.perturbation}"
            )


@dataclass
class AgrawalGenerator:
    """Generator of labelled tuples for one of the ten benchmark functions.

    Parameters
    ----------
    function:
        Benchmark function number (1..10) whose definition labels the tuples.
    perturbation:
        Perturbation factor in [0, 1).  The paper uses 0.05.
    seed:
        Seed for the underlying NumPy generators — an ``int``, ``None``, or
        a pre-built :class:`numpy.random.SeedSequence` (how the parallel
        fan-out hands workers their deterministic children); generation is
        fully deterministic given the seed.  Each attribute samples from its
        own child stream (and each perturbed attribute draws noise from its
        own child stream), so the scalar reference path, the one-shot
        columnar path and the chunked streaming path all consume the
        randomness identically.
    """

    function: int = 2
    perturbation: float = 0.05
    seed: Optional[Union[int, np.random.SeedSequence]] = None
    schema: Schema = field(default_factory=agrawal_schema)

    def __post_init__(self) -> None:
        if not (0.0 <= self.perturbation < 1.0):
            raise DataGenerationError(
                f"perturbation must be in [0, 1), got {self.perturbation}"
            )
        self._labeller: Labeller = get_function(self.function)
        self._batch_labeller: BatchLabeller = get_batch_function(self.function)
        # Attribute sampling and perturbation use independent stream families
        # so that the same seed yields the same underlying tuples regardless
        # of the perturbation factor (only the stored noisy values differ).
        if isinstance(self.seed, np.random.SeedSequence):
            self._seed_root = self.seed
        else:
            self._seed_root = np.random.SeedSequence(self.seed)
        sampling_seed, noise_seed = self._seed_root.spawn(2)
        self._attr_rngs: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(child)
            for name, child in zip(ATTRIBUTE_ORDER, sampling_seed.spawn(len(ATTRIBUTE_ORDER)))
        }
        # One noise stream per perturbed attribute, drawn from unconditionally:
        # a zero commission used to skip its draw, shifting the noise applied
        # to every later attribute of that record depending on the data.
        self._noise_rngs: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(child)
            for name, child in zip(
                PERTURBED_ATTRIBUTES, noise_seed.spawn(len(PERTURBED_ATTRIBUTES))
            )
        }

    # -- raw attribute sampling -------------------------------------------

    def _sample_record(self) -> Record:
        """Sample one unlabelled record according to Table 1 (reference path).

        Integer-flagged attributes (``age``, ``hyears``) are stored as
        ``int``, matching the categorical codes; the columnar path stores the
        same values in integer-dtype arrays.  The commission draw happens
        unconditionally (and is discarded for high salaries) so the
        commission stream stays aligned with the columnar path.
        """
        rng = self._attr_rngs
        salary = float(rng["salary"].uniform(20_000.0, 150_000.0))
        commission = float(rng["commission"].uniform(10_000.0, 75_000.0))
        if salary >= 75_000.0:
            commission = 0.0
        age = int(rng["age"].integers(20, 81))
        elevel = int(rng["elevel"].integers(0, 5))
        car = int(rng["car"].integers(1, 21))
        zipcode = int(rng["zipcode"].integers(0, 9))
        k = _ZIPCODE_FACTORS[zipcode]
        hvalue = float(rng["hvalue"].uniform(0.5 * k * 100_000.0, 1.5 * k * 100_000.0))
        hyears = int(rng["hyears"].integers(1, 31))
        loan = float(rng["loan"].uniform(0.0, 500_000.0))
        return {
            "salary": salary,
            "commission": commission,
            "age": age,
            "elevel": elevel,
            "car": car,
            "zipcode": zipcode,
            "hvalue": hvalue,
            "hyears": hyears,
            "loan": loan,
        }

    def _sample_columns(self, n: int) -> Dict[str, np.ndarray]:
        """Sample ``n`` unlabelled Table-1 tuples as column arrays."""
        rng = self._attr_rngs
        salary = rng["salary"].uniform(20_000.0, 150_000.0, size=n)
        commission = rng["commission"].uniform(10_000.0, 75_000.0, size=n)
        commission[salary >= 75_000.0] = 0.0
        age = rng["age"].integers(20, 81, size=n)
        elevel = rng["elevel"].integers(0, 5, size=n)
        car = rng["car"].integers(1, 21, size=n)
        zipcode = rng["zipcode"].integers(0, 9, size=n)
        k = np.asarray(_ZIPCODE_FACTORS, dtype=float)[zipcode]
        hvalue = rng["hvalue"].uniform(0.5 * k * 100_000.0, 1.5 * k * 100_000.0)
        hyears = rng["hyears"].integers(1, 31, size=n)
        loan = rng["loan"].uniform(0.0, 500_000.0, size=n)
        return {
            "salary": salary,
            "commission": commission,
            "age": age,
            "elevel": elevel,
            "car": car,
            "zipcode": zipcode,
            "hvalue": hvalue,
            "hyears": hyears,
            "loan": loan,
        }

    # -- perturbation ------------------------------------------------------

    def _perturb(self, record: Record, perturbation: Optional[float] = None) -> Record:
        """Perturb the numeric attributes of an already-labelled record.

        Each perturbed value is clipped back into the attribute's declared
        range so the record still validates against the schema.  Zero
        commission is left at zero (the benchmark treats "no commission" as a
        structural zero, not a noisy measurement), but its noise draw still
        happens so the per-attribute noise streams stay aligned whatever the
        data looks like.
        """
        p = self.perturbation if perturbation is None else perturbation
        if p == 0.0:
            return dict(record)
        out = dict(record)
        for name in PERTURBED_ATTRIBUTES:
            attr = self.schema.attribute(name)
            value = float(out[name])  # type: ignore[arg-type]
            noise = float(self._noise_rngs[name].uniform(-1.0, 1.0))
            if name == "commission" and value == 0.0:
                continue
            delta = noise * p * attr.span  # type: ignore[union-attr]
            value = min(max(value + delta, attr.low), attr.high)  # type: ignore[union-attr]
            if getattr(attr, "integer", False):
                out[name] = int(round(value))
            else:
                out[name] = value
        return out

    def _perturb_columns(
        self, columns: Dict[str, np.ndarray], perturbation: Optional[float] = None
    ) -> Dict[str, np.ndarray]:
        """Columnar counterpart of :meth:`_perturb` (bit-compatible)."""
        p = self.perturbation if perturbation is None else perturbation
        if p == 0.0:
            return dict(columns)
        out = dict(columns)
        n = len(columns["salary"])
        for name in PERTURBED_ATTRIBUTES:
            attr = self.schema.attribute(name)
            values = columns[name].astype(float)
            noise = self._noise_rngs[name].uniform(-1.0, 1.0, size=n)
            delta = noise * p * attr.span  # type: ignore[union-attr]
            # min(max(...)) rather than np.clip: identical operation order to
            # the scalar path, so results match bit for bit.
            shifted = np.minimum(np.maximum(values + delta, attr.low), attr.high)  # type: ignore[union-attr]
            if name == "commission":
                shifted = np.where(values == 0.0, 0.0, shifted)
            if getattr(attr, "integer", False):
                out[name] = np.rint(shifted).astype(np.int64)
            else:
                out[name] = shifted
        return out

    # -- public API ---------------------------------------------------------

    def generate_record(self) -> Dataset:
        """Generate a single-record dataset (mostly useful in doctests)."""
        return self.generate(1)

    def generate(self, n: int) -> Dataset:
        """Generate ``n`` labelled, perturbed records columnar-fashion.

        All nine attribute columns are sampled in one vectorised shot,
        labelled with the vectorised benchmark function and perturbed with
        vectorised clipped noise.  Bit-identical to
        :meth:`generate_scalar` for the same seed.
        """
        if n <= 0:
            raise DataGenerationError(f"number of tuples must be positive, got {n}")
        clean = self._sample_columns(n)
        labels = self._batch_labeller(clean)
        return Dataset(self.schema, self._perturb_columns(clean), labels, validate=False)

    def generate_scalar(self, n: int) -> Dataset:
        """Generate ``n`` records through the per-record reference path.

        Kept as the executable specification of the generator: property tests
        (and the generation benchmark) check that :meth:`generate` reproduces
        this path tuple for tuple.
        """
        if n <= 0:
            raise DataGenerationError(f"number of tuples must be positive, got {n}")
        records: List[Record] = []
        labels: List[str] = []
        for _ in range(n):
            # repro: ignore[hot-path-purity] deliberate per-record reference
            # path: property tests diff it against the vectorised generate().
            clean = self._sample_record()
            labels.append(self._labeller(clean))
            records.append(self._perturb(clean))
        return Dataset.from_records(self.schema, records, labels, validate=False)

    def generate_clean(self, n: int) -> Dataset:
        """Generate ``n`` labelled records *without* perturbation.

        Useful for tests that check the generator's labelling logic exactly.
        """
        if n <= 0:
            raise DataGenerationError(f"number of tuples must be positive, got {n}")
        clean = self._sample_columns(n)
        labels = self._batch_labeller(clean)
        return Dataset(self.schema, clean, labels, validate=False)

    def generate_clean_scalar(self, n: int) -> Dataset:
        """Per-record reference path of :meth:`generate_clean`."""
        if n <= 0:
            raise DataGenerationError(f"number of tuples must be positive, got {n}")
        records: List[Record] = []
        labels: List[str] = []
        for _ in range(n):
            # repro: ignore[hot-path-purity] deliberate per-record reference
            # path: property tests diff it against the vectorised generate().
            clean = self._sample_record()
            records.append(clean)
            labels.append(self._labeller(clean))
        return Dataset.from_records(self.schema, records, labels, validate=False)

    # -- streaming ---------------------------------------------------------

    def iter_chunks(
        self,
        n: int,
        chunk_size: int = 100_000,
        drift: Optional[Sequence[DriftPoint]] = None,
        processes: Optional[int] = None,
    ) -> Iterator[Dataset]:
        """Stream ``n`` tuples as bounded-size :class:`Dataset` chunks.

        Memory stays bounded by ``chunk_size`` whatever ``n`` is, and labels
        travel as class-index codes (``chunk.label_codes``) — the string
        materialisation the rest of the pipeline never needs is deferred to
        whoever asks for ``chunk.labels``.

        Sequentially (``processes`` unset or 1) the concatenation of all
        chunks equals :meth:`generate(n) <generate>` for the same seed
        (per-attribute streams are consumed contiguously, and chunked NumPy
        draws match one-shot draws value for value).

        ``processes=N`` (N > 1) fans chunk production out to an N-process
        shared-memory pool: chunk ``i`` is generated by a worker seeded with
        this generator's deterministic child ``i``, so the stream is a pure
        function of ``(seed, n, chunk_size)`` — invariant under the process
        count and repeatable call after call — but it is *not* the same
        stream the sequential path produces (per-attribute streams restart
        at each chunk boundary).  Drift scenarios are sequential-only.

        ``drift`` points split chunks at their ``at`` offsets and switch the
        labelling function and/or perturbation factor for everything after —
        the concept-drift scenario hook.  Drift points at or beyond ``n`` are
        ignored.
        """
        if n <= 0:
            raise DataGenerationError(f"number of tuples must be positive, got {n}")
        if chunk_size <= 0:
            raise DataGenerationError(
                f"chunk size must be positive, got {chunk_size}"
            )
        if processes is not None and processes < 1:
            raise DataGenerationError(
                f"process count must be >= 1, got {processes}"
            )
        if processes is not None and processes > 1:
            if drift:
                raise DataGenerationError(
                    "drift scenarios require sequential generation; drop "
                    "processes= or the drift points"
                )
            return self._iter_chunks_parallel(n, chunk_size, processes)
        return self._iter_chunks_sequential(n, chunk_size, drift)

    def _iter_chunks_sequential(
        self,
        n: int,
        chunk_size: int,
        drift: Optional[Sequence[DriftPoint]],
    ) -> Iterator[Dataset]:
        points = sorted(drift or [], key=lambda point: point.at)
        offsets = [point.at for point in points]
        if len(set(offsets)) != len(offsets):
            raise DataGenerationError(
                f"drift points must have distinct offsets, got {offsets}"
            )
        batch_labeller = self._batch_labeller
        perturbation = self.perturbation
        position = 0
        pending = list(points)
        generated = obs.counter(
            "repro_generate_tuples_total", "Tuples produced by the generator"
        )
        index = 0
        while position < n:
            end = min(position + chunk_size, n)
            if pending and pending[0].at < end:
                end = pending[0].at  # pending offsets are always > position
            count = end - position
            # The span closes before the yield: it measures production, not
            # the consumer's time holding the chunk.
            with obs.trace(
                "generate.chunk", chunk=index, rows=count, function=self.function
            ):
                clean = self._sample_columns(count)
                chunk = Dataset(
                    self.schema,
                    self._perturb_columns(clean, perturbation),
                    batch_labeller(clean),
                    validate=False,
                )
            generated.inc(count)
            index += 1
            yield chunk
            # Held through the next chunk's sampling, these would keep one
            # more chunk's columns alive.
            del clean, chunk
            position = end
            while pending and pending[0].at <= position:
                point = pending.pop(0)
                if point.function is not None:
                    batch_labeller = get_batch_function(point.function)
                if point.perturbation is not None:
                    perturbation = point.perturbation

    def _chunk_seed(self, index: int) -> np.random.SeedSequence:
        """Deterministic seed child for parallel chunk ``index``.

        Children extend this generator's root spawn key at offset 2 —
        children 0 and 1 are the sampling/noise streams — so they never
        collide with the sequential path's streams and are identical on
        every call whatever the process count.
        """
        root = self._seed_root
        return np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=tuple(root.spawn_key) + (2 + index,),
        )

    def _iter_chunks_parallel(
        self, n: int, chunk_size: int, processes: int
    ) -> Iterator[Dataset]:
        # Imported here: fanout pulls in concurrent.futures/multiprocessing,
        # which pure in-process generation never needs.
        from repro.data.fanout import ChunkFanout

        counts = [chunk_size] * (n // chunk_size)
        if n % chunk_size:
            counts.append(n % chunk_size)
        jobs = [
            (
                (
                    self.function,
                    self.perturbation,
                    self._chunk_seed(index),
                    count,
                    self.schema,
                ),
                {},
            )
            for index, count in enumerate(counts)
        ]
        pool = ChunkFanout(self.schema, processes)
        generated = obs.counter(
            "repro_generate_tuples_total", "Tuples produced by the generator"
        )

        def counted() -> Iterator[Dataset]:
            for chunk in pool.imap(_generate_parallel_chunk, jobs):
                generated.inc(len(chunk))
                yield chunk

        return counted()

    def train_test(self, n_train: int, n_test: int) -> Dict[str, Dataset]:
        """Generate independent training and testing datasets.

        The paper trains on 1 000 tuples and tests on 1 000 tuples for the
        accuracy table, and additionally on 5 000 and 10 000 tuples for
        Table 3.
        """
        return {"train": self.generate(n_train), "test": self.generate(n_test)}


def _generate_parallel_chunk(
    function: int,
    perturbation: float,
    seed: np.random.SeedSequence,
    count: int,
    schema: Schema,
) -> Dataset:
    """Fan-out worker body: one whole chunk from its own seed child.

    Top-level (not a method) so the pool can pickle it by reference under
    any start method; the worker builds a throwaway generator, produces the
    chunk columnar-fashion, and the fan-out layer parks it in shared memory.
    """
    generator = AgrawalGenerator(
        function=function, perturbation=perturbation, seed=seed, schema=schema
    )
    return generator.generate(count)


def generate_function_dataset(
    function: int,
    n: int,
    perturbation: float = 0.05,
    seed: Optional[int] = None,
) -> Dataset:
    """One-call convenience wrapper around :class:`AgrawalGenerator`."""
    return AgrawalGenerator(function=function, perturbation=perturbation, seed=seed).generate(n)


def class_balance_report(datasets: Sequence[Dataset]) -> List[float]:
    """Return the majority-class fraction of each dataset.

    The experiment harness uses this to reproduce the paper's exclusion of
    functions 8 and 10 ("highly skewed data").
    """
    return [d.class_skew() for d in datasets]
