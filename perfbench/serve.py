"""``serve``: single-record traffic through the micro-batching service.

Phases, in this order (the overload ladder runs last so an overloaded rung
cannot leave a backlog behind for the others):

1. ``light`` — open loop at a fixed 10k requests/s of single-record
   ``PredictionService.submit`` calls against the 3-rule function-2
   reference rule set, in windows; latency runs from each request's *due*
   time.  ``latency_ms`` is the median window's p50.
2. ``stream`` — closed loop: a dict-record stream through
   ``predict_stream_batches`` against the mined 82-rule fixture, repeated
   in passes; ``tuples_per_s`` is all records over all pass time.  Stream
   passes run after each light window, on their own service.
3. ``ladder`` — traced run only: open-loop rungs at fixed rates, each on a
   fresh service.  A rung passes when p99 <= 50 ms, nothing failed and the
   backlog did not grow; the highest rung below the first failing one is
   the per-layer diagnostic ``serving.max_rate_rps`` (it moves too much
   from run to run to be an end-to-end metric).

The generator sleeps until the next request is due and then sends every
overdue request; it never spins, because a spinning generator holds the
interpreter lock away from the service's flusher thread.
"""

from __future__ import annotations

import gc
import queue
import threading
import time
from typing import List, Optional, Sequence

from common import Phase, Report, log, median, now, percentile, peak_rss_mb

from repro import obs
from repro.data.agrawal import AgrawalGenerator
from repro.serving import ModelRegistry, PredictionService, ServiceConfig
from repro.serving.models import ServableModel
from repro.serving.reference import reference_ruleset

import fixture

LIGHT_RATE = 10_000
#: 50k, then 10 % steps from 100k to ~380k requests/s.
LADDER = (50_000,) + tuple(int(round(100_000 * 1.1**k, -3)) for k in range(15))
P99_LIMIT_MS = 50.0
#: A failed rung is run once more before the ladder stops, so one transient
#: stall of the machine does not end the ladder early.
RUNG_ATTEMPTS = 2
RUNG_SECONDS = 0.5
#: Blocks of a light window followed by stream passes; the window takes
#: LIGHT_SHARE of each block.  The stream gets the rest: its rate is
#: CPU-bound and noisier than latency at a light rate.
BLOCKS = 6
LIGHT_SHARE = 0.25
N_REQUEST_RECORDS = 100_000
N_STREAM_RECORDS = 100_000
#: Responses checked against RuleSet.predict_record: the first CHECKED
#: distinct request records (every request that reuses one is checked).
CHECKED = 2048
SETUP_REPEATS = 5
REFERENCE = "reference-f2"
MINED = "mined-f2"


class Inputs:
    """Generated request records, the served models and expected labels."""

    def __init__(self, seed: int) -> None:
        self.records = (
            AgrawalGenerator(function=2, perturbation=0.0, seed=seed)
            .generate(N_REQUEST_RECORDS)
            .records
        )
        self.stream = (
            AgrawalGenerator(function=2, perturbation=0.0, seed=seed + 1)
            .generate(N_STREAM_RECORDS)
            .records
        )
        self.reference = reference_ruleset(2)
        self.mined = fixture.load_ruleset()
        self.expected_reference = [
            self.reference.predict_record(r) for r in self.records[:CHECKED]
        ]
        self.expected_mined = [self.mined.predict_record(r) for r in self.stream[:CHECKED]]

    def registry(self) -> ModelRegistry:
        registry = ModelRegistry()
        registry.register(ServableModel(REFERENCE, "rules", self.reference))
        registry.register(ServableModel(MINED, "rules", self.mined))
        return registry


class OpenLoop:
    """One open-loop phase: ``rate`` requests/s for ``seconds``."""

    def __init__(self, service, inputs: Inputs, rate: int, seconds: float, timed: bool) -> None:
        self.service = service
        self.inputs = inputs
        self.rate = rate
        self.n = max(1, int(rate * seconds))
        self.timed = timed
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.submit_seconds: List[float] = []
        self.sent = 0
        self.wrong = 0
        # Each list is appended by one thread only: the generator's submit
        # errors and the collector's result errors.
        self.submit_errors: List[str] = []
        self.result_errors: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.submit_errors) + len(self.result_errors)

    def _collect(self, pending: "queue.SimpleQueue", deadline: float) -> None:
        expected = self.inputs.expected_reference
        m = len(self.inputs.records)
        while True:
            item = pending.get()
            if item is None:
                return
            due, index, handle = item
            try:
                label = handle.result(timeout=max(deadline - now(), 0.0))
            except Exception as exc:  # counted and reported, never raised
                self.result_errors.append(repr(exc))
                continue
            self.latencies.append(now() - due)
            position = index % m
            if position < CHECKED and label != expected[position]:
                self.wrong += 1

    def run(self) -> "OpenLoop":
        records = self.inputs.records
        m = len(records)
        interval = 1.0 / self.rate
        submit = self.service.submit
        pending: "queue.SimpleQueue" = queue.SimpleQueue()
        start = now() + 0.005
        # Results still missing 60 s after the last request was due fail.
        deadline = start + self.n * interval + 60.0
        collector = threading.Thread(
            target=self._collect, args=(pending, deadline), name="bench-collector"
        )
        collector.start()
        try:
            i = 0
            while i < self.n:
                t = now()
                due = start + i * interval
                if due > t:
                    time.sleep(due - t)
                    continue
                while i < self.n and due <= t:
                    sent_at = now()
                    self.late.append(sent_at - due)
                    try:
                        handle = submit(REFERENCE, records[i % m])
                    except Exception as exc:  # counted and reported, never raised
                        self.submit_errors.append(repr(exc))
                    else:
                        if self.timed:
                            self.submit_seconds.append(now() - sent_at)
                        pending.put((due, i, handle))
                    i += 1
                    due = start + i * interval
            self.sent = i
        finally:
            pending.put(None)
            collector.join()
        return self

    def latency_ms(self, q: float) -> float:
        return 1e3 * percentile(self.latencies, q) if self.latencies else float("inf")

    def backlog_grew(self) -> bool:
        """Whether latency kept climbing: the last quarter's median latency
        exceeds the second quarter's by more than 10 ms."""
        q = len(self.latencies) // 4
        if q < 10:
            return False
        second = median(self.latencies[q : 2 * q])
        last = median(self.latencies[3 * q :])
        return last - second > 0.010

    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.wrong == 0
            and len(self.latencies) == self.n
            and self.latency_ms(99) <= P99_LIMIT_MS
            and not self.backlog_grew()
        )

    def account(self, phase: Phase) -> None:
        phase.attempted += self.n
        lost = self.n - len(self.latencies) - self.failed
        if self.failed:
            errors = (self.submit_errors + self.result_errors)[:2]
            phase.fail(f"{self.failed} request(s) raised: {errors}", self.failed)
        if lost:
            phase.fail(f"{lost} request(s) never sent", lost)
        if self.wrong:
            phase.fail(f"{self.wrong} sampled response(s) differ from predict_record", self.wrong)


def stream_pass(service, inputs: Inputs, phase: Phase) -> float:
    """One closed-loop pass of the record stream; returns its seconds."""
    records = inputs.stream
    start = now()
    batches = list(service.predict_stream_batches(MINED, iter(records)))
    seconds = now() - start
    got = sum(len(b) for b in batches)
    phase.attempted += len(records)
    if got != len(records):
        phase.fail(f"stream returned {got} of {len(records)} labels", abs(len(records) - got))
        return seconds
    head: List[str] = []
    for batch in batches:
        head.extend(batch[: CHECKED - len(head)])
        if len(head) >= CHECKED:
            break
    wrong = sum(a != b for a, b in zip(head, inputs.expected_mined))
    if wrong:
        phase.fail(f"{wrong} sampled stream label(s) differ from predict_record", wrong)
    return seconds


def flush_count(reason: str) -> float:
    """``repro_serve_flush_total`` of the reference model for one trigger."""
    key = f'repro_serve_flush_total{{model="{REFERENCE}",reason="{reason}"}}'
    return obs.metrics_snapshot().get(key, 0.0)


def run(ctx) -> None:
    seed, seconds, spans, report = ctx.seed, ctx.seconds, ctx.spans, ctx.report
    traced = spans.enabled
    for _ in range(SETUP_REPEATS):
        start = now()
        inputs = Inputs(seed)
        with PredictionService(inputs.registry(), ServiceConfig()) as service:
            OpenLoop(service, inputs, LIGHT_RATE, 0.2, timed=False).run()
            list(service.predict_stream_batches(MINED, iter(inputs.stream[:20_000])))
        ctx.setup.record(now() - start)
    # The request records are the client's data, not the service's: keep the
    # garbage collector from re-scanning them on every full collection.
    gc.freeze()
    if traced:
        spans.wrap(ServableModel, "predict_batch", "inference.predict_batch")

    # 1 and 2, interleaved: a light window, then stream passes, so both
    # metrics pool samples from the whole run, not one stretch of it.
    light = report.phase("light")
    stream = report.phase("stream")
    flushes = {reason: flush_count(reason) for reason in ("delay", "full")}
    windows: List[OpenLoop] = []
    passes: List[float] = []
    light_spans, stream_spans = [], []
    window_seconds = LIGHT_SHARE * seconds / BLOCKS
    stream_seconds = (1 - LIGHT_SHARE) * seconds / BLOCKS
    with PredictionService(inputs.registry(), ServiceConfig()) as light_service, \
            PredictionService(inputs.registry(), ServiceConfig()) as stream_service:
        for _ in range(BLOCKS):
            started = now()
            window = OpenLoop(light_service, inputs, LIGHT_RATE, window_seconds, traced)
            windows.append(window.run())
            light_spans += spans.named("inference.predict_batch", started, now())
            started = now()
            while now() - started < stream_seconds:
                passes.append(stream_pass(stream_service, inputs, stream))
            stream_spans += spans.named("inference.predict_batch", started, now())
        stats = light_service.stats(REFERENCE)
    for window in windows:
        window.account(light)
    log("stream passes (s): " + " ".join(f"{x:.3f}" for x in passes))
    report.metric("latency_ms", median([w.latency_ms(50) for w in windows]), "ms")
    # Sustained rate over every pass (see warehouse.py on medians of repeats).
    report.metric("tuples_per_s", len(passes) * N_STREAM_RECORDS / sum(passes), "1/s")
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    if not traced:
        return

    light_batches = [s.seconds for s in light_spans]
    stream_batches = [s.seconds for s in stream_spans]
    latencies = [x for w in windows for x in w.latencies]
    report.layer("inference.batch_ms.light_p50", 1e3 * percentile(light_batches, 50), "ms")
    report.layer("inference.batch_ms.light_p99", 1e3 * percentile(light_batches, 99), "ms")
    report.layer("inference.batch_ms.stream_p50", 1e3 * percentile(stream_batches, 50), "ms")
    report.layer("inference.batch_ms.stream_p99", 1e3 * percentile(stream_batches, 99), "ms")
    report.layer(
        "serving.queue_wait_ms",
        1e3 * (percentile(latencies, 50) - percentile(light_batches, 50)),
        "ms",
    )
    report.layer("serving.batch_size", stats.mean_batch_size, "count")
    report.layer("serving.batches", stats.batches, "count")
    for reason, before in flushes.items():
        report.layer(f"serving.flush_{reason}", flush_count(reason) - before, "count")
    phase_layers(report, "light", windows)
    report.layer("serving.sent.stream", stream.attempted, "count")
    report.layer("serving.failed.stream", stream.failed, "count")

    # 3. overload ladder, last, so an overloaded rung cannot leave a backlog
    # for the other phases; stops at the first rung that fails twice
    ladder = report.phase("ladder")
    top: Optional[OpenLoop] = None
    submit_seconds = [x for w in windows for x in w.submit_seconds]
    for rate in LADDER:
        for _ in range(RUNG_ATTEMPTS):
            gc.collect()
            with PredictionService(inputs.registry(), ServiceConfig()) as service:
                rung = OpenLoop(service, inputs, rate, RUNG_SECONDS, timed=True).run()
            rung.account(ladder)
            submit_seconds.extend(rung.submit_seconds)
            log(
                f"rung {rate}: p99={rung.latency_ms(99):.2f} ms "
                f"late_p99={1e3 * percentile(rung.late, 99):.2f} ms "
                f"backlog_grew={rung.backlog_grew()} passed={rung.passed()}"
            )
            if rung.passed():
                break
        if not rung.passed():
            phase_layers(report, "knee", [rung])
            break
        top = rung
    if top is not None:
        phase_layers(report, "top", [top])
    report.layer("serving.max_rate_rps", top.rate if top is not None else 0, "1/s")
    report.layer("serving.submit_us", 1e6 * percentile(submit_seconds, 50), "us")


def phase_layers(report: Report, name: str, loops: Sequence[OpenLoop]) -> None:
    """Diagnostics of one open-loop phase (its windows pooled)."""
    latencies = [x for loop in loops for x in loop.latencies]
    late = [x for loop in loops for x in loop.late]
    report.layer(f"serving.rung_p99_ms.{name}", 1e3 * percentile(latencies, 99), "ms")
    report.layer(f"serving.generator_late_ms.{name}", 1e3 * percentile(late, 99), "ms")
    report.layer(f"serving.sent.{name}", sum(loop.sent for loop in loops), "count")
    report.layer(
        f"serving.failed.{name}", sum(loop.failed + loop.wrong for loop in loops), "count"
    )
