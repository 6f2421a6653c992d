"""The three benchmark workloads, their correctness checks and their traces.

* ``query-closed``: one closed-loop client calls ``LOVO.query`` in-process.
* ``serve-open``: evenly spaced open-loop requests into ``ServingEngine.submit``.
* ``ingest-stream``: scheduled segments into ``StreamingIngestor`` while one
  closed-loop client queries.

Each workload returns an :class:`Outcome`: end-to-end metrics (always), the
per-layer metrics of the traced run (``trace=True``), attempt and failure
counts, correctness failures, and run facts recorded next to the result.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.core.storage import LOVOStorage
from repro.core.summary import VideoSummarizer
from repro.encoders.cross_modal import CrossModalityReranker
from repro.encoders.text import TextEncoder
from repro.encoders.vision import VisionEncoder
from repro.errors import ServiceOverloadedError
from repro.eval.metrics import evaluate_results
from repro.eval.workloads import QuerySpec, all_queries, build_ground_truth
from repro.keyframes.base import make_extractor
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import ServingEngine
from repro.stream import StreamingIngestor
from repro.video.datasets import make_dataset
from repro.video.model import VideoDataset, concat_datasets

import loadgen
import spans
from hostspeed import HostSpeed
from stats import median, percentile, require_percentile

SCENES = ("cityscapes", "bellevue", "qvhighlights", "beach")

#: Corpus of query-closed and serve-open: every Table II dataset, 3 videos x
#: 300 frames (the library default size, seed 0, as in Table II).
FULL_CORPUS = (3, 300)
#: Offline base corpus of ingest-stream, also ingested under tracemalloc for
#: ``storage.bytes_per_entity``: one 150-frame video per scene.
BASE_CORPUS = (1, 150)
#: Each streamed segment is one 30-frame video of one scene.
SEGMENT_FRAMES = 30
#: Segments arrive this many seconds apart on ingest-stream.
SEGMENT_PERIOD_S = 0.25

#: p90 needs 100 samples (10 beyond it), so every run completes this many.
MIN_SAMPLES = 100
#: The interactive-search limit a request must meet to count as goodput.
LATENCY_LIMIT_S = 1.0
#: A request or segment not answered within this long has failed.
TIMEOUT_S = 60.0

#: serve-open offered load, fixed; README.md relates it to measured capacity.
SERVE_RATE_QPS = 1.75
#: serve-open text pool: the 16 Table II texts plus composed texts.  The pool
#: and its popularity order are part of the workload, so their seed is fixed;
#: ``--seed`` orders the requests.
SERVE_POOL_SIZE = 400
SERVE_POOL_SEED = 0
#: Zipf exponent of the serve-open text popularity.
SERVE_ZIPF_EXPONENT = 0.8

#: Setup repetitions on ingest-stream, whose base corpus is small; the full
#: corpus takes seconds to ingest, so the other workloads set up once.
STREAM_SETUP_REPEATS = 3
#: Host-speed kernel calls at each point before, between and after the
#: datasets of an offline ingest, and before and after an open-loop window.
SETUP_SPEED_SAMPLES = 20
WINDOW_SPEED_SAMPLES = 20
#: The open-loop generator samples host speed only when no request is in
#: flight and the next send is at least this far away, at most this many
#: times per send slot.
IDLE_MARGIN_S = 0.05
IDLE_SAMPLES_PER_SLOT = 20


def bench_config() -> LOVOConfig:
    """``bench_lovo_config()`` of ``benchmarks/conftest.py``: IVF-PQ, defaults."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=128, class_embedding_dim=64, patch_grid=8),
        keyframes=KeyframeConfig(strategy="mvmed", uniform_stride=10),
        index=IndexConfig(index_type="ivfpq"),
        query=QueryConfig(),
    )


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


# --------------------------------------------------------------------------
# Inputs and set-up


def table_ii() -> List[QuerySpec]:
    """The 16 Table II queries (Q1.1-Q4.4)."""
    return [spec for spec in all_queries() if spec.dataset in SCENES]


def corpus(num_videos: int, frames: int) -> List[VideoDataset]:
    return [make_dataset(scene, num_videos=num_videos, frames_per_video=frames)
            for scene in SCENES]


def segments(seed: int, count: int) -> List[VideoDataset]:
    """Fresh segments cycling the four scenes; seeds unique per run and segment."""
    made = []
    for index in range(count):
        scene = SCENES[index % len(SCENES)]
        dataset = make_dataset(scene, num_videos=1, frames_per_video=SEGMENT_FRAMES,
                               seed=1_000_000 + seed * 10_000 + index)
        made.append(dataclasses.replace(dataset, name=f"{scene}#{index}"))
    return made


def build_system(datasets: Sequence[VideoDataset],
                 speed: Optional[HostSpeed] = None) -> Tuple[LOVO, float]:
    """Construct a system and ingest ``datasets`` offline; returns its set-up time.

    With ``speed``, host speed is sampled before, between and after the
    datasets, outside the timed intervals.
    """
    elapsed = 0.0
    if speed is not None:
        speed.sample(SETUP_SPEED_SAMPLES)
    start = time.perf_counter()
    system = LOVO(bench_config())
    for dataset in datasets:
        system.ingest(dataset)
        elapsed += time.perf_counter() - start
        if speed is not None:
            speed.sample(SETUP_SPEED_SAMPLES)
        start = time.perf_counter()
    return system, elapsed + time.perf_counter() - start


def response_key(response) -> Tuple[tuple, ...]:
    """What two answers must agree on: (frame_id, patch_id, score) per result."""
    return tuple((r.frame_id, r.patch_id, r.score) for r in response.results)


def mean_ap(responses: Dict[str, object], datasets: Dict[str, VideoDataset]) -> float:
    """Table II mAP: each query scored against its own dataset's ground truth."""
    scores = []
    for spec in table_ii():
        ground_truth = build_ground_truth(datasets[spec.dataset], spec)
        scores.append(evaluate_results(responses[spec.text].results, ground_truth))
    return sum(scores) / len(scores)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Tracing


class Trace:
    """The traced run's recorder plus the facts only workloads know."""

    def __init__(self) -> None:
        self.recorder = spans.Recorder()
        self.queue_waits: List[float] = []
        self.segment_lags: Dict[str, float] = {}

    def instrument(self, extractor: type) -> None:
        """Wrap every layer entry point the per-layer metrics are named after."""
        wrap = self.recorder.wrap
        wrap(TextEncoder, "encode", "encoders.text.encode")
        wrap(TextEncoder, "encode_batch", "encoders.text.encode")
        wrap(LOVOStorage, "search", "vectordb.search",
             attrs_of=lambda a, k, r: {"hits": len(r)})
        wrap(LOVOStorage, "search_batch", "vectordb.search",
             attrs_of=lambda a, k, r: {"hits": sum(len(hits) for hits in r)})
        wrap(VideoSummarizer, "encode_single_frame", "rerank.reencode",
             attrs_of=lambda a, k, r: {"frame": a[0].frame_id})
        wrap(CrossModalityReranker, "rerank", "encoders.cross_modal.rerank",
             attrs_of=lambda a, k, r: {"candidates": len(a[1])})
        wrap(CrossModalityReranker, "score_frame", "encoders.cross_modal.score_frame")
        wrap(VideoSummarizer, "summarize", "ingest.summarize",
             rid_of=lambda a, k: a[0].name)
        owner = next(cls for cls in extractor.__mro__ if "extract" in cls.__dict__)
        wrap(owner, "extract", "ingest.keyframes")
        wrap(VisionEncoder, "encode_frames", "ingest.encode")
        wrap(LOVO, "ingest_summary", "ingest.index", rid_of=lambda a, k: a[0])
        wrap(LOVOStorage, "ingest", "ingest.index")
        wrap(LOVO, "query_batch", "e2e.batch")
        self.recorder.hook(MicroBatcher, "next_batch", self._picked_up)

    def _picked_up(self, batch, now: float) -> None:
        for pending in batch or ():
            self.queue_waits.append(now - pending.enqueued_at)

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Reduce the recorded spans to the per-layer metrics."""
        recorded = self.recorder.spans
        summary = spans.layer_summary(recorded)
        out: Dict[str, Tuple[float, str]] = {}
        for name in ("encoders.text.encode", "vectordb.search", "rerank.reencode",
                     "encoders.cross_modal.rerank", "encoders.cross_modal.score_frame"):
            layer = summary.get(name, {"calls": 0, "self_ms": 0.0, "self_ms_p50": 0.0})
            out[f"{name}.calls"] = (layer["calls"], "count")
            out[f"{name}.self_ms"] = (layer["self_ms"], "ms")
            out[f"{name}.self_ms_p50"] = (layer["self_ms_p50"], "ms")
        for name in ("ingest.keyframes", "ingest.encode", "ingest.index"):
            out[f"{name}.self_ms"] = (summary.get(name, {}).get("self_ms", 0.0), "ms")

        def of(name: str) -> List[spans.Span]:
            return [span for span in recorded if span.name == name]

        searches = of("vectordb.search")
        out["vectordb.search.hits_per_call"] = (
            sum(s.attrs["hits"] for s in searches) / len(searches) if searches else 0.0,
            "count")
        reencodes = of("rerank.reencode")
        out["rerank.reencode.distinct_ratio"] = (
            len({s.attrs["frame"] for s in reencodes}) / len(reencodes) if reencodes else 0.0,
            "ratio")
        reranks = of("encoders.cross_modal.rerank")
        out["rerank.reencode.per_query"] = (
            len(reencodes) / len(reranks) if reranks else 0.0, "count")
        out["encoders.cross_modal.candidates_per_query"] = (
            sum(s.attrs["candidates"] for s in reranks) / len(reranks) if reranks else 0.0,
            "count")
        waits = [wait * 1000.0 for wait in self.queue_waits]
        out["serve.queue_wait_ms.p50"] = (percentile(waits, 50.0) if waits else 0.0, "ms")
        out["serve.queue_wait_ms.p90"] = (percentile(waits, 90.0) if waits else 0.0, "ms")
        # Queue wait of a segment: its lag minus the encode and index work
        # done for it.
        work: Dict[str, float] = {}
        for span in of("ingest.summarize") + of("ingest.index"):
            if span.rid is not None:
                work[span.rid] = work.get(span.rid, 0.0) + span.duration
        stream_waits = [(lag - work.get(rid, 0.0)) * 1000.0
                        for rid, lag in self.segment_lags.items()]
        out["stream.queue_wait_ms.p50"] = (
            percentile(stream_waits, 50.0) if stream_waits else 0.0, "ms")
        lags = [lag * 1000.0 for lag in self.segment_lags.values()]
        out["stream.segment_lag_p50_ms"] = (percentile(lags, 50.0) if lags else 0.0, "ms")
        out["stream.segment_lag_p90_ms"] = (percentile(lags, 90.0) if lags else 0.0, "ms")
        roots = {"e2e.query", "e2e.batch"}
        out["trace.coverage_ratio"] = (spans.coverage(recorded, roots), "ratio")
        # Measured per span rather than as traced-minus-untraced query time:
        # the recording cost is about 0.1% of a query, far below the
        # run-to-run noise of the queries themselves.
        out["trace.overhead_ratio"] = (
            spans.overhead(recorded, roots, spans.span_cost()), "ratio")
        return out


def bytes_per_entity() -> float:
    """Bytes tracemalloc sees retained per stored entity after an offline ingest."""
    datasets = corpus(*BASE_CORPUS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system, _ = build_system(datasets)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / system.num_entities


# --------------------------------------------------------------------------
# Shared measurement pieces


def closed_loop(system: LOVO, texts: Sequence[str], seconds: float,
                trace: Optional[Trace], speed: HostSpeed,
                keep_going: Callable[[], bool] = lambda: False):
    """One client sending ``texts`` in order, each after the previous answer.

    Runs for at least ``seconds`` and :data:`MIN_SAMPLES` answered queries
    (or as many failures), and while ``keep_going()``.  Host speed is sampled
    after every query; ``elapsed`` leaves that time out.  Returns
    ``(latencies, responses, errors, elapsed)``.
    """
    latencies: List[float] = []
    responses: List[Tuple[str, object]] = []
    errors: List[str] = []
    start = time.perf_counter()
    sampling = 0.0
    index = 0
    while ((len(latencies) < MIN_SAMPLES and len(errors) < MIN_SAMPLES)
           or time.perf_counter() - start < seconds or keep_going()):
        text = texts[index % len(texts)]
        sent = time.perf_counter()
        try:
            if trace is None:
                response = system.query(text)
            else:
                with trace.recorder.span("e2e.query", rid=f"q{index}"):
                    response = system.query(text)
        except Exception as error:  # noqa: BLE001 - a failed query is counted
            errors.append(f"query {text!r}: {error!r}")
        else:
            latencies.append(time.perf_counter() - sent)
            responses.append((text, response))
        index += 1
        sampled = time.perf_counter()
        speed.sample()
        sampling += time.perf_counter() - sampled
    return latencies, responses, errors, time.perf_counter() - start - sampling


def latency_metrics(outcome: Outcome, latencies: List[float], elapsed: float,
                    speed: HostSpeed, schedule: Optional[float] = None) -> None:
    """Latency percentiles, throughput over ``elapsed`` and goodput.

    Latencies, and the closed loop's ``elapsed``, are scaled to the reference
    host speed (:mod:`hostspeed`); raw figures go to the run's facts.  An open
    loop passes its send window as ``schedule``: the arrival schedule, not the
    host, sets its throughput, so ``qps`` is per second of wall time and
    goodput (answers within :data:`LATENCY_LIMIT_S`) per second of schedule.
    """
    require_percentile(len(latencies), 90.0, "query latencies")
    scaled = [speed.scale(latency) for latency in latencies]
    millis = [latency * 1000.0 for latency in scaled]
    outcome.metrics["latency_p50_ms"] = (median(millis), "ms")
    outcome.metrics["latency_p90_ms"] = (percentile(millis, 90.0), "ms")
    window = elapsed if schedule else speed.scale(elapsed)
    outcome.metrics["qps"] = (len(latencies) / window, "1/s")
    within = sum(1 for latency in scaled if latency <= LATENCY_LIMIT_S)
    outcome.metrics["goodput_qps"] = (within / (schedule or window), "1/s")
    outcome.facts.update({
        "queries_completed": len(latencies),
        "raw_latency_p50_ms": median(latencies) * 1000.0,
        "raw_latency_p90_ms": percentile(latencies, 90.0) * 1000.0,
        "raw_qps": len(latencies) / elapsed,
        "host_factor_window": speed.factor(),
        "host_samples_window": len(speed.samples),
    })


def setup_metric(outcome: Outcome, setups: List[float], speed: HostSpeed) -> None:
    """``setup_s`` at the reference host speed: the median of ``setups``."""
    outcome.metrics["setup_s"] = (speed.scale(median(setups)), "s")
    outcome.facts.update({"raw_setup_s": median(setups), "setup_repeats": len(setups),
                          "host_factor_setup": speed.factor()})


def stream_segments(system: LOVO, batch: Sequence[VideoDataset], outcome: Outcome,
                    trace: Optional[Trace],
                    offsets: Optional[Sequence[float]] = None) -> List[float]:
    """Stream ``batch`` through a ``StreamingIngestor``; returns each segment's lag.

    With ``offsets``, segment ``i`` is submitted ``offsets[i]`` seconds after
    the start (lateness is recorded); without, each segment is submitted when
    the previous one has become queryable.  Checks that every segment
    resolves and that ``num_keyframes`` grows by exactly the streamed key
    frames.
    """
    keyframes_before = system.num_keyframes
    ingestor = StreamingIngestor(system).start()
    submitted: List[Tuple[float, object]] = []
    resolved_at: Dict[int, float] = {}
    lateness: List[float] = []
    source_done = threading.Event()

    def watch() -> None:
        # The pipeline resolves tickets in submission order.
        for index in range(len(batch)):
            while index >= len(submitted):
                if source_done.is_set():
                    return
                time.sleep(0.001)
            if submitted[index][1].wait(TIMEOUT_S):
                resolved_at[index] = time.perf_counter()

    try:
        if offsets is None:
            for index, segment in enumerate(batch):
                submitted.append((time.perf_counter(), ingestor.submit(segment)))
                if submitted[-1][1].wait(TIMEOUT_S):
                    resolved_at[index] = time.perf_counter()
        else:
            watcher = threading.Thread(target=watch, name="bench-segment-watcher")
            watcher.start()
            start = time.perf_counter()
            try:
                for index, segment in enumerate(batch):
                    delay = start + offsets[index] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    lateness.append(time.perf_counter() - start - offsets[index])
                    submitted.append((time.perf_counter(), ingestor.submit(segment)))
            finally:
                source_done.set()
                watcher.join()
    finally:
        ingestor.stop(drain=True, timeout=TIMEOUT_S)
    streamed_keyframes = 0
    lags: List[float] = []
    for index, (sent, ticket) in enumerate(submitted):
        outcome.attempted += 1
        try:
            summary = ticket.result(timeout=0)
        except Exception as error:  # noqa: BLE001 - a failed segment is counted
            outcome.failed += 1
            outcome.errors.append(f"segment {index} did not resolve: {error!r}")
            continue
        streamed_keyframes += summary.num_keyframes
        lag = resolved_at[index] - sent
        lags.append(lag)
        if trace is not None:
            trace.segment_lags[batch[index].name] = lag
    outcome.check(len(submitted) == len(batch), "not every segment was submitted")
    outcome.check(
        system.num_keyframes == keyframes_before + streamed_keyframes,
        f"num_keyframes grew by {system.num_keyframes - keyframes_before}, "
        f"streamed {streamed_keyframes}",
    )
    outcome.facts["segments_failed"] = len(batch) - len(lags)
    if lateness:
        outcome.facts["segment_lateness_p99_ms"] = percentile(lateness, 99.0) * 1000.0
    return lags


def lag_metrics(outcome: Outcome, lags: List[float], speed: HostSpeed) -> None:
    require_percentile(len(lags), 90.0, "segment lags")
    millis = [speed.scale(lag) * 1000.0 for lag in lags]
    outcome.metrics["segment_lag_p50_ms"] = (median(millis), "ms")
    outcome.metrics["segment_lag_p90_ms"] = (percentile(millis, 90.0), "ms")


# --------------------------------------------------------------------------
# Workloads


def query_closed(seed: int, seconds: float, trace: Optional[Trace]) -> Outcome:
    """Algorithm 2's single-query hot path: no batcher, no result cache."""
    outcome = Outcome()
    datasets = corpus(*FULL_CORPUS)
    if trace is not None:
        trace.recorder.enabled = True
    setup_speed, window_speed = HostSpeed(), HostSpeed()
    system, setup_s = build_system(datasets, setup_speed)
    setup_metric(outcome, [setup_s], setup_speed)

    order = loadgen.cycled_order([spec.text for spec in table_ii()], 4 * MIN_SAMPLES, seed)
    latencies, responses, errors, elapsed = closed_loop(
        system, order, seconds, trace, window_speed)
    latency_metrics(outcome, latencies, elapsed, window_speed)
    outcome.attempted += len(latencies) + len(errors)
    outcome.failed += len(errors)
    outcome.errors.extend(errors)
    if trace is not None:
        trace.recorder.enabled = False

    first: Dict[str, object] = {}
    for text, response in responses:
        first.setdefault(text, response)
        outcome.check(response_key(response) == response_key(first[text]),
                      f"repeated query {text!r} changed its answer")
    outcome.check(len(first) == len(table_ii()), "not every Table II query was answered")
    if not outcome.errors:
        by_name = {dataset.name: dataset for dataset in datasets}
        outcome.metrics["mean_ap"] = (mean_ap(first, by_name), "ratio")
    return _finish_static(outcome, system, seed, trace)


def serve_open(seed: int, seconds: float, trace: Optional[Trace]) -> Outcome:
    """Open-loop arrivals at a fixed rate into the serving engine's default config."""
    outcome = Outcome()
    datasets = corpus(*FULL_CORPUS)
    table = [spec.text for spec in table_ii()]
    pool = loadgen.text_pool(table, SERVE_POOL_SIZE, SERVE_POOL_SEED)
    count = max(round(SERVE_RATE_QPS * seconds), MIN_SAMPLES)
    texts = loadgen.zipf_requests(pool, count, SERVE_ZIPF_EXPONENT, seed)
    duration = count / SERVE_RATE_QPS
    offsets = loadgen.fixed_schedule(1.0 / SERVE_RATE_QPS, count)

    if trace is not None:
        trace.recorder.enabled = True
    setup_speed, window_speed = HostSpeed(), HostSpeed()
    system, setup_s = build_system(datasets, setup_speed)
    start = time.perf_counter()
    engine = ServingEngine(system).start()
    setup_metric(outcome, [setup_s + time.perf_counter() - start], setup_speed)

    done_at: List[Optional[float]] = [None] * count
    futures: List[Optional[object]] = [None] * count
    lateness: List[float] = []
    rejected = 0

    def completed(index: int) -> Callable[[object], None]:
        def record(_future: object) -> None:
            done_at[index] = time.perf_counter()
        return record

    def idle() -> bool:
        return all(future is None or future.done() for future in futures)

    try:
        window_speed.sample(WINDOW_SPEED_SAMPLES)
        start = time.perf_counter()
        for index, (offset, text) in enumerate(zip(offsets, texts)):
            # Host speed is sampled only while the engine has nothing to do,
            # so the kernel never competes with a request.
            while (start + offset - time.perf_counter() > IDLE_MARGIN_S
                   and len(window_speed.samples)
                   < WINDOW_SPEED_SAMPLES + IDLE_SAMPLES_PER_SLOT * (index + 1)
                   and idle()):
                window_speed.sample()
            delay = start + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(time.perf_counter() - start - offset)
            try:
                future = engine.submit(text)
            except ServiceOverloadedError:
                rejected += 1
                continue
            futures[index] = future
            future.add_done_callback(completed(index))
        served: Dict[int, object] = {}
        for index, future in enumerate(futures):
            if future is None:
                continue
            try:
                served[index] = future.result(timeout=TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - a failed request is counted
                outcome.errors.append(f"request {index} failed: {error!r}")
        stats = engine.stats()
        window_speed.sample(WINDOW_SPEED_SAMPLES)
    finally:
        engine.stop()
    if trace is not None:
        trace.recorder.enabled = False

    latencies = [done_at[index] - (start + offsets[index]) for index in served]
    last = max((done_at[index] for index in served), default=start + duration)
    latency_metrics(outcome, latencies, last - start, window_speed, schedule=duration)
    outcome.attempted += count
    outcome.failed += count - len(served)
    outcome.check(rejected == 0, f"{rejected} requests were rejected")
    cache = stats["cache"]
    outcome.facts.update({
        "serve_rate_qps": SERVE_RATE_QPS,
        "cache_hit_ratio": cache.get("hit_rate", 0.0),
        "generator_lateness_p99_ms": percentile(lateness, 99.0) * 1000.0,
        "batch_size_mean": stats["batches"]["mean_size"],
        "rejected": stats["rejected_total"],
        "distinct_texts": len(set(texts)),
    })

    # Every answer must equal the system's own answer at the same data epoch
    # (no ingest ran meanwhile).  The reference is one ``query_batch`` over
    # the distinct texts; tests/test_batch_query.py pins batch == single.
    distinct = list(dict.fromkeys([texts[index] for index in served] + table))
    reference = dict(zip(distinct, system.query_batch(distinct).responses))
    mismatched = [index for index, response in served.items()
                  if response_key(response) != response_key(reference[texts[index]])]
    outcome.check(not mismatched,
                  f"{len(mismatched)} served answers differ from LOVO.query")
    by_name = {dataset.name: dataset for dataset in datasets}
    outcome.metrics["mean_ap"] = (mean_ap(reference, by_name), "ratio")
    if trace is not None:
        outcome.layers["serve.batch_size_mean"] = (stats["batches"]["mean_size"], "count")
        outcome.layers["serve.cache_hit_ratio"] = (cache.get("hit_rate", 0.0), "ratio")
        outcome.layers["serve.rejected"] = (stats["rejected_total"], "count")
        outcome.layers["loadgen.lateness_p99_ms"] = (
            outcome.facts["generator_lateness_p99_ms"], "ms")
    return _finish_static(outcome, system, seed, trace)


def _finish_static(outcome: Outcome, system: LOVO, seed: int,
                   trace: Optional[Trace]) -> Outcome:
    """End-to-end totals; the traced run also probes the write path.

    The probe streams one segment at a time after the measured window, so
    the corpus the queries saw is untouched and the stream layers are
    measured with no readers competing.
    """
    outcome.metrics["success_ratio"] = (
        (outcome.attempted - outcome.failed) / outcome.attempted, "ratio")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if trace is not None:
        entities = system.num_entities
        trace.recorder.enabled = True
        stream_segments(system, segments(seed, MIN_SAMPLES), outcome, trace)
        _trace_metrics(outcome, trace, entities)
    return outcome


def ingest_stream(seed: int, seconds: float, trace: Optional[Trace]) -> Outcome:
    """Scheduled fresh segments streamed in while one client queries."""
    outcome = Outcome()
    base = corpus(*BASE_CORPUS)
    count = max(MIN_SAMPLES, round(seconds / SEGMENT_PERIOD_S))
    batch = segments(seed, count)
    order = loadgen.cycled_order([spec.text for spec in table_ii()], 8 * MIN_SAMPLES, seed)

    setup_speed, window_speed = HostSpeed(), HostSpeed()
    setups = []
    for repeat in range(STREAM_SETUP_REPEATS):
        last = repeat == STREAM_SETUP_REPEATS - 1
        if trace is not None:
            trace.recorder.enabled = last
        system, setup_s = build_system(base, setup_speed)
        setups.append(setup_s)
    setup_metric(outcome, setups, setup_speed)

    lags: List[float] = []
    streamer = threading.Thread(
        target=lambda: lags.extend(stream_segments(
            system, batch, outcome, trace, loadgen.fixed_schedule(SEGMENT_PERIOD_S, count))),
        name="bench-segment-source")
    streamer.start()
    try:
        latencies, _, errors, elapsed = closed_loop(
            system, order, seconds, trace, window_speed, keep_going=streamer.is_alive)
    finally:
        streamer.join(TIMEOUT_S * 3)
    if trace is not None:
        trace.recorder.enabled = False
    outcome.check(not streamer.is_alive(), "segment source did not finish")
    latency_metrics(outcome, latencies, elapsed, window_speed)
    lag_metrics(outcome, lags, window_speed)
    outcome.attempted += len(latencies) + len(errors)
    outcome.failed += len(errors)
    outcome.errors.extend(errors)

    # Quality over the grown corpus: each query against its scene's base
    # video plus every streamed segment of that scene.
    table = [spec.text for spec in table_ii()]
    answers = dict(zip(table, system.query_batch(table).responses))
    grown = {scene: concat_datasets(scene, [d for d in base + batch
                                            if d.name.split("#")[0] == scene])
             for scene in SCENES}
    outcome.metrics["mean_ap"] = (mean_ap(answers, grown), "ratio")
    outcome.metrics["success_ratio"] = (
        (outcome.attempted - outcome.failed) / outcome.attempted, "ratio")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if trace is not None:
        outcome.layers["loadgen.lateness_p99_ms"] = (
            outcome.facts.get("segment_lateness_p99_ms", 0.0), "ms")
        _trace_metrics(outcome, trace, system.num_entities)
    return outcome


def _trace_metrics(outcome: Outcome, trace: Trace, entities: int) -> None:
    trace.recorder.enabled = False
    # A workload without an engine or a send schedule reports 0 for them.
    layers = {"serve.batch_size_mean": (0.0, "count"), "serve.cache_hit_ratio": (0.0, "ratio"),
              "serve.rejected": (0, "count"), "loadgen.lateness_p99_ms": (0.0, "ms")}
    layers.update(trace.layer_metrics())
    layers["stream.segments_failed"] = (outcome.facts.get("segments_failed", 0), "count")
    layers["storage.entities"] = (entities, "count")
    layers["storage.bytes_per_entity"] = (bytes_per_entity(), "bytes")
    layers.update(outcome.layers)
    outcome.layers = layers


WORKLOADS: Dict[str, Callable[[int, float, Optional[Trace]], Outcome]] = {
    "query-closed": query_closed,
    "serve-open": serve_open,
    "ingest-stream": ingest_stream,
}


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run one workload; with ``traced``, wrap the layers and reduce the spans."""
    trace = None
    if traced:
        trace = Trace()
        trace.instrument(type(make_extractor(bench_config().keyframes)))
    try:
        return WORKLOADS[name](seed, seconds, trace)
    finally:
        if trace is not None:
            trace.recorder.restore()
