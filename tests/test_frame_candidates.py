"""Lifecycle of the frame-candidate map that feeds the rerank stage.

``LOVO`` builds one rerank candidate per key frame at ingest, from the patch
encodings ingest already computed, so a query never re-encodes a frame.  A
system restored by :meth:`LOVO.load` has no encodings: it encodes each
candidate frame on its first rerank, once, and keeps it.  These tests count
``VideoSummarizer.encode_single_frame`` calls on every path, and check that
the lazily filled map stays correct under concurrent queries (this file runs
in the ``REPRO_LOCKDEP=1`` CI leg).
"""

from __future__ import annotations

import sys
import threading
from typing import List

import pytest

from repro import LOVO
from repro.obs.trace import Trace, activate
from repro.stream import StreamingIngestor
from repro.video.datasets import make_bellevue

TEXTS = [
    "A red car driving in the center of the road.",
    "A bus driving on the road.",
    "a person walking on the sidewalk",
]


def result_key(response) -> List[tuple]:
    return [(r.frame_id, r.patch_id, r.score) for r in response.results]


@pytest.fixture(scope="module")
def segments():
    return [make_bellevue(num_videos=1, frames_per_video=40, seed=s) for s in (1, 2)]


@pytest.fixture(scope="module")
def offline(segments, tiny_config) -> LOVO:
    system = LOVO(tiny_config)
    for segment in segments:
        system.ingest(segment)
    return system


@pytest.fixture(scope="module")
def snapshot(offline, tmp_path_factory):
    path = tmp_path_factory.mktemp("frame-candidates") / "snapshot"
    offline.save(path)
    return path


def count_encodes(system: LOVO, monkeypatch) -> List[str]:
    """Record the frame id of every on-demand frame encode of ``system``."""
    calls: List[str] = []
    original = system.summarizer.encode_single_frame

    def counting(frame, scene="generic"):
        calls.append(frame.frame_id)
        return original(frame, scene=scene)

    monkeypatch.setattr(system.summarizer, "encode_single_frame", counting)
    return calls


def test_offline_ingest_builds_every_candidate(offline, monkeypatch):
    calls = count_encodes(offline, monkeypatch)
    for text in TEXTS:
        offline.query(text)
    offline.query_batch(TEXTS)
    assert calls == []
    assert offline.storage_report()["frame_candidates"] == offline.num_keyframes


def test_streamed_ingest_builds_every_candidate(segments, offline, tiny_config, monkeypatch):
    streamed = LOVO(tiny_config)
    ingestor = StreamingIngestor(streamed).start()
    try:
        for ticket in [ingestor.submit(segment) for segment in segments]:
            ticket.result(timeout=120)
        calls = count_encodes(streamed, monkeypatch)
        for text in TEXTS:
            assert result_key(streamed.query(text)) == result_key(offline.query(text))
        assert calls == []
    finally:
        ingestor.stop()


def test_candidates_share_the_ingest_encodings(segments, tiny_config):
    system = LOVO(tiny_config)
    summary = system.ingest(segments[0])
    encoding = summary.encodings[0]
    candidate = system._frame_candidates[encoding.frame_id]
    assert candidate.patches[0].embedding is encoding.embedding
    assert candidate.patches[0].box is encoding.box
    assert len(candidate.patches) == sum(
        1 for e in summary.encodings if e.frame_id == encoding.frame_id
    )


def test_loaded_system_encodes_each_missed_frame_once(offline, snapshot, monkeypatch):
    loaded = LOVO.load(snapshot)
    assert loaded.storage_report()["frame_candidates"] == 0
    calls = count_encodes(loaded, monkeypatch)

    first = loaded.query(TEXTS[0])
    assert calls, "a loaded system has no candidates until its first rerank"
    assert len(calls) == len(set(calls)) == first.metadata["num_candidates"]
    assert result_key(first) == result_key(offline.query(TEXTS[0]))

    calls.clear()
    assert result_key(loaded.query(TEXTS[0])) == result_key(first)
    assert calls == []

    # A batch encodes only the frames no earlier query needed, once each.
    batch = loaded.query_batch(TEXTS)
    assert len(calls) == len(set(calls))
    for text, response in zip(TEXTS, batch.responses):
        assert result_key(response) == result_key(offline.query(text))


def test_concurrent_queries_on_a_loaded_system_agree(offline, snapshot, monkeypatch):
    loaded = LOVO.load(snapshot)
    calls = count_encodes(loaded, monkeypatch)
    expected = {text: result_key(offline.query(text)) for text in TEXTS}
    barrier = threading.Barrier(4)
    answers: List[tuple] = []
    errors: List[BaseException] = []

    def client(offset: int) -> None:
        try:
            barrier.wait(timeout=30)
            for step in range(len(TEXTS)):
                text = TEXTS[(offset + step) % len(TEXTS)]
                answers.append((text, result_key(loaded.query(text))))
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' miss paths finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(answers) == 4 * len(TEXTS)
    for text, key in answers:
        assert key == expected[text]
    # The miss path is double-checked under a lock: no frame encoded twice.
    assert calls and len(calls) == len(set(calls))


def test_storage_report_exports_candidate_memory(offline):
    report = offline.storage_report()
    assert report["frame_candidates"] == offline.num_keyframes
    patches = [
        patch
        for candidate in offline._frame_candidates.values()
        for patch in candidate.patches
    ]
    assert len(patches) == offline.num_entities
    assert report["frame_candidate_bytes"] == sum(p.embedding.nbytes for p in patches)
    assert report["frame_candidate_bytes"] == (
        offline.num_entities * offline.config.encoder.embedding_dim * 8
    )


def test_rerank_records_per_query_sub_spans(snapshot):
    loaded = LOVO.load(snapshot)
    traces = []
    for _ in range(2):
        trace = Trace()
        with activate([trace]):
            loaded.query(TEXTS[0])
        traces.append(trace)
    for trace, expect_misses in zip(traces, (True, False)):
        spans = {span.name: span for span in trace.spans()}
        rerank = spans["rerank"]
        for name in ("rerank.candidates", "rerank.cross_modal", "rerank.decode"):
            assert spans[name].parent_id == rerank.span_id
            assert trace.span_names().count(name) == 1
        misses = spans["rerank.candidates"].attributes["misses"]
        assert (misses > 0) is expect_misses
        assert spans["rerank.candidates"].attributes["frames"] == rerank.attributes[
            "num_candidates"
        ]
