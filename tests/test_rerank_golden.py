"""Golden answers for the 16 Table II queries, pinned bit for bit.

The fixture ``fixtures/rerank_golden.json`` holds the ``(frame_id,
patch_id, score)`` triples every Table II query returns on a small
four-scene corpus (cityscapes, bellevue, qvhighlights, beach), for the flat
and IVF-PQ indexes, through both ``LOVO.query`` and ``LOVO.query_batch``.
It was captured before the rerank stage was restructured (frame candidates
built once at ingest, cross-modal layers run over stacked frames), so any
change to the rerank maths that moves a single bit of any score fails here.
Comparison is exact: no tolerance.

Regenerate the fixture only when answers are *meant* to change, or on a
platform whose BLAS kernels round differently (the parity suites are the
check that such a platform is otherwise sound), and then on the commit
*before* the change under test::

    python tests/test_rerank_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.eval.workloads import all_queries
from repro.video.datasets import make_dataset

FIXTURE = Path(__file__).parent / "fixtures" / "rerank_golden.json"
SCENES = ("cityscapes", "bellevue", "qvhighlights", "beach")
INDEX_TYPES = ("flat", "ivfpq")
TEXTS = [spec.text for spec in all_queries() if spec.dataset in SCENES]


def golden_config(index_type: str) -> LOVOConfig:
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type=index_type,
            num_subspaces=4,
            num_centroids=16,
            num_coarse_clusters=8,
            nprobe=3,
        ),
        query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
    )


def build_system(index_type: str) -> LOVO:
    system = LOVO(golden_config(index_type))
    for scene in SCENES:
        system.ingest(make_dataset(scene, num_videos=1, frames_per_video=90))
    return system


def answers(responses) -> List[List[list]]:
    return [
        [[r.frame_id, r.patch_id, r.score] for r in response.results]
        for response in responses
    ]


def capture() -> Dict[str, object]:
    golden: Dict[str, object] = {"texts": TEXTS}
    for index_type in INDEX_TYPES:
        system = build_system(index_type)
        single = answers(system.query(text) for text in TEXTS)
        if answers(system.query_batch(TEXTS)) != single:
            raise AssertionError(f"{index_type}: query_batch disagrees with query")
        golden[index_type] = single
    return golden


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_sixteen_table_ii_queries(golden):
    assert len(TEXTS) == 16
    assert golden["texts"] == TEXTS
    for index_type in INDEX_TYPES:
        recorded = golden[index_type]
        assert len(recorded) == 16
        assert all(recorded), "every Table II query should return results"


@pytest.mark.parametrize("index_type", INDEX_TYPES)
def test_answers_are_bit_identical_to_golden(golden, index_type):
    system = build_system(index_type)
    expected = golden[index_type]
    # JSON floats round-trip exactly (repr is shortest-exact), so == is a
    # bitwise comparison of every score.
    assert answers(system.query(text) for text in TEXTS) == expected
    assert answers(system.query_batch(TEXTS)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_rerank_golden.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    golden = capture()
    # One query's answer per line keeps fixture diffs readable.
    entries = [f'"texts": {json.dumps(golden["texts"])}']
    for index_type in INDEX_TYPES:
        rows = ",\n".join(json.dumps(row) for row in golden[index_type])
        entries.append(f"{json.dumps(index_type)}: [\n{rows}\n]")
    FIXTURE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {FIXTURE}")
