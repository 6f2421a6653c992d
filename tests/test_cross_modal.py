"""Tests for the cross-modality rerank model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoders.concepts import ConceptSpace
from repro.encoders.cross_modal import (
    CandidatePatch,
    CrossModalityReranker,
    FrameCandidate,
    RerankerConfig,
)
from repro.encoders.text import QueryParser
from repro.encoders.vocabulary import default_vocabulary
from repro.utils.geometry import BoundingBox


@pytest.fixture(scope="module")
def space():
    return ConceptSpace(dim=64, seed=7)


@pytest.fixture(scope="module")
def parser():
    return QueryParser(default_vocabulary())


@pytest.fixture(scope="module")
def reranker(space):
    return CrossModalityReranker(space, RerankerConfig(hidden_dim=64))


def patch(space, patch_id, tokens, box, objectness=0.8):
    return CandidatePatch(
        patch_id=patch_id,
        embedding=space.encode(tokens),
        box=box,
        objectness=objectness,
    )


def candidate(space, frame_id, patch_specs):
    patches = tuple(
        patch(space, f"{frame_id}/p{i}", tokens, box)
        for i, (tokens, box) in enumerate(patch_specs)
    )
    return FrameCandidate(frame_id=frame_id, patches=patches)


class TestAppearanceRanking:
    def test_frame_with_target_ranks_higher(self, space, parser, reranker):
        query = parser.parse("a red car driving on the road")
        with_target = candidate(space, "f-red", [
            (["car", "red", "road", "driving"], BoundingBox(0.4, 0.4, 0.2, 0.15)),
            (["road"], BoundingBox(0.0, 0.0, 0.2, 0.2)),
        ])
        without_target = candidate(space, "f-dog", [
            (["dog", "white", "room"], BoundingBox(0.4, 0.4, 0.2, 0.15)),
            (["room"], BoundingBox(0.0, 0.0, 0.2, 0.2)),
        ])
        ranked = reranker.rerank(query, [without_target, with_target])
        assert ranked[0].frame_id == "f-red"

    def test_attribute_discrimination_within_frame(self, space, parser, reranker):
        query = parser.parse("a red car on the road")
        frame = candidate(space, "f", [
            (["car", "grey", "road", "driving"], BoundingBox(0.1, 0.4, 0.2, 0.15)),
            (["car", "red", "road", "driving"], BoundingBox(0.6, 0.4, 0.2, 0.15)),
        ])
        result = reranker.score_frame(query, frame)
        assert result.patch_id.endswith("p1")

    def test_category_discrimination(self, space, parser, reranker):
        query = parser.parse("a bus driving on the road")
        frame = candidate(space, "f", [
            (["car", "grey", "road", "driving"], BoundingBox(0.1, 0.4, 0.2, 0.15)),
            (["bus", "blue", "road", "driving"], BoundingBox(0.6, 0.4, 0.25, 0.15)),
        ])
        result = reranker.score_frame(query, frame)
        assert result.patch_id.endswith("p1")

    def test_rerank_respects_top_n(self, space, parser, reranker):
        query = parser.parse("a red car")
        candidates = [
            candidate(space, f"f{i}", [(["car", "red"], BoundingBox(0.4, 0.4, 0.2, 0.2))])
            for i in range(5)
        ]
        assert len(reranker.rerank(query, candidates, top_n=3)) == 3

    def test_empty_candidate_returns_none(self, space, parser, reranker):
        query = parser.parse("a red car")
        assert reranker.score_frame(query, FrameCandidate("empty", ())) is None


class TestRelations:
    def test_center_relation_prefers_centered_object(self, space, parser, reranker):
        query = parser.parse("A red car driving in the center of the road.")
        frame = candidate(space, "f", [
            (["car", "red", "road", "driving"], BoundingBox(0.0, 0.0, 0.15, 0.12)),
            (["car", "red", "road", "driving"], BoundingBox(0.45, 0.45, 0.15, 0.12)),
        ])
        result = reranker.score_frame(query, frame)
        assert result.patch_id.endswith("p1")
        assert result.relation_score > 0

    def test_side_by_side_requires_companion(self, space, parser, reranker):
        query = parser.parse("A red car side by side with another car in the center of the road.")
        paired = candidate(space, "f-paired", [
            (["car", "red", "road", "driving"], BoundingBox.from_center(0.45, 0.5, 0.14, 0.1)),
            (["car", "grey", "road", "driving"], BoundingBox.from_center(0.62, 0.5, 0.14, 0.1)),
        ])
        lonely = candidate(space, "f-lonely", [
            (["car", "red", "road", "driving"], BoundingBox.from_center(0.45, 0.5, 0.14, 0.1)),
            (["road"], BoundingBox(0.0, 0.0, 0.15, 0.15)),
        ])
        ranked = reranker.rerank(query, [lonely, paired])
        assert ranked[0].frame_id == "f-paired"
        assert ranked[0].relation_score > ranked[1].relation_score

    def test_next_to_companion_attributes_checked(self, space, parser, reranker):
        query = parser.parse("A white dog inside a car, next to a woman wearing black clothes.")
        with_woman = candidate(space, "f-with", [
            (["dog", "white", "car_interior", "sitting"], BoundingBox.from_center(0.45, 0.5, 0.1, 0.1)),
            (["woman", "black", "black clothes", "car_interior"], BoundingBox.from_center(0.58, 0.5, 0.12, 0.2)),
        ])
        alone = candidate(space, "f-alone", [
            (["dog", "white", "car_interior", "sitting"], BoundingBox.from_center(0.45, 0.5, 0.1, 0.1)),
        ])
        ranked = reranker.rerank(query, [alone, with_woman])
        assert ranked[0].frame_id == "f-with"


class TestDetections:
    def test_detections_do_not_overlap(self, space, parser, reranker):
        query = parser.parse("a person walking on the street")
        frame = candidate(space, "f", [
            (["person", "walking", "street"], BoundingBox(0.1, 0.4, 0.1, 0.2)),
            (["person", "walking", "street"], BoundingBox(0.12, 0.42, 0.1, 0.2)),
            (["person", "walking", "street"], BoundingBox(0.7, 0.4, 0.1, 0.2)),
        ])
        result = reranker.score_frame(query, frame)
        boxes = [detection.box for detection in result.detections]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert boxes[i].iou(boxes[j]) < reranker.config.nms_iou_threshold

    def test_detection_cap(self, space, parser):
        reranker = CrossModalityReranker(
            ConceptSpace(dim=64, seed=7), RerankerConfig(max_boxes_per_frame=2, hidden_dim=64)
        )
        query = parser.parse("a person")
        frame = candidate(space, "f", [
            (["person"], BoundingBox(0.1, 0.1, 0.1, 0.2)),
            (["person"], BoundingBox(0.4, 0.4, 0.1, 0.2)),
            (["person"], BoundingBox(0.7, 0.7, 0.1, 0.2)),
        ])
        result = reranker.score_frame(query, frame)
        assert len(result.detections) == 2

    def test_scores_are_descending(self, space, parser, reranker):
        query = parser.parse("a red car")
        candidates = [
            candidate(space, "f-red", [(["car", "red"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
            candidate(space, "f-grey", [(["car", "grey"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
            candidate(space, "f-dog", [(["dog", "brown"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
        ]
        ranked = reranker.rerank(query, candidates)
        scores = [result.score for result in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0].frame_id == "f-red"
        assert ranked[-1].frame_id == "f-dog"


class TestStackedFrames:
    """Frames run through the layers stacked per patch-count bucket must score
    exactly as each frame run on its own (the plain 2D per-frame loop)."""

    def test_enhance_matches_the_per_frame_loop(self, space, reranker):
        rng = np.random.default_rng(0)
        image_tokens = [rng.normal(size=(n, space.dim)) for n in (3, 5, 3, 1, 5, 5, 2)]
        text_tokens = rng.normal(size=(4, space.dim))
        stacked = reranker._enhance(image_tokens, text_tokens)
        layers = reranker._enhancer_layers + reranker._decoder_layers
        for tokens, (image, text) in zip(image_tokens, stacked):
            expected_image, expected_text = tokens, text_tokens
            for layer in layers:
                expected_image, expected_text = layer.apply(expected_image, expected_text)
            assert np.array_equal(image, expected_image)
            assert np.array_equal(text, expected_text)

    @pytest.mark.parametrize("text", [
        "a red car driving on the road",
        "a red car side by side with another car in the center of the road",
        "a person walking next to a dog",
    ])
    def test_rerank_equals_each_frame_scored_alone(self, space, parser, reranker, text):
        rng = np.random.default_rng(1)
        vocabulary = ["car", "red", "grey", "road", "person", "dog", "white", "driving"]
        frames = []
        for index, size in enumerate((2, 3, 2, 4, 3, 3, 1)):
            specs = []
            for _ in range(size):
                tokens = list(rng.choice(vocabulary, size=3, replace=False))
                x, y = rng.uniform(0.0, 0.8, size=2)
                specs.append((tokens, BoundingBox(x, y, 0.15, 0.1)))
            frames.append(candidate(space, f"f{index}", specs))
        query = parser.parse(text)
        alone = [reranker.score_frame(query, frame) for frame in frames]
        alone.sort(key=lambda result: result.score, reverse=True)
        assert reranker.rerank(query, frames) == alone
