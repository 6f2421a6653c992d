"""Minimal NumPy transformer building blocks (attention, layer norm, MLP).

The cross-modality rerank model (paper §VI-B, Fig. 5) is a stack of feature
enhancer and decoder layers built around image↔text cross-attention.  These
primitives implement that machinery directly in NumPy.  The "pretrained"
projection matrices are deterministic orthonormal matrices shared between the
query and key paths, which preserves the dot-product structure of the shared
concept space — the NumPy analogue of a model whose modalities were aligned
during pretraining.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import rng_from_tokens


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Layer normalisation over the last dimension (no learned affine)."""
    mean = x.mean(axis=-1, keepdims=True)
    variance = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(variance + eps)


def orthonormal_matrix(dim: int, name: str, seed: int = 7) -> np.ndarray:
    """Deterministic orthonormal ``dim x dim`` matrix keyed by ``name``."""
    rng = rng_from_tokens("orthonormal", name, dim, base_seed=seed)
    matrix = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(matrix)
    return q


class CrossAttention:
    """Single-head cross-attention with aligned (shared) Q/K projections.

    ``attend(queries, keys_values)`` returns, for each query token, a mixture
    of the value tokens weighted by softmax similarity.  Because the query and
    key projections are the same orthonormal matrix, similarity in the
    projected space equals similarity in the input space — the alignment a
    pretrained cross-modal model provides.
    """

    def __init__(self, dim: int, name: str, temperature: float | None = None, seed: int = 7) -> None:
        self._dim = dim
        self._shared_qk = orthonormal_matrix(dim, f"{name}/qk", seed=seed)
        self._value = orthonormal_matrix(dim, f"{name}/v", seed=seed)
        self._temperature = temperature if temperature is not None else float(np.sqrt(dim))

    def attend(self, queries: np.ndarray, keys_values: np.ndarray) -> np.ndarray:
        """Cross-attend ``queries`` over ``keys_values``.

        Both arguments may carry a leading stack axis, ``(frames, tokens,
        dim)``: each frame then attends only within its own slice, through
        the same per-slice matrix products as an unstacked call.

        Args:
            queries: ``(..., num_queries, dim)`` tokens.
            keys_values: ``(..., num_keys, dim)`` tokens.

        Returns:
            ``(..., num_queries, dim)`` attended representations.  When there
            are no key tokens the queries are returned unchanged.
        """
        if keys_values.shape[-2] == 0:
            return queries.copy()
        projected_q = queries @ self._shared_qk
        projected_k = keys_values @ self._shared_qk
        projected_v = keys_values @ self._value
        logits = projected_q @ np.swapaxes(projected_k, -1, -2) / self._temperature
        weights = softmax(logits, axis=-1)
        attended = weights @ projected_v
        # Undo the value rotation so the output stays in the concept space.
        return attended @ self._value.T

    def attention_weights(self, queries: np.ndarray, keys_values: np.ndarray) -> np.ndarray:
        """The softmax attention matrix (used by tests and diagnostics)."""
        if keys_values.shape[0] == 0:
            return np.zeros((queries.shape[0], 0))
        projected_q = queries @ self._shared_qk
        projected_k = keys_values @ self._shared_qk
        logits = projected_q @ projected_k.T / self._temperature
        return softmax(logits, axis=-1)


class FeedForward:
    """Two-layer position-wise MLP with a GELU-like nonlinearity."""

    def __init__(self, dim: int, hidden_dim: int, name: str, seed: int = 7) -> None:
        rng = rng_from_tokens("ffn", name, dim, hidden_dim, base_seed=seed)
        scale_in = 1.0 / np.sqrt(dim)
        scale_out = 1.0 / np.sqrt(hidden_dim)
        self._w_in = rng.normal(scale=scale_in, size=(dim, hidden_dim))
        self._w_out = rng.normal(scale=scale_out, size=(hidden_dim, dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the MLP token-wise."""
        hidden = x @ self._w_in
        activated = hidden * (1.0 / (1.0 + np.exp(-1.702 * hidden)))
        return activated @ self._w_out


class CrossModalLayer:
    """One feature-enhancer layer: bidirectional cross-attention + MLPs.

    The image-to-text attention injects query-relevant semantics into the
    image tokens; the text-to-image attention grounds the text tokens in what
    is visible (paper §VI-B).  Residual connections keep the original concept
    content so repeated layers refine rather than replace it.
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, blend: float = 0.5, seed: int = 7) -> None:
        self._image_to_text = CrossAttention(dim, f"{name}/i2t", seed=seed)
        self._text_to_image = CrossAttention(dim, f"{name}/t2i", seed=seed)
        self._image_ffn = FeedForward(dim, hidden_dim, f"{name}/img_ffn", seed=seed)
        self._text_ffn = FeedForward(dim, hidden_dim, f"{name}/txt_ffn", seed=seed)
        self._blend = blend

    def apply(
        self, image_tokens: np.ndarray, text_tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one enhancement round, returning updated (image, text) tokens."""
        enhanced_image = image_tokens + self._blend * self._image_to_text.attend(
            image_tokens, text_tokens
        )
        enhanced_text = text_tokens + self._blend * self._text_to_image.attend(
            text_tokens, image_tokens
        )
        enhanced_image = layer_norm(
            enhanced_image + 0.1 * self._image_ffn.apply(enhanced_image)
        )
        enhanced_text = layer_norm(
            enhanced_text + 0.1 * self._text_ffn.apply(enhanced_text)
        )
        return enhanced_image, enhanced_text
