"""Seeded inputs: query orders, the Zipf text pool and arrival schedules.

Everything here is a pure function of its arguments and the seed, so two runs
with the same seed send the same texts at the same offsets.  Nothing here
imports the system under test.
"""

from __future__ import annotations

import random
from typing import List, Sequence

# Words the concept vocabulary understands (``repro.encoders.vocabulary``);
# composed texts therefore parse into real object queries, not empty ones.
_COLOURS = ("red", "black", "white", "green", "blue", "grey", "silver", "light",
            "dark", "brown", "orange", "yellow-green", "small", "large")
_OBJECTS = ("car", "bus", "truck", "person", "woman", "man", "dog", "bicycle",
            "suv", "lady", "guy", "puppy", "pickup")
_ACTIVITIES = ("driving", "walking", "riding", "sitting", "standing", "parked",
               "holding", "dancing", "talking")
_PLACES = ("on the road", "on the street", "on the sidewalk", "on the meadow",
           "on the beach", "in the room", "inside a car", "in the intersection")


def cycled_order(items: Sequence[str], count: int, seed: int) -> List[str]:
    """``count`` items drawn as back-to-back seeded permutations of ``items``.

    Every item appears once per cycle, so each run sends every item the same
    number of times (give or take the last, partial cycle).
    """
    rng = random.Random(f"cycle:{seed}")
    order: List[str] = []
    while len(order) < count:
        cycle = list(items)
        rng.shuffle(cycle)
        order.extend(cycle)
    return order[:count]


def text_pool(base: Sequence[str], size: int, seed: int) -> List[str]:
    """``base`` plus distinct texts composed from the vocabulary, in popularity order.

    ``size`` texts in all, shuffled with ``seed`` so that the ``base`` texts
    are spread over the popularity ranks.
    """
    combinations = len(_COLOURS) * len(_OBJECTS) * len(_ACTIVITIES) * len(_PLACES)
    if size - len(base) > combinations:
        raise ValueError(f"cannot compose {size - len(base)} distinct texts")
    rng = random.Random(f"pool:{seed}")
    pool = list(dict.fromkeys(base))
    seen = set(pool)
    while len(pool) < size:
        text = (f"A {rng.choice(_COLOURS)} {rng.choice(_OBJECTS)} "
                f"{rng.choice(_ACTIVITIES)} {rng.choice(_PLACES)}.")
        if text not in seen:
            seen.add(text)
            pool.append(text)
    rng.shuffle(pool)
    return pool


def zipf_requests(ranked: Sequence[str], count: int, exponent: float, seed: int) -> List[str]:
    """``count`` requests whose texts follow Zipf popularity, in a seeded order.

    The text at rank ``r`` (from 1) gets its share ``count * r**-exponent / H``
    of the requests, rounded by largest remainder, so every run sends the
    same multiset of texts; the seed only shuffles the order.  Independent
    draws would move the result-cache hit ratio by a third between seeds of
    a 110-request run.
    """
    weights = [1.0 / (rank ** exponent) for rank in range(1, len(ranked) + 1)]
    shares = [count * weight / sum(weights) for weight in weights]
    quotas = [int(share) for share in shares]
    by_remainder = sorted(range(len(ranked)), key=lambda i: (quotas[i] - shares[i], i))
    for index in by_remainder[:count - sum(quotas)]:
        quotas[index] += 1
    requests = [text for text, quota in zip(ranked, quotas) for _ in range(quota)]
    random.Random(f"zipf:{seed}").shuffle(requests)
    return requests


def fixed_schedule(period: float, count: int) -> List[float]:
    """``count`` send offsets ``period`` seconds apart, starting at 0."""
    return [index * period for index in range(count)]
