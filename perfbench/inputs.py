"""Seeded diagnosis payloads: hot pools, fresh payloads and their wire bodies.

A stream spec (see ``workloads.json``) names the cases per payload, a pool
of ``hot`` payloads that recur (drawn Zipf-distributed with exponent
``zipf``; 0 is uniform) and the share of draws that are ``fresh`` payloads,
each sent once.  Every case is a production case with its own rounded
Gaussian perturbation, so no two cases of different payloads are equal and
no cache can hit across them.  Every payload carries at least one case the
model misclassifies, checked here, before any clock starts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

MODEL_NAME = "bench"
NOISE = 0.01
#: Lowest probability lead of the wrong class for a case to count as a
#: robust misclassification (extraction runs float32, the check float64).
MARGIN = 0.1

Key = Tuple[str, int]


class Payloads:
    """All payloads of one run, generated from one seed."""

    def __init__(self, model, production, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.inputs, self.labels = production.arrays()
        probs = model.predict_proba(self.inputs)
        predicted = probs.argmax(axis=1)
        lead = probs[np.arange(len(predicted)), predicted] - probs[
            np.arange(len(predicted)), self.labels
        ]
        self.faulty_pool = np.flatnonzero((predicted != self.labels) & (lead > MARGIN))
        if self.faulty_pool.size == 0:
            raise RuntimeError("the target model misclassifies no production case robustly")
        self.arrays: Dict[Key, Tuple[np.ndarray, np.ndarray]] = {}

    def _draw(self, cases: int) -> Tuple[np.ndarray, np.ndarray]:
        rows = self.rng.integers(0, len(self.labels), cases)
        rows[0] = self.rng.choice(self.faulty_pool)
        noise = self.rng.normal(0.0, NOISE, (cases,) + self.inputs.shape[1:])
        return np.round(self.inputs[rows] + noise, 4), self.labels[rows].astype(np.int64)

    def make(self, keys: List[Key], cases: int) -> None:
        """Generate ``keys`` not made yet; re-draw until each has a misclassified case."""
        pending = [key for key in keys if key not in self.arrays]
        while pending:
            drawn = {key: self._draw(cases) for key in pending}
            firsts = np.stack([drawn[key][0][0] for key in pending])
            predicted = self.model.predict_proba(firsts).argmax(axis=1)
            retry = []
            for key, pred in zip(pending, predicted):
                if pred != drawn[key][1][0]:
                    self.arrays[key] = drawn[key]
                else:
                    retry.append(key)
            pending = retry


class Stream:
    """Draws payload keys for one stream spec; fresh keys are never repeated."""

    def __init__(self, spec: dict, prefix: str, rng: np.random.Generator):
        self.spec, self.prefix, self.rng = spec, prefix, rng
        self.cases = int(spec["cases"])
        self.fresh_drawn = 0

    def hot_keys(self) -> List[Key]:
        return [(self.prefix + ".hot", k) for k in range(int(self.spec["hot"]))]

    def fresh_key(self) -> Key:
        self.fresh_drawn += 1
        return (self.prefix + ".fresh", self.fresh_drawn - 1)

    def draw(self, count: int) -> List[Key]:
        hot = int(self.spec["hot"])
        if not hot:
            return [self.fresh_key() for _ in range(count)]
        # Exactly the designed share of fresh draws, at seeded positions.
        fresh = np.zeros(count, dtype=bool)
        fresh[self.rng.choice(count, int(round(count * float(self.spec["fresh_share"]))),
                              replace=False)] = True
        weights = (np.arange(hot) + 1.0) ** -float(self.spec["zipf"])
        ranks = self.rng.choice(hot, size=count, p=weights / weights.sum())
        return [
            self.fresh_key() if is_fresh else (self.prefix + ".hot", int(rank))
            for is_fresh, rank in zip(fresh, ranks)
        ]


def codec_of(key: Key) -> str:
    """Bodies alternate between the JSON and the binary codec."""
    return "binary" if key[1] % 2 else "json"


def encode(key: Key, inputs: np.ndarray, labels: np.ndarray) -> Tuple[bytes, str]:
    """The pre-encoded ``(body, content type)`` of one payload."""
    from repro.api import DiagnosisRequest
    from repro.wire import get_codec

    codec = get_codec(codec_of(key))
    # JSON carries the rounded float64 values, binary their float32 form:
    # the server's float32 policy turns both into the same arrays.
    array = inputs.astype(np.float32) if codec.name == "binary" else inputs
    request = DiagnosisRequest(model=MODEL_NAME, inputs=array, labels=labels)
    return codec.encode_request(request), codec.content_type
