"""The pattern library's prepared kernel operands follow the pattern set.

``PatternLibrary._batch_index`` prepares the class means and member stacks
once, keyed on the pattern objects' identities, and ``fit`` / ``partial_fit``
drop it.  Each test changes the members behind a warm cache and checks that
the batched queries answer for the new members, against the oracle.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from repro.core.patterns import PatternLibrary
from tests.reference import js_oracle

TOLERANCE = 1e-12
LAYERS, CLASSES = 4, 5


def labeled_arrays(rng: np.random.Generator, n: int) -> tuple:
    trajectories = rng.dirichlet(np.ones(CLASSES), size=(n, LAYERS))
    final_probs = rng.dirichlet(np.ones(CLASSES), size=n)
    labels = np.arange(n) % CLASSES
    return trajectories, final_probs, labels


def warm_library(rng: np.random.Generator) -> tuple:
    """A partial_fit-built library whose index is cached, plus a query batch."""
    library = PatternLibrary(SimpleNamespace(num_classes=CLASSES))
    library.partial_fit_arrays(*labeled_arrays(rng, 30))
    queries = rng.dirichlet(np.ones(CLASSES), size=(10, LAYERS))
    class_ids = np.arange(10) % CLASSES
    before = library.batch_nn_typicality(queries, class_ids)
    return library, queries, class_ids, before


def test_partial_fit_rebuilds_cached_member_terms(rng):
    library, queries, class_ids, before = warm_library(rng)
    cached = library._batch_index()
    library.partial_fit_arrays(*labeled_arrays(rng, 30))
    after = library.batch_nn_typicality(queries, class_ids)
    assert library._batch_index() is not cached
    assert not np.allclose(after, before)
    np.testing.assert_allclose(
        after, js_oracle.nn_typicality(library, queries, class_ids), rtol=0, atol=TOLERANCE
    )


def test_replacing_a_pattern_rebuilds_cached_member_terms(rng):
    library, queries, class_ids, before = warm_library(rng)
    class_id = int(class_ids[0])
    library.patterns[class_id] = dataclasses.replace(
        library.patterns[class_id], member_trajectories=queries[:1].copy()
    )
    after = library.batch_nn_typicality(queries, class_ids)
    # Query 0 is now its class's only member: distance 0, typicality exactly 1.
    assert before[0] < 1.0 and after[0] == 1.0
    np.testing.assert_allclose(
        after, js_oracle.nn_typicality(library, queries, class_ids), rtol=0, atol=TOLERANCE
    )


def test_nn_queries_weight_layers_at_the_library_emphasis(rng):
    """Typicality weights layers at nn_layer_emphasis, as member_nn_scale does."""
    library = PatternLibrary(SimpleNamespace(num_classes=CLASSES), nn_layer_emphasis=0.5)
    library.partial_fit_arrays(*labeled_arrays(rng, 30))
    queries = rng.dirichlet(np.ones(CLASSES), size=(10, LAYERS))
    targets = np.stack([np.arange(10) % CLASSES, (np.arange(10) + 2) % CLASSES], axis=1)
    expected = js_oracle.nn_typicality(library, queries, targets)
    np.testing.assert_allclose(
        library.batch_nn_typicality(queries, targets[:, 1]), expected[:, 1],
        rtol=0, atol=TOLERANCE,
    )
    np.testing.assert_allclose(
        library.batch_nn_typicality(queries, targets), expected, rtol=0, atol=TOLERANCE
    )
    # Every layer weighs in at 0.5; at 1.0 the first layer's weight is 0 and
    # the kernel skips it.  The cached index follows the emphasis.
    assert library._batch_index().nn_layers.tolist() == list(range(LAYERS))
    library.nn_layer_emphasis = 1.0
    assert library._batch_index().nn_layers.tolist() == list(range(1, LAYERS))
    np.testing.assert_allclose(
        library.batch_nn_typicality(queries, targets),
        js_oracle.nn_typicality(library, queries, targets),
        rtol=0, atol=TOLERANCE,
    )
