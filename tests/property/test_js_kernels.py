"""Property tests: the entropy-form JS kernels equal the two-KL oracle (1e-12).

The cross kernel in :mod:`repro.analysis.trajectory` computes
``JS(p, q) = ½(S(p) + S(q)) − S(½(p + q))`` from operands normalized once,
and :class:`~repro.core.patterns.PatternLibrary` caches its prepared means
and member stacks between queries.  Every property draws raw stacks with the
entries that exercise normalization and the log floor — exact zeros, one-hot
rows, zero-mass rows (uniform fallback), negative entries (clipped) and
entries below 1e-12 — and compares the batched results with the
broadcast-over-``js_divergence`` oracle in ``tests/reference/js_oracle.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.trajectory import (
    _unit_layer_weights,
    cross_js_layer_divergences,
    pairwise_trajectory_divergences,
    prepare_js_operand,
)
from repro.core.patterns import ClassExecutionPattern, PatternLibrary
from tests.reference import js_oracle

TOLERANCE = 1e-12

EXAMPLE_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Exact zeros, negatives (clipped), mass below the 1e-12 log floor, ordinary mass.
ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-1.0, 0.0),
    st.floats(1e-16, 1e-12),
    st.floats(0.0, 10.0),
)

RAW, ONE_HOT, ZERO_MASS, NEGATIVE = range(4)


@st.composite
def stacks(draw, rows: int, num_layers: int, num_classes: int) -> np.ndarray:
    """A raw ``(rows, L, C)`` stack in which whole layer rows may be special."""
    stack = draw(hnp.arrays(np.float64, (rows, num_layers, num_classes), elements=ENTRIES))
    kinds = draw(hnp.arrays(np.int8, (rows, num_layers), elements=st.integers(RAW, NEGATIVE)))
    hot = draw(
        hnp.arrays(np.int64, (rows, num_layers), elements=st.integers(0, num_classes - 1))
    )
    one_hot = np.nonzero(kinds == ONE_HOT)
    stack[one_hot] = 0.0
    stack[one_hot + (hot[one_hot],)] = 1.0
    stack[kinds == ZERO_MASS] = 0.0
    stack[kinds == NEGATIVE] = -np.abs(stack[kinds == NEGATIVE]) - 0.5
    return stack


@st.composite
def libraries(draw, num_layers: int, num_classes: int) -> PatternLibrary:
    """A hand-assembled library; some classes store no (or zero) members."""
    class_ids = draw(
        st.lists(st.integers(0, num_classes - 1), min_size=1, max_size=num_classes, unique=True)
    )
    patterns = {}
    for class_id in class_ids:
        mean = draw(stacks(1, num_layers, num_classes))[0]
        kind = draw(st.sampled_from(["members", "none", "empty"]))
        if kind == "members":
            members = draw(stacks(draw(st.integers(1, 6)), num_layers, num_classes))
        elif kind == "none":
            members = None
        else:
            members = np.zeros((0, num_layers, num_classes))
        patterns[class_id] = ClassExecutionPattern(
            class_id=class_id,
            mean_trajectory=mean,
            mean_confidence=mean[:, class_id],
            dispersion=draw(st.floats(0.0, 1.0)),
            mean_final_confidence=0.5,
            mean_entropy=0.5,
            support=1 if members is None else max(1, members.shape[0]),
            member_trajectories=members,
            member_nn_scale=draw(st.floats(0.0, 1.0)),
        )
    library = PatternLibrary(
        SimpleNamespace(num_classes=num_classes),
        late_layer_emphasis=draw(st.sampled_from([0.0, 0.5, 1.0])),
        nn_layer_emphasis=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    library.patterns = patterns
    library._fitted = True
    return library


def dimensions():
    """``(N, M, L, C)`` with N = 0 and M = 1 included."""
    return st.tuples(
        st.integers(0, 5), st.integers(1, 6), st.integers(1, 4), st.integers(1, 6)
    )


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOLERANCE)


class TestCrossKernel:
    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_cross_and_pairwise_match_oracle(self, data):
        n, m, num_layers, num_classes = data.draw(dimensions())
        a = data.draw(stacks(n, num_layers, num_classes))
        b = data.draw(stacks(m, num_layers, num_classes))
        emphasis = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        layer_divs = cross_js_layer_divergences(prepare_js_operand(a), prepare_js_operand(b))
        assert_close(layer_divs, js_oracle.cross_layer_divergences(a, b))
        assert_close(
            layer_divs @ _unit_layer_weights(num_layers, emphasis),
            js_oracle.cross_divergences(a, b, emphasis),
        )
        assert_close(
            pairwise_trajectory_divergences(b, late_layer_emphasis=emphasis),
            js_oracle.pairwise_divergences(b, emphasis),
        )

    def test_divergences_are_never_negative(self):
        """The clamp at 0: identical rows give exactly 0, not a rounding error below."""
        rng = np.random.default_rng(0)
        operand = prepare_js_operand(rng.random((20, 3, 10)))
        divs = cross_js_layer_divergences(operand, operand)
        assert divs.min() >= 0.0
        assert np.all(divs[np.arange(20), np.arange(20)] == 0.0)


class TestCachedLibraryQueries:
    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_batched_queries_match_oracle(self, data):
        n, _, num_layers, num_classes = data.draw(dimensions())
        library = data.draw(libraries(num_layers, num_classes))
        stack = data.draw(stacks(n, num_layers, num_classes))
        # Class id num_classes never has a pattern: its typicality is 0.  One
        # target per case, or several (the predicted and the true class).
        targets = data.draw(st.sampled_from([(n,), (n, 2)]))
        class_ids = data.draw(
            hnp.arrays(np.int64, targets, elements=st.integers(0, num_classes))
        )
        k = data.draw(st.integers(1, 4))
        similarities, divergences = js_oracle.pattern_matches(library, stack)
        typicality = js_oracle.nn_typicality(library, stack, class_ids, k=k)
        for _ in range(2):  # the second round runs on the cached index
            matches = library.batch_pattern_matches(stack)
            assert matches.class_ids.tolist() == sorted(library.patterns)
            assert_close(matches.similarities, similarities)
            assert_close(matches.divergences, divergences)
            assert_close(library.batch_nn_typicality(stack, class_ids, k=k), typicality)

    @EXAMPLE_SETTINGS
    @given(data=st.data())
    def test_pattern_overlap_matches_oracle(self, data):
        _, _, num_layers, num_classes = data.draw(dimensions())
        library = data.draw(libraries(num_layers, num_classes))
        ids = sorted(library.patterns)
        if len(ids) < 2:
            assert library.pattern_overlap() == 0.0
            return
        means = np.stack([library.patterns[i].mean_trajectory for i in ids])
        similarities = 1.0 - js_oracle.cross_divergences(
            means, means, library.late_layer_emphasis
        ) / np.log(2.0)
        expected = float(np.mean(similarities[np.triu_indices(len(ids), 1)]))
        assert abs(library.pattern_overlap() - expected) <= TOLERANCE
