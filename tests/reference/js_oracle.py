"""Broadcast-over-``js_divergence`` oracles for the JS cross kernels.

These are the direct definitions: every (row, member) pair goes through
:func:`repro.analysis.divergence.js_divergence` in its two-KL form, and no
normalization or entropy term is shared between pairs.  The entropy-form
kernel in :mod:`repro.analysis.trajectory` and the cached batched queries of
:class:`repro.core.patterns.PatternLibrary` are pinned against them.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.divergence import js_divergence
from repro.analysis.trajectory import _layer_weights


def cross_layer_divergences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(N, M, L)`` JS divergences of every row of ``a`` against every row of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = (a.shape[0], b.shape[0]) + a.shape[1:]
    return js_divergence(
        np.broadcast_to(a[:, None], shape), np.broadcast_to(b[None, :], shape), axis=3
    )


def cross_divergences(
    a: np.ndarray, b: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """``(N, M)`` layer-weighted JS divergences (``np.average`` over layers)."""
    divs = cross_layer_divergences(a, b)
    weights = _layer_weights(divs.shape[2], late_layer_emphasis)
    return np.average(divs, axis=2, weights=weights)


def pairwise_divergences(stack: np.ndarray, late_layer_emphasis: float = 0.5) -> np.ndarray:
    """``(M, M)`` layer-weighted JS divergences within a stack, zero diagonal."""
    matrix = cross_divergences(stack, stack, late_layer_emphasis)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def pattern_matches(library, stack: np.ndarray) -> tuple:
    """``(similarities, divergences)`` of every row against every class mean.

    Columns are the library's classes in ascending id order, as in
    :class:`repro.core.patterns.PatternMatches`.
    """
    ids = sorted(library.patterns)
    means = np.stack([library.patterns[i].mean_trajectory for i in ids])
    divs = cross_layer_divergences(stack, means)
    num_layers = divs.shape[2]
    similarities = np.average(
        1.0 - divs / np.log(2.0),
        axis=2,
        weights=_layer_weights(num_layers, library.late_layer_emphasis),
    )
    divergences = np.average(divs, axis=2, weights=_layer_weights(num_layers, 0.5))
    return similarities, divergences


def nn_typicality(
    library, stack: np.ndarray, class_ids: np.ndarray, k: int = 3, scale_floor: float = 0.01
) -> np.ndarray:
    """Nearest-member typicality of every row w.r.t. its own class, one row at a time.

    ``class_ids`` is ``(N,)`` or ``(N, T)``; entry ``[row, t]`` compares row
    ``row`` with class ``class_ids[row, t]``.  Layers are weighted at the
    library's ``nn_layer_emphasis``, the emphasis ``member_nn_scale`` was
    fitted at.
    """
    stack = np.asarray(stack, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    out = np.zeros(class_ids.shape, dtype=np.float64)
    for position, class_id in np.ndenumerate(class_ids):
        pattern = library.patterns.get(int(class_id))
        if pattern is None:
            continue
        members = pattern.member_trajectories
        if members is None or members.shape[0] == 0:
            members = pattern.mean_trajectory[None]
        row = position[0]
        divs = cross_divergences(
            stack[row:row + 1], members, late_layer_emphasis=library.nn_layer_emphasis
        )[0]
        nearest = np.sort(divs)[:max(1, min(int(k), divs.shape[0]))].mean()
        scale = max(float(pattern.member_nn_scale), scale_floor)
        out[position] = scale / (scale + nearest)
    return out
