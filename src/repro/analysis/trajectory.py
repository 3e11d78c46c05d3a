"""Trajectory analysis of layer-wise probe distributions.

A *trajectory* is the ``(num_layers, num_classes)`` matrix of probe output
distributions a single input produces as it flows through the instrumented
model — the quantitative form of the paper's "data flow footprint".  This
module provides the statistics DeepMorph's footprint specifics are built from:
where the belief diverges from the true class, how early it commits to the
predicted class, how sharp it is layer by layer, and how similar two
trajectories are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError
from .divergence import (
    _EPS,
    js_divergence,
    js_similarity,
    normalize_distribution,
    normalized_entropy,
)

__all__ = [
    "check_trajectory",
    "check_trajectory_stack",
    "trajectory_similarity",
    "trajectory_divergence",
    "trajectory_divergence_to_stack",
    "batch_trajectory_divergence",
    "batch_trajectory_similarity",
    "JSOperand",
    "prepare_js_operand",
    "cross_js_layer_divergences",
    "cross_trajectory_divergences",
    "cross_trajectory_layer_divergences",
    "pairwise_trajectory_divergences",
    "divergence_layer",
    "batch_divergence_layer",
    "commitment_depth",
    "batch_commitment_depth",
    "confidence_trajectory",
    "entropy_profile",
    "batch_entropy_profile",
    "layer_stability",
    "batch_layer_stability",
]


def check_trajectory(trajectory: np.ndarray) -> np.ndarray:
    """Validate and return a trajectory as a float ``(L, C)`` array."""
    trajectory = np.asarray(trajectory, dtype=np.float64)
    if trajectory.ndim != 2:
        raise ShapeError(
            f"a trajectory must be 2-D (layers, classes), got shape {trajectory.shape}"
        )
    if trajectory.shape[0] == 0 or trajectory.shape[1] == 0:
        raise ShapeError(f"a trajectory must be non-empty, got shape {trajectory.shape}")
    return trajectory


def check_trajectory_stack(stack: np.ndarray) -> np.ndarray:
    """Validate and return a stack of trajectories as a float ``(M, L, C)`` array.

    The batched counterpart of :func:`check_trajectory`: bulk consumers (e.g.
    :meth:`repro.core.FootprintExtractor.from_arrays`) validate a whole
    extraction batch once instead of re-validating each member.  ``M`` may be
    zero; ``L`` and ``C`` must not be.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeError(
            f"a trajectory stack must be 3-D (members, layers, classes), "
            f"got shape {stack.shape}"
        )
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        raise ShapeError(
            f"trajectories must have non-empty layer and class axes, got shape {stack.shape}"
        )
    return stack


def _layer_weights(num_layers: int, emphasis: float) -> np.ndarray:
    """Linearly increasing layer weights; ``emphasis=0`` is uniform.

    Later layers carry more class-discriminative information, so comparisons
    can optionally emphasize them.
    """
    if num_layers == 1:
        return np.ones(1)
    ramp = np.linspace(1.0 - emphasis, 1.0 + emphasis, num_layers)
    return ramp / ramp.sum() * num_layers


def _unit_layer_weights(num_layers: int, emphasis: float) -> np.ndarray:
    """:func:`_layer_weights` scaled to sum to one, so weighting is a dot product."""
    weights = _layer_weights(num_layers, emphasis)
    return weights / weights.sum()


def trajectory_similarity(
    a: np.ndarray, b: np.ndarray, late_layer_emphasis: float = 0.5
) -> float:
    """Mean per-layer JS similarity of two trajectories, in ``[0, 1]``."""
    a, b = check_trajectory(a), check_trajectory(b)
    if a.shape != b.shape:
        raise ShapeError(f"trajectories must have the same shape, got {a.shape} vs {b.shape}")
    sims = js_similarity(a, b, axis=1)
    weights = _layer_weights(a.shape[0], late_layer_emphasis)
    return float(np.average(sims, weights=weights))


def trajectory_divergence(
    a: np.ndarray, b: np.ndarray, late_layer_emphasis: float = 0.5
) -> float:
    """Mean per-layer JS divergence of two trajectories (in nats)."""
    a, b = check_trajectory(a), check_trajectory(b)
    if a.shape != b.shape:
        raise ShapeError(f"trajectories must have the same shape, got {a.shape} vs {b.shape}")
    divs = js_divergence(a, b, axis=1)
    weights = _layer_weights(a.shape[0], late_layer_emphasis)
    return float(np.average(divs, weights=weights))


def trajectory_divergence_to_stack(
    trajectory: np.ndarray, stack: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """Layer-weighted JS divergence between one trajectory and a stack of them.

    Parameters
    ----------
    trajectory:
        ``(L, C)`` trajectory.
    stack:
        ``(M, L, C)`` stack of trajectories.

    Returns
    -------
    ``(M,)`` divergences.  Vectorized equivalent of calling
    :func:`trajectory_divergence` against each stack member.
    """
    trajectory = check_trajectory(trajectory)
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != trajectory.shape:
        raise ShapeError(
            f"stack must have shape (M, {trajectory.shape[0]}, {trajectory.shape[1]}), "
            f"got {stack.shape}"
        )
    divs = js_divergence(stack, np.broadcast_to(trajectory, stack.shape), axis=2)
    weights = _layer_weights(trajectory.shape[0], late_layer_emphasis)
    return np.average(divs, axis=1, weights=weights)


def batch_trajectory_divergence(
    stack: np.ndarray, reference: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """Layer-weighted JS divergence of every stack member to one reference.

    Parameters
    ----------
    stack:
        ``(N, L, C)`` stack of trajectories.
    reference:
        ``(L, C)`` trajectory, e.g. a class pattern mean.

    Returns
    -------
    ``(N,)`` divergences — the batch-first mirror of
    :func:`trajectory_divergence_to_stack` (JS is symmetric, so the two agree
    bit for bit).
    """
    return trajectory_divergence_to_stack(
        reference, stack, late_layer_emphasis=late_layer_emphasis
    )


def batch_trajectory_similarity(
    stack: np.ndarray, reference: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """Layer-weighted JS similarity (``[0, 1]``) of every stack member to a reference.

    Since the layer weights are normalized, this is exactly one minus the
    normalized divergence — the same identity the batched pattern matcher
    uses, so validation and weighting live in one kernel.
    """
    divergences = batch_trajectory_divergence(
        stack, reference, late_layer_emphasis=late_layer_emphasis
    )
    return 1.0 - divergences / np.log(2.0)


#: Soft cap (in float64 elements) on the ``(C, block, M, L)`` mixture
#: temporaries of the cross kernel.  Blocks of rows keep peak memory bounded
#: no matter how many cases are diagnosed at once, and at 512 KiB a block's
#: temporaries stay in cache across the kernel's passes (on a 2-core VM,
#: ~1.3x faster than 32 MiB blocks for 1024 cases x 60 members).
_CROSS_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class JSOperand:
    """A trajectory stack prepared once for :func:`cross_js_layer_divergences`.

    Attributes
    ----------
    half:
        ``(C, N, L)``: half of every normalized layer distribution, class axis
        first.  The mixture ``½(p + q)`` of two rows is then one add, and its
        reduction over classes adds contiguous ``(N, L)`` slabs.
    half_plogp:
        ``(N, L)``: half of ``S(p) = Σ_c p·log max(p, 1e-12)`` per row and
        layer, the part of the divergence that does not depend on the pair.
    """

    half: np.ndarray
    half_plogp: np.ndarray

    @property
    def shape(self) -> tuple:
        """``(N, L, C)``: the shape of the stack this operand was prepared from."""
        num_classes, rows, num_layers = self.half.shape
        return rows, num_layers, num_classes

    def select(self, rows: np.ndarray) -> "JSOperand":
        """The operand of a subset of rows."""
        return JSOperand(self.half[:, rows], self.half_plogp[rows])


def prepare_js_operand(stack: np.ndarray) -> JSOperand:
    """Normalize an ``(N, L, C)`` stack once and precompute its entropy terms.

    Every layer distribution goes through :func:`normalize_distribution`, as
    :func:`~repro.analysis.divergence.js_divergence` does on every call:
    negative entries are clipped and zero-mass rows become uniform.  The log
    floor is ``kl_divergence``'s, so both forms clamp the same terms.  ``S``
    is summed over the leading class axis, in the kernel's order, so a row
    crossed with itself gives exactly 0.
    """
    p = normalize_distribution(check_trajectory_stack(stack), axis=2)
    p = np.ascontiguousarray(np.moveaxis(p, 2, 0))
    plogp = (p * np.log(np.maximum(p, _EPS))).sum(axis=0)
    p *= 0.5
    return JSOperand(half=p, half_plogp=0.5 * plogp)


def cross_js_layer_divergences(a: JSOperand, b: JSOperand) -> np.ndarray:
    """Per-layer JS divergences between two prepared stacks, shape ``(N, M, L)``.

    Uses the entropy form (Lin 1991): ``JS(p, q) = H(m) − ½(H(p) + H(q))``
    with ``m = ½(p + q)``, i.e. ``½(S(p) + S(q)) − S(m)`` for ``S = −H``.
    Both operands carry their ``S`` terms, so only the mixture term touches
    the ``(C, block, M, L)`` temporary: an add, a clamp, a log, a multiply
    and a sum over the leading class axis.  Rounding can leave a pair of
    near-identical rows just below zero, so the result is clamped at 0.
    """
    n, num_layers, num_classes = a.shape
    m = b.shape[0]
    if b.shape[1:] != (num_layers, num_classes):
        raise ShapeError(
            f"stacks must agree on (layers, classes), got {a.shape} vs {b.shape}"
        )
    out = np.empty((n, m, num_layers), dtype=np.float64)
    block = max(1, _CROSS_BLOCK_ELEMENTS // max(1, m * num_layers * num_classes))
    b_half = b.half[:, None, :, :]
    b_plogp = b.half_plogp[None, :, :]
    for start in range(0, n, block):
        stop = min(start + block, n)
        mixture = a.half[:, start:stop, None, :] + b_half
        terms = np.maximum(mixture, _EPS)
        np.log(terms, out=terms)
        terms *= mixture
        divs = out[start:stop]
        np.sum(terms, axis=0, out=divs)
        np.subtract(a.half_plogp[start:stop, None, :] + b_plogp, divs, out=divs)
    return np.maximum(out, 0.0, out=out)


def cross_trajectory_layer_divergences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-layer JS divergences between two trajectory stacks, shape ``(N, M, L)``.

    The elementwise core of the cross kernel: every member of ``a``
    (``(N, L, C)``) against every member of ``b`` (``(M, L, C)``), before any
    layer weighting.  Both stacks are prepared here; callers that compare
    against the same stack repeatedly (the pattern library) prepare it once
    and call :func:`cross_js_layer_divergences` directly.
    """
    return cross_js_layer_divergences(prepare_js_operand(a), prepare_js_operand(b))


def cross_trajectory_divergences(
    a: np.ndarray, b: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """``(N, M)`` layer-weighted JS divergences between two trajectory stacks.

    Every member of ``a`` (``(N, L, C)``) is compared against every member of
    ``b`` (``(M, L, C)``) in one broadcasted kernel — the batched core behind
    nearest-member analysis and the vectorized pairwise matrix.
    """
    divs = cross_trajectory_layer_divergences(a, b)
    return divs @ _unit_layer_weights(divs.shape[2], late_layer_emphasis)


def pairwise_trajectory_divergences(
    stack: np.ndarray, late_layer_emphasis: float = 0.5
) -> np.ndarray:
    """Symmetric ``(M, M)`` matrix of layer-weighted JS divergences within a stack.

    Loop-free: the stack is prepared once and crossed with itself.  The
    per-row loop over :func:`trajectory_divergence_to_stack` it is pinned
    against lives in ``tests/reference/diagnosis_oracle.py``.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeError(f"stack must be 3-D (members, layers, classes), got shape {stack.shape}")
    if stack.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.float64)
    operand = prepare_js_operand(stack)
    matrix = cross_js_layer_divergences(operand, operand) @ _unit_layer_weights(
        stack.shape[1], late_layer_emphasis
    )
    np.fill_diagonal(matrix, 0.0)
    return matrix


def divergence_layer(trajectory: np.ndarray, true_class: int) -> int:
    """First layer whose top-1 class differs from ``true_class``.

    Returns ``L`` (one past the last layer) if the trajectory never diverges.
    """
    trajectory = check_trajectory(trajectory)
    if not 0 <= true_class < trajectory.shape[1]:
        raise ShapeError(
            f"true_class {true_class} out of range for {trajectory.shape[1]} classes"
        )
    top1 = trajectory.argmax(axis=1)
    mismatches = np.nonzero(top1 != true_class)[0]
    return int(mismatches[0]) if mismatches.size else int(trajectory.shape[0])


def batch_divergence_layer(stack: np.ndarray, true_classes: np.ndarray) -> np.ndarray:
    """First layer whose top-1 differs from each case's true class, for a whole stack.

    The array-wide counterpart of :func:`divergence_layer`: ``(N,)`` layer
    indices, with ``L`` for cases that never diverge.
    """
    stack = check_trajectory_stack(stack)
    true_classes = np.asarray(true_classes, dtype=np.int64)
    if true_classes.shape != (stack.shape[0],):
        raise ShapeError(
            f"true_classes must be 1-D with one entry per case, got shape "
            f"{true_classes.shape} for {stack.shape[0]} cases"
        )
    if stack.shape[0] and (
        true_classes.min() < 0 or true_classes.max() >= stack.shape[2]
    ):
        raise ShapeError(
            f"true classes must lie in [0, {stack.shape[2]}), got range "
            f"[{true_classes.min()}, {true_classes.max()}]"
        )
    top1 = stack.argmax(axis=2)
    mismatches = top1 != true_classes[:, None]
    return np.where(
        mismatches.any(axis=1), mismatches.argmax(axis=1), stack.shape[1]
    ).astype(np.int64)


def commitment_depth(trajectory: np.ndarray, predicted_class: int) -> float:
    """Fraction of trailing layers whose top-1 prediction already is ``predicted_class``.

    1.0 means the network committed to the (final) prediction from the very
    first layer; values near 0 mean the decision only appeared at the end.
    """
    trajectory = check_trajectory(trajectory)
    if not 0 <= predicted_class < trajectory.shape[1]:
        raise ShapeError(
            f"predicted_class {predicted_class} out of range for {trajectory.shape[1]} classes"
        )
    top1 = trajectory.argmax(axis=1)
    depth = 0
    for layer in range(trajectory.shape[0] - 1, -1, -1):
        if top1[layer] == predicted_class:
            depth += 1
        else:
            break
    return depth / trajectory.shape[0]


def batch_commitment_depth(stack: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
    """Trailing-commitment fraction of every stack member, loop-free.

    The array-wide counterpart of :func:`commitment_depth`: the length of the
    trailing run of layers whose top-1 already is the case's predicted class,
    found by scanning the reversed match mask for its first ``False``.
    """
    stack = check_trajectory_stack(stack)
    predicted_classes = np.asarray(predicted_classes, dtype=np.int64)
    if predicted_classes.shape != (stack.shape[0],):
        raise ShapeError(
            f"predicted_classes must be 1-D with one entry per case, got shape "
            f"{predicted_classes.shape} for {stack.shape[0]} cases"
        )
    if stack.shape[0] and (
        predicted_classes.min() < 0 or predicted_classes.max() >= stack.shape[2]
    ):
        raise ShapeError(
            f"predicted classes must lie in [0, {stack.shape[2]}), got range "
            f"[{predicted_classes.min()}, {predicted_classes.max()}]"
        )
    top1 = stack.argmax(axis=2)
    trailing = (top1 == predicted_classes[:, None])[:, ::-1]
    depths = np.where(trailing.all(axis=1), stack.shape[1], trailing.argmin(axis=1))
    return depths / stack.shape[1]


def confidence_trajectory(trajectory: np.ndarray, target_class: int) -> np.ndarray:
    """The probability assigned to ``target_class`` at every layer."""
    trajectory = check_trajectory(trajectory)
    if not 0 <= target_class < trajectory.shape[1]:
        raise ShapeError(
            f"target_class {target_class} out of range for {trajectory.shape[1]} classes"
        )
    return trajectory[:, target_class].copy()


def entropy_profile(trajectory: np.ndarray) -> np.ndarray:
    """Normalized entropy (``[0, 1]``) of the probe distribution at every layer."""
    trajectory = check_trajectory(trajectory)
    return normalized_entropy(trajectory, axis=1)


def layer_stability(trajectory: np.ndarray) -> float:
    """How little the belief changes between consecutive layers, in ``[0, 1]``.

    Computed as one minus the mean consecutive-layer JS divergence (normalized
    by ``log 2``).  A completely static footprint scores 1.
    """
    trajectory = check_trajectory(trajectory)
    if trajectory.shape[0] < 2:
        return 1.0
    consecutive = js_divergence(trajectory[:-1], trajectory[1:], axis=1) / np.log(2.0)
    return float(1.0 - consecutive.mean())


def batch_entropy_profile(stack: np.ndarray) -> np.ndarray:
    """Per-layer normalized entropies of a whole stack, shape ``(N, L)``."""
    stack = check_trajectory_stack(stack)
    return normalized_entropy(stack, axis=2)


def batch_layer_stability(stack: np.ndarray) -> np.ndarray:
    """Consecutive-layer belief stability of every stack member, shape ``(N,)``."""
    stack = check_trajectory_stack(stack)
    if stack.shape[1] < 2:
        return np.ones(stack.shape[0], dtype=np.float64)
    consecutive = js_divergence(stack[:, :-1], stack[:, 1:], axis=2) / np.log(2.0)
    return 1.0 - consecutive.mean(axis=1)
