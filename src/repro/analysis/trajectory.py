"""Trajectory analysis of layer-wise probe distributions.

A *trajectory* is the ``(num_layers, num_classes)`` matrix of probe output
distributions a single input produces as it flows through the instrumented
model — the quantitative form of the paper's "data flow footprint".  This
module provides the statistics DeepMorph's footprint specifics are built from,
each computed for a whole ``(N, L, C)`` stack at once: where the belief
diverges from the true class, how early it commits to the predicted class, how
sharp and how stable it is layer by layer, and how similar two trajectories
are (the Jensen–Shannon cross kernel).  The per-case definitions they are
pinned against live in ``tests/reference/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError
from .divergence import _EPS, js_divergence, normalize_distribution, normalized_entropy

__all__ = [
    "check_trajectory",
    "check_trajectory_stack",
    "trajectory_divergence_to_stack",
    "JSOperand",
    "prepare_js_operand",
    "cross_js_layer_divergences",
    "LayerMajorOperand",
    "weighted_js_divergences",
    "pairwise_trajectory_divergences",
    "batch_divergence_layer",
    "batch_commitment_depth",
    "batch_entropy_profile",
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
    ``(M,)`` divergences: per layer the two-KL
    :func:`~repro.analysis.divergence.js_divergence`, averaged over layers
    with weights that grow linearly towards the last layer.
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


@dataclass(frozen=True)
class LayerMajorOperand:
    """A trajectory stack prepared for :func:`weighted_js_divergences`, rows last.

    :class:`JSOperand` with the row axis moved innermost: ``half`` is
    ``(C, L, N)`` and ``half_plogp`` is ``(L, N)``.  Broadcasting members
    ``(C, L, M, 1)`` against queries ``(C, L, 1, N)`` then runs numpy's inner
    loop over the ``N`` queries rather than over the few layers.
    """

    half: np.ndarray
    half_plogp: np.ndarray

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> "LayerMajorOperand":
        """Prepare an ``(N, L, C)`` stack exactly as :func:`prepare_js_operand` does."""
        operand = prepare_js_operand(stack)
        return cls(
            half=np.ascontiguousarray(operand.half.transpose(0, 2, 1)),
            half_plogp=np.ascontiguousarray(operand.half_plogp.T),
        )

    def select(self, rows: np.ndarray) -> "LayerMajorOperand":
        """The operand of a subset of rows."""
        return LayerMajorOperand(self.half[:, :, rows], self.half_plogp[:, rows])


def weighted_js_divergences(
    members: LayerMajorOperand, queries: LayerMajorOperand, weights: np.ndarray
) -> np.ndarray:
    """Layer-weighted JS divergences of every (member, query) pair, shape ``(M, N)``.

    The entropy form of :func:`cross_js_layer_divergences` in a
    ``(C, L, members, queries)`` layout: per block of members the mixture
    term is an add, a clamp, a log, a multiply and a sum over the leading
    class axis, each per-layer divergence is clamped at 0, and ``weights``
    (one per layer) apply in one multiply and one sum over the layer axis.
    Every step is elementwise or sums over an outer axis, so a pair's value
    does not depend on the other rows of either operand.  A block's
    temporaries hold at most :data:`_CROSS_BLOCK_ELEMENTS` float64 elements,
    or one member against all queries when that is more.
    """
    num_classes, num_layers, m = members.half.shape
    n = queries.half.shape[2]
    if queries.half.shape[:2] != (num_classes, num_layers):
        raise ShapeError(
            f"operands must agree on (classes, layers), got {members.half.shape[:2]} "
            f"vs {queries.half.shape[:2]}"
        )
    out = np.empty((m, n), dtype=np.float64)
    block = max(1, _CROSS_BLOCK_ELEMENTS // max(1, num_classes * num_layers * n))
    query_half = queries.half[:, :, None, :]
    query_plogp = queries.half_plogp[:, None, :]
    layer_weights = np.asarray(weights, dtype=np.float64)[:, None, None]
    for start in range(0, m, block):
        stop = min(start + block, m)
        mixture = members.half[:, :, start:stop, None] + query_half
        terms = np.maximum(mixture, _EPS)
        np.log(terms, out=terms)
        terms *= mixture
        divs = terms.sum(axis=0)
        np.subtract(members.half_plogp[:, start:stop, None] + query_plogp, divs, out=divs)
        np.maximum(divs, 0.0, out=divs)
        divs *= layer_weights
        np.sum(divs, axis=0, out=out[start:stop])
    return out


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


def batch_divergence_layer(stack: np.ndarray, true_classes: np.ndarray) -> np.ndarray:
    """First layer whose top-1 class differs from each case's true class.

    Returns ``(N,)`` layer indices, with ``L`` (one past the last layer) for
    cases that never diverge.
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


def batch_commitment_depth(stack: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
    """Fraction of trailing layers whose top-1 already is each case's predicted class.

    1.0 means the network committed to the (final) prediction from the very
    first layer; values near 0 mean the decision only appeared at the end.
    The trailing run is found loop-free, by scanning the reversed match mask
    for its first ``False``.
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


def batch_entropy_profile(stack: np.ndarray) -> np.ndarray:
    """Normalized entropy (``[0, 1]``) of every member's probe belief per layer, ``(N, L)``."""
    stack = check_trajectory_stack(stack)
    return normalized_entropy(stack, axis=2)


def batch_layer_stability(stack: np.ndarray) -> np.ndarray:
    """How little each member's belief changes between consecutive layers, ``(N,)`` in ``[0, 1]``.

    One minus the mean consecutive-layer JS divergence (normalized by
    ``log 2``).  A static footprint, or one with a single layer, scores 1.
    """
    stack = check_trajectory_stack(stack)
    if stack.shape[1] < 2:
        return np.ones(stack.shape[0], dtype=np.float64)
    consecutive = js_divergence(stack[:, :-1], stack[:, 1:], axis=2) / np.log(2.0)
    return 1.0 - consecutive.mean(axis=1)
