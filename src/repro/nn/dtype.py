"""Compute-dtype policy for the numerical substrate.

The substrate serves two masters with different numerical needs:

* **Training and gradient checking** want float64: central finite differences
  at ``eps = 1e-5`` lose all signal in float32, and the test suite's gradient
  checks are the substrate's correctness anchor.
* **Frozen-backbone extraction** (``collect_activations`` →
  ``layer_distributions`` → the serving layer's batched extraction) is pure
  inference over immutable parameters.  float32 halves memory traffic through
  the banded-convolution gathers and matmuls at an accuracy cost far below
  the probe distributions' meaningful resolution.

This module makes that split explicit instead of implicit.  The *compute
dtype* is a thread-local setting (each serving/engine thread gets its own)
whose default is float64 — training, gradient checks, and direct layer calls
are bit-for-bit unchanged.  Note that the extraction *entry points*
(``SoftmaxInstrumentedModel`` / ``DeepMorph`` / newly saved artifacts) opt
into float32 themselves via ``inference_dtype="float32"``; it is their
default, not this module's:

>>> from repro.nn import dtype as dt
>>> with dt.autocast("float32"):
...     y = model.forward(x)          # runs in float32
>>> z = model.forward(x)              # back to float64

Layers call :func:`as_compute` on their forward inputs and
:func:`match_dtype` on their parameters, so the active policy flows through a
whole model without any layer knowing about it.  Backward passes and parameter
storage stay float64 unconditionally — the policy only ever widens or narrows
the *forward* arithmetic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "DEFAULT_DTYPE",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "compute_dtype",
    "autocast",
    "as_compute",
    "match_dtype",
    "policy_float",
]

DTypeLike = Union[str, type, np.dtype, None]

DEFAULT_DTYPE = np.dtype(np.float64)
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_state = threading.local()


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float64``, ...) to a supported dtype.

    ``None`` resolves to :data:`DEFAULT_DTYPE`.  Anything that is not float32
    or float64 raises :class:`~repro.exceptions.ConfigurationError` — the
    substrate deliberately supports exactly these two precisions.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ConfigurationError(f"unrecognized dtype {dtype!r}") from exc
    if resolved not in SUPPORTED_DTYPES:
        raise ConfigurationError(
            f"compute dtype must be float32 or float64, got {resolved.name!r}"
        )
    return resolved


def compute_dtype() -> np.dtype:
    """The dtype forward passes run in on the calling thread."""
    return getattr(_state, "dtype", DEFAULT_DTYPE)


@contextmanager
def autocast(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Run the enclosed forward passes in ``dtype`` on the calling thread."""
    resolved = resolve_dtype(dtype)
    previous = compute_dtype()
    _state.dtype = resolved
    try:
        yield resolved
    finally:
        _state.dtype = previous


def as_compute(x) -> np.ndarray:
    """Coerce an array-like to the active compute dtype (no copy when it matches)."""
    arr = np.asarray(x)
    target = compute_dtype()
    if arr.dtype == target:
        return arr
    return arr.astype(target)


def policy_float(x) -> np.ndarray:
    """Coerce an array-like to a supported floating dtype without forcing a cast.

    Arrays already in float32 or float64 pass through untouched — a float32
    serving pipeline must not pay a float64 round-trip at every boundary that
    merely needs "some float" input; everything else (ints, lists, ...) is
    converted to the calling thread's active :func:`compute_dtype`.
    """
    arr = np.asarray(x)
    if arr.dtype in SUPPORTED_DTYPES:
        return arr
    return arr.astype(compute_dtype())


def match_dtype(param: np.ndarray, like: np.ndarray) -> np.ndarray:
    """View a (float64) parameter in the dtype of an activation, copying only on mismatch.

    Used by layers to pull weights into the active precision without touching
    the stored parameter: optimizers and serialization always see float64.
    """
    if param.dtype == like.dtype:
        return param
    return param.astype(like.dtype)
