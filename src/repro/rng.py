"""Seeded random-number-generation helpers.

Reproducibility is a first-class requirement for a defect-localization tool:
the same (model, dataset, defect, seed) tuple must always produce the same
diagnosis.  All stochastic components in the library therefore accept either a
``numpy.random.Generator`` or an integer seed and route it through
:func:`ensure_rng`, never through the global numpy random state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` (use the library default seed), an integer seed, or an
        existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}")


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are derived deterministically, so spawning is itself
    reproducible.  Useful when a component needs independent randomness for
    several sub-components (e.g. one stream per probe).
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**31 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a deterministic sub-seed from a base seed and arbitrary labels.

    The experiment harness uses this to give every (model, dataset, defect,
    trial) cell its own independent—but reproducible—seed:

    >>> derive_seed(7, "lenet", "itd", 0) == derive_seed(7, "lenet", "itd", 0)
    True
    >>> derive_seed(7, "lenet", "itd", 0) != derive_seed(7, "lenet", "utd", 0)
    True
    """
    text = ":".join([str(int(base_seed))] + [repr(c) for c in components])
    # A small, stable FNV-1a hash keeps derivation independent of PYTHONHASHSEED.
    h = 2166136261
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 16777619) % (2**32)
    return int(h)
