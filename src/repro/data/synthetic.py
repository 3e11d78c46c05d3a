"""Synthetic image-classification datasets.

The paper evaluates on MNIST and CIFAR-10.  Those corpora are not available in
this offline environment, so this module provides parametric synthetic
replacements (:class:`SyntheticMNIST`, :class:`SyntheticCIFAR`; the Table I
presets of :mod:`repro.experiments.config` size them):

* Every class is defined by a small set of **prototype templates** — images
  composed of class-specific Gaussian blobs and oriented bars.  Templates give
  the class a learnable, spatially-structured signature (what digit strokes /
  object shapes provide in the real datasets).
* Every sample is a randomly chosen template with per-sample jitter: random
  translation, intensity scaling, occlusion, and pixel noise.  Jitter creates
  genuine intra-class variability, which is what makes the three injected
  defects behave like they do on real data:

  - removing training data of a class (ITD) leaves parts of that class's
    variability unseen, so production inputs from the class get misclassified;
  - mislabeling part of a class (UTD) teaches the network a systematic wrong
    mapping for that region of input space;
  - removing convolution layers (SD) removes the capacity needed to extract
    the spatial signatures at all.

``SyntheticMNIST`` (1×14×14 by default) and ``SyntheticCIFAR`` (3×16×16 by
default) mirror the two corpora used in the paper; both have 10 classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng, spawn
from .dataset import ArrayDataset

__all__ = [
    "SyntheticConfig",
    "SyntheticImageClassification",
    "SyntheticMNIST",
    "SyntheticCIFAR",
    "make_prototypes",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration of a synthetic image-classification task.

    Attributes
    ----------
    num_classes:
        Number of target classes (10 for both paper datasets).
    image_size:
        Side length of the square images.
    channels:
        1 for MNIST-like grayscale, 3 for CIFAR-like color.
    templates_per_class:
        Number of distinct prototype templates per class (intra-class modes).
    blobs_per_template:
        Number of Gaussian blobs composing each template.
    bars_per_template:
        Number of oriented bars composing each template.
    noise_std:
        Standard deviation of additive pixel noise.
    max_shift:
        Maximum per-sample translation in pixels.
    intensity_jitter:
        Half-width of the multiplicative intensity jitter interval.
    distractor_bars:
        Number of class-independent clutter bars drawn at random positions in
        every sample.  Clutter makes the task require genuine spatial feature
        extraction (a structurally weak model cannot ignore it), which is what
        keeps the structure-defect experiments meaningful.
    distractor_amplitude:
        Intensity of the clutter bars relative to the class strokes.
    seed:
        Seed that fixes the class prototypes (sampling uses a separate RNG).
    """

    num_classes: int = 10
    image_size: int = 14
    channels: int = 1
    templates_per_class: int = 3
    blobs_per_template: int = 3
    bars_per_template: int = 2
    noise_std: float = 0.10
    max_shift: int = 2
    intensity_jitter: float = 0.25
    distractor_bars: int = 1
    distractor_amplitude: float = 0.35
    seed: int = 2021

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.num_classes}")
        if self.image_size < 8:
            raise ConfigurationError(f"image_size must be >= 8, got {self.image_size}")
        if self.channels not in (1, 3):
            raise ConfigurationError(f"channels must be 1 or 3, got {self.channels}")
        if self.templates_per_class < 1:
            raise ConfigurationError("templates_per_class must be >= 1")
        if self.blobs_per_template < 0 or self.bars_per_template < 0:
            raise ConfigurationError("blob/bar counts must be non-negative")
        if self.blobs_per_template + self.bars_per_template == 0:
            raise ConfigurationError("templates need at least one blob or bar")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be non-negative, got {self.noise_std}")
        if self.max_shift < 0:
            raise ConfigurationError(f"max_shift must be non-negative, got {self.max_shift}")
        if not 0.0 <= self.intensity_jitter < 1.0:
            raise ConfigurationError(
                f"intensity_jitter must lie in [0, 1), got {self.intensity_jitter}"
            )
        if self.distractor_bars < 0:
            raise ConfigurationError(
                f"distractor_bars must be non-negative, got {self.distractor_bars}"
            )
        if self.distractor_amplitude < 0:
            raise ConfigurationError(
                f"distractor_amplitude must be non-negative, got {self.distractor_amplitude}"
            )


def _draw_blob(canvas: np.ndarray, cy: float, cx: float, sigma: float, amplitude: float) -> None:
    """Add a Gaussian blob to a 2-D canvas in place."""
    size = canvas.shape[0]
    ys, xs = np.mgrid[0:size, 0:size]
    canvas += amplitude * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma ** 2))


def _draw_bar(
    canvas: np.ndarray, cy: float, cx: float, angle: float, length: float,
    thickness: float, amplitude: float,
) -> None:
    """Add an oriented soft-edged bar to a 2-D canvas in place."""
    size = canvas.shape[0]
    ys, xs = np.mgrid[0:size, 0:size]
    dy, dx = ys - cy, xs - cx
    along = dy * np.sin(angle) + dx * np.cos(angle)
    across = -dy * np.cos(angle) + dx * np.sin(angle)
    mask = np.exp(-(across ** 2) / (2.0 * thickness ** 2)) * (np.abs(along) <= length / 2.0)
    canvas += amplitude * mask


def make_prototypes(config: SyntheticConfig) -> np.ndarray:
    """Build the class prototype templates for ``config``.

    Returns an array of shape
    ``(num_classes, templates_per_class, channels, image_size, image_size)``
    with values roughly in ``[0, 1]``.  Prototypes are a pure function of the
    config (including its seed), so train and production splits generated from
    the same config share the same class definitions.
    """
    rng = ensure_rng(config.seed)
    size = config.image_size
    prototypes = np.zeros(
        (config.num_classes, config.templates_per_class, config.channels, size, size),
        dtype=np.float64,
    )

    for cls in range(config.num_classes):
        # Class identity: the *positions/orientations* of its strokes.
        class_rng = ensure_rng(int(rng.integers(0, 2**31 - 1)))
        blob_centers = class_rng.uniform(size * 0.2, size * 0.8,
                                         size=(config.blobs_per_template, 2))
        bar_params = class_rng.uniform(0, 1, size=(config.bars_per_template, 4))
        channel_weights = class_rng.uniform(0.35, 1.0, size=(config.channels,))

        for tpl in range(config.templates_per_class):
            tpl_rng = ensure_rng(int(class_rng.integers(0, 2**31 - 1)))
            canvas = np.zeros((size, size), dtype=np.float64)

            for b in range(config.blobs_per_template):
                jitter = tpl_rng.uniform(-1.0, 1.0, size=2)
                cy, cx = blob_centers[b] + jitter
                sigma = tpl_rng.uniform(size * 0.07, size * 0.14)
                _draw_blob(canvas, cy, cx, sigma, amplitude=1.0)

            for b in range(config.bars_per_template):
                py, px, pangle, plen = bar_params[b]
                cy = size * (0.25 + 0.5 * py) + tpl_rng.uniform(-1.0, 1.0)
                cx = size * (0.25 + 0.5 * px) + tpl_rng.uniform(-1.0, 1.0)
                angle = pangle * np.pi + tpl_rng.uniform(-0.15, 0.15)
                length = size * (0.3 + 0.4 * plen)
                _draw_bar(canvas, cy, cx, angle, length,
                          thickness=size * 0.05, amplitude=0.9)

            peak = canvas.max()
            if peak > 0:
                canvas = canvas / peak

            for ch in range(config.channels):
                prototypes[cls, tpl, ch] = canvas * channel_weights[ch]

    return prototypes


class SyntheticImageClassification:
    """Sampler for a synthetic image-classification task.

    The generator owns the class prototypes (fixed by the config seed) and
    produces arbitrarily many i.i.d. samples from them.
    """

    def __init__(self, config: SyntheticConfig):
        self.config = config
        self.prototypes = make_prototypes(config)

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.config.channels, self.config.image_size, self.config.image_size)

    def sample_class(self, cls: int, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` samples of class ``cls`` as an ``(n, C, H, W)`` array."""
        if not 0 <= cls < self.num_classes:
            raise ConfigurationError(
                f"class {cls} out of range for {self.num_classes} classes"
            )
        if n < 0:
            raise ConfigurationError(f"cannot sample a negative count: {n}")
        cfg = self.config
        generator = ensure_rng(rng)
        size = cfg.image_size
        out = np.zeros((n, cfg.channels, size, size), dtype=np.float64)

        for i in range(n):
            tpl = int(generator.integers(0, cfg.templates_per_class))
            image = self.prototypes[cls, tpl].copy()

            # Per-sample translation.
            if cfg.max_shift > 0:
                dy = int(generator.integers(-cfg.max_shift, cfg.max_shift + 1))
                dx = int(generator.integers(-cfg.max_shift, cfg.max_shift + 1))
                image = np.roll(np.roll(image, dy, axis=1), dx, axis=2)

            # Class-independent clutter bars: present in every class, so they
            # carry no label information and must be ignored by the model.
            for _ in range(cfg.distractor_bars):
                clutter = np.zeros((size, size), dtype=np.float64)
                _draw_bar(
                    clutter,
                    cy=float(generator.uniform(0.15 * size, 0.85 * size)),
                    cx=float(generator.uniform(0.15 * size, 0.85 * size)),
                    angle=float(generator.uniform(0.0, np.pi)),
                    length=size * float(generator.uniform(0.25, 0.5)),
                    thickness=size * 0.04,
                    amplitude=cfg.distractor_amplitude,
                )
                image = image + clutter[None, :, :]

            # Per-sample intensity scaling.
            if cfg.intensity_jitter > 0:
                scale = 1.0 + generator.uniform(-cfg.intensity_jitter, cfg.intensity_jitter)
                image = image * scale

            # Pixel noise.
            if cfg.noise_std > 0:
                image = image + generator.normal(0.0, cfg.noise_std, size=image.shape)

            out[i] = np.clip(image, 0.0, 1.5)

        return out

    def sample(
        self, n_per_class: int, rng: RngLike = None, shuffle: bool = True, name: str = "synthetic"
    ) -> ArrayDataset:
        """Draw a balanced dataset with ``n_per_class`` samples of every class."""
        if n_per_class <= 0:
            raise ConfigurationError(f"n_per_class must be positive, got {n_per_class}")
        generator = ensure_rng(rng)
        class_rngs = spawn(generator, self.num_classes)

        inputs: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        for cls in range(self.num_classes):
            inputs.append(self.sample_class(cls, n_per_class, rng=class_rngs[cls]))
            labels.append(np.full(n_per_class, cls, dtype=np.int64))

        x = np.concatenate(inputs, axis=0)
        y = np.concatenate(labels, axis=0)
        if shuffle:
            order = np.arange(x.shape[0])
            generator.shuffle(order)
            x, y = x[order], y[order]
        return ArrayDataset(x, y, self.num_classes, name=name)

    def splits(
        self,
        n_train_per_class: int,
        n_test_per_class: int,
        rng: RngLike = None,
        name: str = "synthetic",
    ) -> Tuple[ArrayDataset, ArrayDataset]:
        """Independent training and production (test) splits from the same prototypes."""
        generator = ensure_rng(rng)
        train_rng, test_rng = spawn(generator, 2)
        train = self.sample(n_train_per_class, rng=train_rng, name=f"{name}-train")
        test = self.sample(n_test_per_class, rng=test_rng, name=f"{name}-test")
        return train, test


class SyntheticMNIST(SyntheticImageClassification):
    """Synthetic stand-in for MNIST: 10 classes of grayscale stroke images."""

    def __init__(
        self,
        image_size: int = 14,
        templates_per_class: int = 4,
        noise_std: float = 0.10,
        max_shift: int = 2,
        distractor_bars: int = 1,
        distractor_amplitude: float = 0.28,
        seed: int = 2021,
    ):
        super().__init__(SyntheticConfig(
            num_classes=10,
            image_size=image_size,
            channels=1,
            templates_per_class=templates_per_class,
            blobs_per_template=2,
            bars_per_template=3,
            noise_std=noise_std,
            max_shift=max_shift,
            distractor_bars=distractor_bars,
            distractor_amplitude=distractor_amplitude,
            seed=seed,
        ))


class SyntheticCIFAR(SyntheticImageClassification):
    """Synthetic stand-in for CIFAR-10: 10 classes of colored blob/bar images."""

    def __init__(
        self,
        image_size: int = 16,
        templates_per_class: int = 4,
        noise_std: float = 0.12,
        max_shift: int = 2,
        distractor_bars: int = 1,
        distractor_amplitude: float = 0.28,
        seed: int = 2021,
    ):
        super().__init__(SyntheticConfig(
            num_classes=10,
            image_size=image_size,
            channels=3,
            templates_per_class=templates_per_class,
            blobs_per_template=3,
            bars_per_template=2,
            noise_std=noise_std,
            max_shift=max_shift,
            distractor_bars=distractor_bars,
            distractor_amplitude=distractor_amplitude,
            seed=seed,
        ))
