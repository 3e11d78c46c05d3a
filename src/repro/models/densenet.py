"""DenseNet-family classifier built from dense blocks and transition layers.

The paper uses DenseNet-40 on CIFAR-10: three dense blocks of twelve units
with growth rate 12, separated by compressing transition layers.  This
implementation keeps the layout and exposes the block sizes/growth rate so the
CPU experiments can run a scaled variant of the same family.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng, spawn
from ..nn.layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    DenseBlock,
    GlobalAvgPool2D,
    ReLU,
    Sequential,
    TransitionLayer,
)
from .base import ClassifierModel

__all__ = ["DenseNet"]


class DenseNet(ClassifierModel):
    """CIFAR-style DenseNet.

    Parameters
    ----------
    growth_rate:
        Number of feature maps each dense unit adds.
    units_per_block:
        Number of dense units in each dense block.  ``(12, 12, 12)`` with
        ``growth_rate=12`` reproduces DenseNet-40; the default ``(3, 3, 3)``
        with ``growth_rate=6`` is the scaled CPU variant.
    compression:
        Channel-compression factor of the transition layers, in ``(0, 1]``.
    """

    KIND = "densenet"

    def __init__(
        self,
        input_shape: Tuple[int, int, int] = (3, 16, 16),
        num_classes: int = 10,
        growth_rate: int = 6,
        units_per_block: Sequence[int] = (3, 3, 3),
        compression: float = 0.5,
        use_batchnorm: bool = True,
        rng: RngLike = None,
        name: Optional[str] = None,
    ):
        if len(input_shape) != 3:
            raise ConfigurationError(f"input_shape must be (C, H, W), got {input_shape}")
        units_per_block = tuple(int(u) for u in units_per_block)
        if not units_per_block or any(u <= 0 for u in units_per_block):
            raise ConfigurationError(
                f"units_per_block must be non-empty and positive, got {units_per_block}"
            )
        if growth_rate <= 0:
            raise ConfigurationError(f"growth_rate must be positive, got {growth_rate}")
        if not 0.0 < compression <= 1.0:
            raise ConfigurationError(f"compression must lie in (0, 1], got {compression}")

        generator = ensure_rng(rng)
        rngs = spawn(generator, 2 * len(units_per_block) + 2)
        rng_iter = iter(rngs)

        stages = Sequential(name="stages")
        shape = tuple(int(d) for d in input_shape)

        stem_channels = 2 * growth_rate
        stem_layers = [
            Conv2D(shape[0], stem_channels, 3, stride=1, padding=1,
                   use_bias=not use_batchnorm, rng=next(rng_iter), name="conv"),
        ]
        if use_batchnorm:
            stem_layers.append(BatchNorm2D(stem_channels, name="bn"))
        stem_layers.append(ReLU(name="relu"))
        stem = Sequential(stem_layers, name="stem")
        stages.append(stem)
        shape = stem.output_shape(shape)

        channels = stem_channels
        for block_idx, num_units in enumerate(units_per_block):
            block = DenseBlock(
                channels,
                growth_rate,
                num_units,
                use_batchnorm=use_batchnorm,
                rng=next(rng_iter),
                name=f"dense{block_idx + 1}",
            )
            stages.append(block)
            shape = block.output_shape(shape)
            channels = block.out_channels

            is_last = block_idx == len(units_per_block) - 1
            if not is_last and shape[1] >= 4 and shape[2] >= 4:
                out_channels = max(1, int(channels * compression))
                transition = TransitionLayer(
                    channels,
                    out_channels,
                    use_batchnorm=use_batchnorm,
                    rng=next(rng_iter),
                    name=f"transition{block_idx + 1}",
                )
                stages.append(transition)
                shape = transition.output_shape(shape)
                channels = out_channels

        stages.append(GlobalAvgPool2D(name="gap"))
        stages.append(Dense(channels, num_classes, rng=next(rng_iter), name="logits"))

        super().__init__(
            stages=stages,
            input_shape=input_shape,
            num_classes=num_classes,
            kind=self.KIND,
            hyperparameters={
                "growth_rate": growth_rate,
                "units_per_block": list(units_per_block),
                "compression": compression,
                "use_batchnorm": use_batchnorm,
            },
            name=name,
        )
