"""ResNet-family classifier built from residual blocks.

The paper uses ResNet-34 on CIFAR-10.  This implementation follows the CIFAR
variant of the architecture — a 3×3 convolution stem, groups of basic residual
blocks that double the channel count and halve the spatial resolution, global
average pooling, and a linear classifier — with configurable group sizes so
experiments can select anything from a tiny ResNet-8-style model up to the
full (3, 4, 6, 3) ResNet-34 layout.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..rng import RngLike, ensure_rng, spawn
from ..nn.layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
)
from .base import ClassifierModel

__all__ = ["ResNet"]


class ResNet(ClassifierModel):
    """CIFAR-style ResNet with basic residual blocks.

    Parameters
    ----------
    base_channels:
        Channel count of the stem and first block group; each later group
        doubles it.
    block_counts:
        Number of residual blocks in each group.  ``(3, 4, 6, 3)`` reproduces
        the ResNet-34 layout; the default ``(2, 2, 2)`` is the scaled variant
        used in CPU experiments.
    use_batchnorm:
        Whether blocks use batch normalization.
    """

    KIND = "resnet"

    def __init__(
        self,
        input_shape: Tuple[int, int, int] = (3, 16, 16),
        num_classes: int = 10,
        base_channels: int = 16,
        block_counts: Sequence[int] = (2, 2, 2),
        use_batchnorm: bool = True,
        rng: RngLike = None,
        name: Optional[str] = None,
    ):
        if len(input_shape) != 3:
            raise ConfigurationError(f"input_shape must be (C, H, W), got {input_shape}")
        block_counts = tuple(int(b) for b in block_counts)
        if not block_counts or any(b <= 0 for b in block_counts):
            raise ConfigurationError(f"block_counts must be non-empty and positive, got {block_counts}")
        if base_channels <= 0:
            raise ConfigurationError(f"base_channels must be positive, got {base_channels}")

        generator = ensure_rng(rng)
        total_blocks = sum(block_counts)
        rngs = spawn(generator, total_blocks + 2)
        rng_iter = iter(rngs)

        stages = Sequential(name="stages")
        shape = tuple(int(d) for d in input_shape)

        # Stem: 3x3 convolution that sets the base channel width.
        stem_layers = [
            Conv2D(shape[0], base_channels, 3, stride=1, padding=1,
                   use_bias=not use_batchnorm, rng=next(rng_iter), name="conv"),
        ]
        if use_batchnorm:
            stem_layers.append(BatchNorm2D(base_channels, name="bn"))
        stem_layers.append(ReLU(name="relu"))
        stem = Sequential(stem_layers, name="stem")
        stages.append(stem)
        shape = stem.output_shape(shape)

        in_channels = base_channels
        for group, num_blocks in enumerate(block_counts):
            out_channels = base_channels * (2 ** group)
            for block_idx in range(num_blocks):
                # The first block of every group after the first downsamples,
                # provided the feature map is still large enough to halve.
                stride = 2 if (group > 0 and block_idx == 0 and shape[1] >= 4) else 1
                block = ResidualBlock(
                    in_channels,
                    out_channels,
                    stride=stride,
                    use_batchnorm=use_batchnorm,
                    rng=next(rng_iter),
                    name=f"block{group + 1}_{block_idx + 1}",
                )
                stages.append(block)
                shape = block.output_shape(shape)
                in_channels = out_channels

        stages.append(GlobalAvgPool2D(name="gap"))
        stages.append(Dense(in_channels, num_classes, rng=next(rng_iter), name="logits"))

        super().__init__(
            stages=stages,
            input_shape=input_shape,
            num_classes=num_classes,
            kind=self.KIND,
            hyperparameters={
                "base_channels": base_channels,
                "block_counts": list(block_counts),
                "use_batchnorm": use_batchnorm,
            },
            name=name,
        )
