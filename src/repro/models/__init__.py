"""Model zoo: the four architecture families used in the paper's evaluation."""

from .alexnet import AlexNet
from .base import ClassifierModel
from .densenet import DenseNet
from .lenet import LeNet
from .registry import MODEL_REGISTRY, available_models, build_from_config, build_model
from .resnet import ResNet

__all__ = [
    "ClassifierModel",
    "LeNet",
    "AlexNet",
    "ResNet",
    "DenseNet",
    "MODEL_REGISTRY",
    "build_model",
    "build_from_config",
    "available_models",
]
