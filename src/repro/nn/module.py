"""Parameter and layer abstractions for the numpy deep-learning substrate.

The substrate uses explicit layer-wise backpropagation rather than a taped
autograd engine: every :class:`Layer` implements ``forward`` and ``backward``
and owns its :class:`Parameter` objects.  Composite layers (sequential
containers, residual blocks, dense blocks) orchestrate their children's
forward/backward calls, which keeps the data-flow of a model completely
explicit — exactly the property DeepMorph's footprint extraction relies on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, ShapeError

__all__ = ["Parameter", "Layer", "ParamDict"]


class Parameter:
    """A trainable array together with its accumulated gradient.

    Attributes
    ----------
    data:
        The parameter values, updated in place by optimizers.
    grad:
        The gradient accumulated by the most recent backward pass, or ``None``
        if no backward pass has run since the last :meth:`zero_grad`.
    name:
        A human-readable name used in summaries and serialization.
    trainable:
        When ``False``, optimizers skip the parameter (used to freeze the
        backbone while training auxiliary softmax probes).
    """

    def __init__(self, data: np.ndarray, name: str = "param", trainable: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self.trainable = trainable

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the accumulated gradient, validating its shape."""
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name!r} shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape}, trainable={self.trainable})"


ParamDict = Dict[str, Parameter]


class Layer:
    """Base class of every layer in the substrate.

    Subclasses implement :meth:`forward` and :meth:`backward`.  A layer may be
    a *leaf* (owns parameters directly) or a *composite* (owns child layers);
    :meth:`parameters` and :meth:`named_layers` traverse both.

    The ``training`` flag distinguishes train-time behaviour (dropout active,
    batch-norm uses batch statistics) from inference behaviour.
    """

    #: Attributes holding non-trainable state arrays (e.g. batch-norm running
    #: statistics) that serialization saves alongside the parameters.
    buffer_names: Tuple[str, ...] = ()

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__.lower()
        self.training = True
        self._params: ParamDict = {}
        self._children: "List[Layer]" = []

    # -- construction -------------------------------------------------------

    def add_parameter(self, key: str, param: Parameter) -> Parameter:
        """Register a parameter under ``key`` and return it."""
        if key in self._params:
            raise ConfigurationError(f"parameter {key!r} already registered on {self.name!r}")
        self._params[key] = param
        return param

    def add_child(self, layer: "Layer") -> "Layer":
        """Register a child layer (for composite layers) and return it."""
        self._children.append(layer)
        return layer

    # -- computation ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given the loss gradient w.r.t. the output, accumulate parameter
        gradients and return the gradient w.r.t. the input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def cache_for_backward(self, value):
        """Return ``value`` in training mode, ``None`` in eval mode.

        Layers route every forward-pass tensor they keep for backward through
        this helper, so inference-mode forwards (the serving extraction path)
        never pin activation-sized buffers between requests.  Backward after
        an eval-mode forward then fails its existing ``None`` guard.
        """
        return value if self.training else None

    # -- traversal ------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """All parameters of this layer and its descendants, depth-first."""
        params = list(self._params.values())
        for child in self._children:
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth-first."""
        base = f"{prefix}{self.name}"
        for key, param in self._params.items():
            yield f"{base}.{key}", param
        for child in self._children:
            yield from child.named_parameters(prefix=f"{base}.")

    def children(self) -> List["Layer"]:
        """Direct child layers."""
        return list(self._children)

    def named_layers(self, prefix: str = "") -> Iterator[Tuple[str, "Layer"]]:
        """Yield ``(qualified_name, layer)`` for this layer and all descendants."""
        base = f"{prefix}{self.name}"
        yield base, self
        for child in self._children:
            yield from child.named_layers(prefix=f"{base}.")

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters."""
        return sum(
            p.size for p in self.parameters() if (p.trainable or not trainable_only)
        )

    # -- mode / gradient management -------------------------------------------

    def train(self, mode: bool = True) -> "Layer":
        """Set training mode on this layer and all descendants."""
        self.training = mode
        for child in self._children:
            child.train(mode)
        return self

    def eval(self) -> "Layer":
        """Set inference mode on this layer and all descendants."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Layer":
        """Mark every parameter as non-trainable (optimizers will skip them)."""
        for param in self.parameters():
            param.trainable = False
        return self

    def unfreeze(self) -> "Layer":
        """Mark every parameter as trainable again."""
        for param in self.parameters():
            param.trainable = True
        return self

    # -- introspection ---------------------------------------------------------

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape (excluding the batch dimension) produced for ``input_shape``.

        The default implementation runs a tiny forward pass in eval mode; leaf
        layers with cheap shape arithmetic may override it.
        """
        was_training = self.training
        self.eval()
        try:
            probe = np.zeros((1,) + tuple(input_shape), dtype=np.float64)
            out = self.forward(probe)
        finally:
            self.train(was_training)
        return tuple(out.shape[1:])

    def summary(self, input_shape: Optional[Tuple[int, ...]] = None) -> str:
        """Human-readable description of the layer tree."""
        lines = [f"{type(self).__name__} ({self.name})"]
        for qual_name, layer in self.named_layers():
            if layer is self:
                continue
            own = sum(p.size for p in layer._params.values())
            lines.append(f"  {qual_name:<40s} {type(layer).__name__:<20s} params={own}")
        lines.append(f"total parameters: {self.num_parameters()}")
        if input_shape is not None:
            lines.append(f"output shape for {input_shape}: {self.output_shape(input_shape)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, params={self.num_parameters()})"
