"""Sequential container and MLP convenience constructor."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from .layers import Dense, Module, ReLU

__all__ = ["Sequential", "mlp"]


class Sequential(Module):
    """Chain of layers applied in order; backward runs in reverse."""

    def __init__(self, *layers: Module):
        self.layers: List[Module] = list(layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Pure batched inference through the chain (see
        :meth:`Module.forward_batch` for the contract)."""
        for layer in self.layers:
            x = layer.forward_batch(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


def mlp(sizes: Sequence[int],
        hidden_activation: Callable[[], Module] = ReLU,
        output_activation: Optional[Callable[[], Module]] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "mlp") -> Sequential:
    """Build a multilayer perceptron with the given layer sizes.

    ``sizes = [in, h1, ..., out]``.  The output layer gets
    ``output_activation`` (default: none).
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    rng = rng if rng is not None else np.random.default_rng(0)
    net = Sequential()
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        net.append(Dense(a, b, rng=rng, name=f"{name}.fc{i}"))
        last = i == len(sizes) - 2
        if not last:
            net.append(hidden_activation())
        elif output_activation is not None:
            net.append(output_activation())
    return net
