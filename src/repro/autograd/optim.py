"""Gradient-descent optimizers for the training substrate."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor


class Optimizer:
    """Base optimizer operating on a list of parameter tensors.

    Steps write each updated parameter into a fresh array with the same
    memory order instead of updating it in place, so an update never
    changes an array a caller still holds, and the column-major MLP weights
    the gather backend streams keep their layout.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        self.parameters: List[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @staticmethod
    def _apply(param: Tensor, delta: np.ndarray) -> None:
        """``param.data - delta``, stored in a fresh array of the same order."""
        param.data = np.subtract(param.data, delta, out=np.empty_like(param.data))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = velocity
            self._apply(param, self.lr * grad)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with decoupled weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * param.data
            self._apply(param, self.lr * update)


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients in-place to a maximum global L2 norm.

    Returns the pre-clipping norm.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total_sq = sum(float(np.sum(p.grad**2)) for p in params)
    total_norm = math.sqrt(total_sq)
    if max_norm > 0 and total_norm > max_norm:
        scale = max_norm / (total_norm + 1e-12)
        for p in params:
            p.grad *= scale
    return total_norm


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int = 0, min_lr: float = 0.0) -> float:
    """Cosine learning-rate schedule with linear warmup."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if warmup_steps and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    progress = min(1.0, (step - warmup_steps) / max(1, total_steps - warmup_steps))
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * progress))
