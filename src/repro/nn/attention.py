"""Attention mechanisms.

Two flavours are implemented, matching the two evaluated model families:

* :class:`MultiHeadSelfAttention` — vanilla softmax attention (Segformer
  style); its Softmax contains the EXP and DIV operators the paper replaces.
* :class:`LinearAttention` — softmax-free linear attention (EfficientViT
  style); it contains only a DIV (the normalisation by the key aggregate).

Both expose ``exp_fn`` / ``div_fn`` hooks so the pwl-replacement modules can
swap the exact operators for their LUT approximations without touching the
attention algebra.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor

# An operator hook takes and returns a Tensor, element-wise.
OperatorHook = Callable[[Tensor], Tensor]


def _default_exp(x: Tensor) -> Tensor:
    return x.exp()


def _default_reciprocal(x: Tensor) -> Tensor:
    return 1.0 / x


class MultiHeadSelfAttention(Module):
    """Vanilla multi-head self-attention with replaceable EXP / DIV kernels.

    The Softmax is decomposed explicitly into ``exp(x - max)`` followed by a
    multiplication with the reciprocal of the row sum, so the EXP and DIV
    operators appear as separate element-wise calls that the approximation
    layer can intercept (exactly the operators Table 4 replaces).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
        exp_fn: Optional[OperatorHook] = None,
        reciprocal_fn: Optional[OperatorHook] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError("dim %d must be divisible by num_heads %d" % (dim, num_heads))
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.exp_fn: OperatorHook = exp_fn or _default_exp
        self.reciprocal_fn: OperatorHook = reciprocal_fn or _default_reciprocal

    def forward(self, x: Tensor) -> Tensor:
        batch, tokens, dim = x.shape
        qkv = self.qkv(x)  # (B, T, 3*D)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, d)
        q, k, v = qkv[0], qkv[1], qkv[2]

        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale  # (B, H, T, T)

        # Softmax decomposed into EXP and DIV so both are interceptable.
        shifted = scores - scores.max(axis=-1, keepdims=True).detach()
        numerator = self.exp_fn(shifted)
        denominator = numerator.sum(axis=-1, keepdims=True)
        attention = numerator * self.reciprocal_fn(denominator)

        context = attention @ v  # (B, H, T, d)
        context = context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return self.proj(context)


class LinearAttention(Module):
    """Softmax-free linear attention with a ReLU feature map.

    Follows the lightweight-ViT formulation: ``phi(q) (phi(k)^T v)``
    normalised by ``phi(q) (phi(k)^T 1)``.  The only non-linear operator of
    interest is the final DIV, exposed through ``reciprocal_fn`` (the
    operator Table 5 replaces for EfficientViT).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
        reciprocal_fn: Optional[OperatorHook] = None,
        eps: float = 1e-3,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError("dim %d must be divisible by num_heads %d" % (dim, num_heads))
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.reciprocal_fn: OperatorHook = reciprocal_fn or _default_reciprocal
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        batch, tokens, dim = x.shape
        qkv = self.qkv(x)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, d)
        q, k, v = qkv[0].relu(), qkv[1].relu(), qkv[2]

        # (B, H, d, d): aggregate key-value outer products once per head.
        kv = k.swapaxes(-1, -2) @ v
        numerator = q @ kv  # (B, H, T, d)
        key_sum = k.sum(axis=-2, keepdims=True)  # (B, H, 1, d)
        denominator = (q * key_sum).sum(axis=-1, keepdims=True) + self.eps  # (B, H, T, 1)
        out = numerator * self.reciprocal_fn(denominator)

        out = out.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return self.proj(out)
