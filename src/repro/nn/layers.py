"""Neural-network layers for the miniature Transformer models.

Images follow the channels-last convention ``(batch, height, width,
channels)`` and token sequences are ``(batch, tokens, channels)``; the patch
embedding and upsampling layers convert between them.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, apply_op


def _kaiming_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    scale = math.sqrt(2.0 / max(fan_in, 1))
    return rng.standard_normal(shape) * scale


class Linear(Module):
    """Affine projection ``y = x W + b`` over the last dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_init(rng, in_features, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalisation over the last (channel) dimension.

    The inverse standard deviation is the RSQRT operator the paper replaces
    with a pwl; :class:`repro.nn.approx.PWLLayerNorm` swaps that step out.
    """

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class GELU(Module):
    """GELU activation module (exact graph-differentiable version)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class HSwish(Module):
    """Hard-swish activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.hswish(x)


class PatchEmbed(Module):
    """Non-overlapping patch embedding for channels-last images.

    Splits ``(B, H, W, C)`` into ``patch_size x patch_size`` patches and
    projects each to ``embed_dim``, producing ``(B, H/p * W/p, embed_dim)``.
    """

    def __init__(
        self,
        in_channels: int,
        embed_dim: int,
        patch_size: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.patch_size = patch_size
        self.in_channels = in_channels
        self.embed_dim = embed_dim
        self.proj = Linear(in_channels * patch_size * patch_size, embed_dim, rng=rng)

    def output_grid(self, height: int, width: int) -> Tuple[int, int]:
        if height % self.patch_size or width % self.patch_size:
            raise ValueError(
                "image size (%d, %d) not divisible by patch size %d"
                % (height, width, self.patch_size)
            )
        return height // self.patch_size, width // self.patch_size

    def forward(self, x: Tensor) -> Tensor:
        batch, height, width, channels = x.shape
        gh, gw = self.output_grid(height, width)
        p = self.patch_size
        patches = x.reshape(batch, gh, p, gw, p, channels)
        patches = patches.transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(batch, gh * gw, p * p * channels)
        return self.proj(patches)


class DepthwiseConv2d(Module):
    """3x3 depthwise convolution on channels-last images (stride 1, same pad).

    Lightweight Transformer variants (EfficientViT-style) mix tokens locally
    with depthwise convolutions; this implementation shifts-and-adds the
    nine taps, which keeps the autograd graph small.
    """

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.weight = Parameter(rng.standard_normal((3, 3, channels)) * (1.0 / 3.0))
        self.bias = Parameter(np.zeros(channels))

    def forward(self, x: Tensor) -> Tensor:
        batch, height, width, channels = x.shape
        if channels != self.channels:
            raise ValueError("expected %d channels, got %d" % (self.channels, channels))
        # Accumulate the nine tap contributions by shifting slices of x into
        # a single shared canvas ("same" zero padding falls out naturally);
        # one full-size allocation per forward instead of one per tap.
        contributions = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                src_y = slice(max(0, -dy), height - max(0, dy))
                src_x = slice(max(0, -dx), width - max(0, dx))
                dst_y = slice(max(0, dy), height - max(0, -dy))
                dst_x = slice(max(0, dx), width - max(0, -dx))
                tap = self.weight[dy + 1, dx + 1]
                contributions.append((x[:, src_y, src_x, :] * tap, dst_y, dst_x))
        out = _scatter_sum(contributions, (batch, height, width, channels))
        return out + self.bias


def _scatter_sum(
    contributions: Sequence[Tuple[Tensor, slice, slice]], shape: Tuple[int, ...]
) -> Tensor:
    """Sum spatially shifted contributions into one zero canvas of ``shape``.

    Forward adds every contribution in place at its destination slices;
    backward routes each contribution the gradient slice it landed on.
    Dispatches to the variadic ``scatter_sum`` registry op.
    """
    tensors = tuple(tensor for tensor, _, _ in contributions)
    slices = tuple((y_slice, x_slice) for _, y_slice, x_slice in contributions)
    return apply_op("scatter_sum", *tensors, slices=slices, shape=shape)


class Upsample(Module):
    """Nearest-neighbour spatial upsampling for channels-last images.

    Dispatches to the ``upsample_nearest`` registry op: ``np.repeat`` on
    both spatial axes forward, strided block sums backward.
    """

    def __init__(self, factor: int) -> None:
        super().__init__()
        if factor < 1:
            raise ValueError("factor must be >= 1, got %d" % factor)
        self.factor = factor

    def forward(self, x: Tensor) -> Tensor:
        if self.factor == 1:
            return x
        return apply_op("upsample_nearest", x, factor=self.factor)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1), got %r" % (p,))
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * mask


class MLP(Module):
    """Transformer feed-forward network with a configurable activation."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        activation: Optional[Module] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.act = activation or GELU()
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.act(self.fc1(x)))
