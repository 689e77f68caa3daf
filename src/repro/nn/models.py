"""Miniature segmentation Transformers for the fine-tuning experiments.

Two model families mirror the paper's evaluation targets:

* :class:`MiniSegformer` — a scaled-down Segformer-B0: patch embedding,
  Transformer encoder blocks with vanilla softmax self-attention (EXP + DIV),
  GELU feed-forward networks and LayerNorm (RSQRT), followed by a light
  all-MLP decode head.  Its non-linear operator inventory is exactly the
  one Table 4 replaces: EXP, GELU, DIV, RSQRT.
* :class:`MiniEfficientViT` — a scaled-down EfficientViT-B0: depthwise-conv
  token mixing, softmax-free linear attention (DIV only) and HSWISH FFNs —
  the HSWISH + DIV inventory of Table 5.

Both operate on channels-last images ``(B, H, W, C)`` and return per-pixel
class logits ``(B, H, W, num_classes)``.

The models are deliberately small (a few tens of thousands of parameters)
so that quantization-aware fine-tuning runs in seconds on a laptop, while
keeping the exact operator data-flow of their full-size counterparts.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.nn.approx import FloatSuite, OperatorSuite
from repro.nn.attention import LinearAttention, MultiHeadSelfAttention
from repro.nn.layers import (
    DepthwiseConv2d,
    Linear,
    MLP,
    PatchEmbed,
    Upsample,
)
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Shared structural hyper-parameters of the miniature models."""

    image_size: int = 32
    in_channels: int = 3
    num_classes: int = 5
    patch_size: int = 4
    embed_dim: int = 32
    depth: int = 2
    num_heads: int = 2
    mlp_ratio: float = 2.0
    seed: int = 0


class TransformerBlock(Module):
    """Pre-norm Transformer encoder block with pluggable operators."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: float,
        suite: OperatorSuite,
        attention_kind: str = "softmax",
        activation_kind: str = "gelu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = suite.layer_norm(dim)
        if attention_kind == "softmax":
            self.attention = MultiHeadSelfAttention(
                dim,
                num_heads=num_heads,
                rng=rng,
                exp_fn=suite.exp_fn(),
                reciprocal_fn=suite.reciprocal_fn(),
            )
        elif attention_kind == "linear":
            self.attention = LinearAttention(
                dim, num_heads=num_heads, rng=rng, reciprocal_fn=suite.reciprocal_fn()
            )
        else:
            raise ValueError("unknown attention kind %r" % (attention_kind,))
        self.norm2 = suite.layer_norm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), activation=suite.activation(activation_kind), rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x


class SegmentationHead(Module):
    """All-MLP decode head: per-token classification + nearest upsampling."""

    def __init__(self, dim: int, num_classes: int, upsample_factor: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.classifier = Linear(dim, num_classes, rng=rng)
        self.upsample = Upsample(upsample_factor)
        self.num_classes = num_classes

    def forward(self, tokens: Tensor, grid_h: int, grid_w: int) -> Tensor:
        logits = self.classifier(tokens)  # (B, T, num_classes)
        batch = logits.shape[0]
        logits = logits.reshape(batch, grid_h, grid_w, self.num_classes)
        return self.upsample(logits)


class SegmentationTransformer(Module):
    """Shared encoder/decoder scaffold for both model families."""

    def __init__(
        self,
        config: ModelConfig,
        suite: Optional[OperatorSuite] = None,
        attention_kind: str = "softmax",
        activation_kind: str = "gelu",
        use_dwconv: bool = False,
    ) -> None:
        super().__init__()
        suite = suite or FloatSuite()
        self.config = config
        self._compiled_model = None
        self.suite_name = suite.name
        self.attention_kind = attention_kind
        self.activation_kind = activation_kind
        self.use_dwconv = use_dwconv
        rng = np.random.default_rng(config.seed)

        self.patch_embed = PatchEmbed(
            config.in_channels, config.embed_dim, patch_size=config.patch_size, rng=rng
        )
        if use_dwconv:
            self.dwconv = DepthwiseConv2d(config.in_channels, rng=rng)
        self.blocks: List[TransformerBlock] = []
        for index in range(config.depth):
            block = TransformerBlock(
                config.embed_dim,
                config.num_heads,
                config.mlp_ratio,
                suite,
                attention_kind=attention_kind,
                activation_kind=activation_kind,
                rng=rng,
            )
            self.register_module("block%d" % index, block)
            self.blocks.append(block)
        self.final_norm = suite.layer_norm(config.embed_dim)
        self.head = SegmentationHead(
            config.embed_dim, config.num_classes, config.patch_size, rng=rng
        )

    def forward(self, images: Tensor) -> Tensor:
        x = images
        if self.use_dwconv:
            x = x + self.dwconv(x)
        grid_h, grid_w = self.patch_embed.output_grid(x.shape[1], x.shape[2])
        tokens = self.patch_embed(x)
        for block in self.blocks:
            tokens = block(tokens)
        tokens = self.final_norm(tokens)
        return self.head(tokens, grid_h, grid_w)

    def compiled(self):
        """The (lazily created) compiled-inference wrapper for this model.

        One :class:`repro.graph.executor.CompiledModel` per model instance;
        it traces per input signature on demand and re-traces automatically
        when parameters are rebound (e.g. after further training), so the
        handle stays valid across the model's lifetime.
        """
        if self._compiled_model is None:
            from repro.graph.executor import CompiledModel

            self._compiled_model = CompiledModel(self)
        return self._compiled_model

    def predict(self, images, engine: Optional[str] = None) -> np.ndarray:
        """Per-pixel argmax class prediction (no gradient tracking).

        ``engine`` selects the inference path — ``"compiled"`` replays the
        traced/optimised graph plan, ``"eager"`` runs the dynamic forward —
        and resolves through :mod:`repro.core.engine_config`
        (kwarg > context > ``REPRO_INFER_ENGINE`` > ``"eager"``).  Both
        paths return bit-identical predictions.
        """
        from repro.core import engine_config

        if engine_config.resolve("infer_engine", engine) == "compiled":
            return self.compiled().predict(images)
        from repro.nn.tensor import Tensor, no_grad

        with no_grad():
            logits = self.forward(Tensor(images))
        return np.argmax(logits.data, axis=-1)


class MiniSegformer(SegmentationTransformer):
    """Vanilla-Transformer segmentation model (EXP, GELU, DIV, RSQRT)."""

    def __init__(self, config: ModelConfig = ModelConfig(), suite: Optional[OperatorSuite] = None) -> None:
        super().__init__(config, suite=suite, attention_kind="softmax", activation_kind="gelu",
                         use_dwconv=False)

    # The operator inventory Table 4 sweeps over.
    REPLACEABLE_OPERATORS = ("exp", "gelu", "div", "rsqrt")


class MiniEfficientViT(SegmentationTransformer):
    """Linear-attention lightweight model (HSWISH, DIV)."""

    def __init__(self, config: ModelConfig = ModelConfig(), suite: Optional[OperatorSuite] = None) -> None:
        super().__init__(config, suite=suite, attention_kind="linear", activation_kind="hswish",
                         use_dwconv=True)

    # The operator inventory Table 5 sweeps over.
    REPLACEABLE_OPERATORS = ("hswish", "div")
