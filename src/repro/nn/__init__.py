"""Numpy neural-network substrate (autograd, layers, models, training).

This package stands in for PyTorch in the fine-tuning experiments: it
provides a reverse-mode autograd engine, the layers and attention variants
needed by miniature Segformer / EfficientViT style segmentation models, LSQ
quantization-aware training, and the operator-replacement machinery that
swaps exact non-linear functions for searched pwl approximations.
"""

from repro.nn.tensor import Tensor, tensor, no_grad, zeros, ones, concatenate
from repro.nn.module import Module, Parameter, Sequential
from repro.nn import functional
from repro.nn.layers import (
    Linear,
    LayerNorm,
    GELU,
    HSwish,
    PatchEmbed,
    DepthwiseConv2d,
    Upsample,
    Dropout,
    MLP,
)
from repro.nn.attention import MultiHeadSelfAttention, LinearAttention
from repro.nn.quantization import (
    LSQQuantizer,
    PowerOfTwoQuantizer,
    QuantLinear,
    quantize_linears_in_place,
)
from repro.nn.approx import (
    OperatorSuite,
    FloatSuite,
    QuantizedBaselineSuite,
    PWLSuite,
    PWLActivation,
    PWLWideRange,
    PWLLayerNorm,
    QuantizedActivation,
)
from repro.nn.models import (
    ModelConfig,
    MiniSegformer,
    MiniEfficientViT,
    SegmentationTransformer,
    TransformerBlock,
)
from repro.nn.transformer import (
    CausalSelfAttention,
    DecoderBlock,
    DecoderConfig,
    KVCache,
    MiniDecoder,
    bucket_capacity,
    greedy_generate,
)
from repro.nn.optim import SGD, Adam, CosineSchedule
from repro.nn.training import Trainer, TrainingConfig, TrainingResult, prepare_quantized_model, transfer_weights
from repro.nn.metrics import mean_iou, pixel_accuracy, confusion_matrix, iou_per_class

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "zeros",
    "ones",
    "concatenate",
    "Module",
    "Parameter",
    "Sequential",
    "functional",
    "Linear",
    "LayerNorm",
    "GELU",
    "HSwish",
    "PatchEmbed",
    "DepthwiseConv2d",
    "Upsample",
    "Dropout",
    "MLP",
    "MultiHeadSelfAttention",
    "LinearAttention",
    "LSQQuantizer",
    "PowerOfTwoQuantizer",
    "QuantLinear",
    "quantize_linears_in_place",
    "OperatorSuite",
    "FloatSuite",
    "QuantizedBaselineSuite",
    "PWLSuite",
    "PWLActivation",
    "PWLWideRange",
    "PWLLayerNorm",
    "QuantizedActivation",
    "ModelConfig",
    "MiniSegformer",
    "MiniEfficientViT",
    "SegmentationTransformer",
    "TransformerBlock",
    "CausalSelfAttention",
    "DecoderBlock",
    "DecoderConfig",
    "KVCache",
    "MiniDecoder",
    "bucket_capacity",
    "greedy_generate",
    "SGD",
    "Adam",
    "CosineSchedule",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "prepare_quantized_model",
    "transfer_weights",
    "mean_iou",
    "pixel_accuracy",
    "confusion_matrix",
    "iou_per_class",
]
