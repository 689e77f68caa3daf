"""Quantized decoder blocks with KV-cached autoregressive decode.

The paper's operator tables (EXP/DIV for softmax, GELU for the MLP, RSQRT
for LayerNorm) were exercised so far only inside the two encoder-style
vision models.  This module adds the decoder-side workload the ROADMAP
names — causal attention over a growing prefix — in a form every engine in
the repo can serve:

* :class:`CausalSelfAttention` — :class:`~repro.nn.attention.MultiHeadSelfAttention`
  with a causal mask, built on the same replaceable ``exp_fn`` /
  ``reciprocal_fn`` hooks, plus an incremental :meth:`~CausalSelfAttention.decode`
  that reads and extends an explicit KV cache.
* :class:`DecoderBlock` — pre-norm attention + MLP block assembled from an
  :class:`~repro.nn.approx.OperatorSuite` (PWL GELU, rsqrt-hooked
  LayerNorm), mirroring :class:`~repro.nn.models.TransformerBlock`.
* :class:`KVCache` — per-layer ``(batch, heads, capacity, head_dim)`` key
  and value arrays, zero-padded to a power-of-two **capacity bucket** so
  the compiled executor's shape-specialisation cache sees ``O(log T)``
  signatures over a ``T``-token decode instead of one per length.
* :class:`MiniDecoder` — a miniature decoder-only LM whose full-sequence
  :meth:`~MiniDecoder.forward` and single-token :meth:`~MiniDecoder.step`
  are both traceable: token/position selection is one-hot matmul against
  the embedding tables (fancy indexing would burn the indices into a trace
  as constants), the cache write is a one-hot outer-product add (unwritten
  slots see exactly ``+0.0``, preserving their bits), and the causal /
  validity masks enter as dense float inputs.

Decode parity contract: for a fixed model state, **greedy token streams
are identical** across eager/compiled × cached/uncached, and equal to the
reference per-pass pwl pipeline kept in ``tests/oracles.py`` (pinned by
the decode parity suite).  Cached-vs-uncached *logits*
agree only to float noise — padded attention rows change numpy's pairwise
summation split points and BLAS blocking — which is why the contract is
stream-level; eager-cached vs compiled-cached logits ARE bit-identical
(the compiled plan replays the same ops on the same arrays).

The pwl operator suites calibrate their input quantizers from the first
data they see, so every decode path must observe the *same* first data:
:meth:`MiniDecoder.calibrate` runs one eager full-sequence forward over
the prompt, and :func:`greedy_generate` (and the serving tier's
``open_session``) always calls it before the first step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import engine_config
from repro.nn import functional as F
from repro.nn.approx import FloatSuite, OperatorSuite
from repro.nn.layers import Linear, MLP
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, no_grad

OperatorHook = Any  # Tensor -> Tensor, element-wise (see nn.attention)


def bucket_capacity(length: int, max_seq: int) -> int:
    """The power-of-two cache capacity bucket holding ``length`` positions.

    Capped at ``max_seq`` (the positional table's extent), so a 1000-token
    decode re-traces ~``log2(1000)`` times — once per bucket — instead of
    once per length.
    """
    if length > max_seq:
        raise ValueError(
            "sequence length %d exceeds max_seq %d" % (length, max_seq)
        )
    capacity = 1
    while capacity < length:
        capacity *= 2
    return min(capacity, max_seq)


class KVCache:
    """Per-layer key/value prefix arrays, padded to a capacity bucket.

    ``keys[i]`` / ``values[i]`` hold layer ``i``'s projected prefix as
    ``(batch, num_heads, capacity, head_dim)`` float64 arrays; slots at or
    beyond ``length`` are zero.  ``capacity`` is always the power-of-two
    bucket of ``length`` (capped at ``max_seq``), so the traced decode
    step sees one input signature per (batch, capacity) pair.

    The cache is the decode step's *carried state*: its arrays enter the
    step as inputs and are rebound to the step's outputs afterwards
    (:meth:`update`) — the same in-place carry
    :class:`repro.graph.executor.CompiledTrainStep` uses for parameters.
    """

    __slots__ = ("keys", "values", "length", "max_seq", "batch",
                 "num_heads", "head_dim")

    def __init__(self, num_layers: int, batch: int, num_heads: int,
                 head_dim: int, max_seq: int, capacity: int = 1) -> None:
        shape = (batch, num_heads, capacity, head_dim)
        self.keys = [np.zeros(shape) for _ in range(num_layers)]
        self.values = [np.zeros(shape) for _ in range(num_layers)]
        self.length = 0
        self.max_seq = max_seq
        self.batch = batch
        self.num_heads = num_heads
        self.head_dim = head_dim

    @property
    def num_layers(self) -> int:
        return len(self.keys)

    @property
    def capacity(self) -> int:
        return self.keys[0].shape[2]

    def ensure(self, length: int) -> int:
        """Grow (re-pad) to the bucket holding ``length``; returns capacity.

        Growth copies the valid prefix into a fresh zeroed array — values
        are preserved bit-exactly, only the zero tail lengthens, so a
        bucket crossing never perturbs past attention context.
        """
        needed = bucket_capacity(length, self.max_seq)
        if needed > self.capacity:
            for arrays in (self.keys, self.values):
                for index, old in enumerate(arrays):
                    grown = np.zeros(old.shape[:2] + (needed, old.shape[3]))
                    grown[:, :, : old.shape[2], :] = old
                    arrays[index] = grown
        return self.capacity

    def arrays(self) -> List[Any]:
        """The carried-slot feed order: ``k0, v0, k1, v1, ...``."""
        feed: List[Any] = []
        for k, v in zip(self.keys, self.values):
            feed.append(k)
            feed.append(v)
        return feed

    def update(self, new_arrays: Sequence[Any]) -> None:
        """Rebind the carried slots to a step's output arrays (+1 token)."""
        if len(new_arrays) != 2 * self.num_layers:
            raise ValueError(
                "expected %d cache arrays, got %d"
                % (2 * self.num_layers, len(new_arrays))
            )
        for index in range(self.num_layers):
            self.keys[index] = new_arrays[2 * index]
            self.values[index] = new_arrays[2 * index + 1]
        self.length += 1

    def rows(self, start: int, stop: int) -> "KVCache":
        """A copy holding batch rows ``[start:stop)`` (serving split)."""
        out = KVCache(self.num_layers, stop - start, self.num_heads,
                      self.head_dim, self.max_seq, capacity=self.capacity)
        out.keys = [k[start:stop].copy() for k in self.keys]
        out.values = [v[start:stop].copy() for v in self.values]
        out.length = self.length
        return out


def stack_caches(caches: Sequence[KVCache]) -> KVCache:
    """Concatenate same-capacity caches along the batch axis (serving).

    Lengths may differ per row — the per-row position/mask inputs carry
    that — but capacities must already agree (the caller groups sessions
    by bucket).  ``length`` on the stacked cache is advisory (the max).
    """
    first = caches[0]
    for cache in caches[1:]:
        if cache.capacity != first.capacity or cache.num_layers != first.num_layers:
            raise ValueError("stack_caches requires one capacity bucket per group")
    out = KVCache(first.num_layers, sum(c.batch for c in caches),
                  first.num_heads, first.head_dim, first.max_seq,
                  capacity=first.capacity)
    out.keys = [np.concatenate([c.keys[i] for c in caches], axis=0)
                for i in range(first.num_layers)]
    out.values = [np.concatenate([c.values[i] for c in caches], axis=0)
                  for i in range(first.num_layers)]
    out.length = max(c.length for c in caches)
    return out


class CausalSelfAttention(Module):
    """Multi-head self-attention with a causal mask and a KV-cached step.

    The softmax is decomposed through :func:`repro.nn.functional.masked_softmax`
    so EXP and DIV remain separate interceptable element-wise calls (the
    operators Table 4 replaces), with masked slots zeroed *exactly* even
    under the pwl LUT engines.
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
            raise ValueError(
                "dim %d must be divisible by num_heads %d" % (dim, num_heads)
            )
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.exp_fn = exp_fn or (lambda t: t.exp())
        self.reciprocal_fn = reciprocal_fn or (lambda t: 1.0 / t)

    def _split_heads(self, x: Tensor, tokens: int) -> Tuple[Tensor, Tensor, Tensor]:
        batch = x.shape[0]
        qkv = self.qkv(x)  # (B, T, 3*D)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, d)
        return qkv[0], qkv[1], qkv[2]

    def forward(self, x: Tensor) -> Tensor:
        """Full-sequence causal attention ``(B, T, D) -> (B, T, D)``."""
        batch, tokens, dim = x.shape
        q, k, v = self._split_heads(x, tokens)
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale  # (B, H, T, T)
        mask = Tensor(F.causal_mask(tokens))       # constant (T, T)
        attention = F.masked_softmax(
            scores, mask, exp_fn=self.exp_fn, reciprocal_fn=self.reciprocal_fn
        )
        context = attention @ v  # (B, H, T, d)
        context = context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return self.proj(context)

    def decode(
        self,
        x: Tensor,
        k_cache: Tensor,
        v_cache: Tensor,
        write: Tensor,
        mask: Tensor,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """One-token attention against the cached prefix.

        ``x`` is the new token's hidden state ``(B, 1, D)``; ``k_cache`` /
        ``v_cache`` are ``(B, H, capacity, d)``; ``write`` is the one-hot
        ``(B, capacity)`` slot selector for this token's position and
        ``mask`` the ``(B, capacity)`` validity mask covering it.  Returns
        ``(context, new_k_cache, new_v_cache)``.

        The cache write is ``cache + write ⊗ token``: slots where the
        one-hot is 0.0 receive exactly ``+0.0``, so every previously
        written entry keeps its bit pattern — the carried caches never
        drift across steps.
        """
        batch = x.shape[0]
        capacity = k_cache.shape[2]
        q, k_tok, v_tok = self._split_heads(x, 1)  # (B, H, 1, d) each
        slot = write.reshape(batch, 1, capacity, 1)
        new_k = k_cache + slot * k_tok  # (B, H, capacity, d)
        new_v = v_cache + slot * v_tok
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (q @ new_k.swapaxes(-1, -2)) * scale  # (B, H, 1, capacity)
        attention = F.masked_softmax(
            scores,
            mask.reshape(batch, 1, 1, capacity),
            exp_fn=self.exp_fn,
            reciprocal_fn=self.reciprocal_fn,
        )
        context = attention @ new_v  # (B, H, 1, d)
        context = context.transpose(0, 2, 1, 3).reshape(batch, 1, self.dim)
        return self.proj(context), new_k, new_v


class DecoderBlock(Module):
    """Pre-norm decoder block: causal attention + MLP, suite-assembled.

    Mirrors :class:`~repro.nn.models.TransformerBlock` (same residual
    structure, same operator hooks) with causal attention and a paired
    incremental :meth:`decode`.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: float,
        suite: OperatorSuite,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = suite.layer_norm(dim)
        self.attention = CausalSelfAttention(
            dim,
            num_heads=num_heads,
            rng=rng,
            exp_fn=suite.exp_fn(),
            reciprocal_fn=suite.reciprocal_fn(),
        )
        self.norm2 = suite.layer_norm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio),
                       activation=suite.activation("gelu"), rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x

    def decode(
        self, x: Tensor, k_cache: Tensor, v_cache: Tensor,
        write: Tensor, mask: Tensor,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        attended, new_k, new_v = self.attention.decode(
            self.norm1(x), k_cache, v_cache, write, mask
        )
        x = x + attended
        x = x + self.mlp(self.norm2(x))
        return x, new_k, new_v


@dataclasses.dataclass(frozen=True)
class DecoderConfig:
    """Structural hyper-parameters of the miniature decoder LM."""

    vocab_size: int = 32
    max_seq: int = 64
    embed_dim: int = 32
    depth: int = 2
    num_heads: int = 2
    mlp_ratio: float = 2.0
    seed: int = 0


class MiniDecoder(Module):
    """Miniature decoder-only LM with traceable full and incremental paths.

    Both entry points take dense float inputs only (traceability):

    * :meth:`forward` — ``(B, T, vocab)`` one-hot tokens → ``(B, T, vocab)``
      logits, causal attention over the whole sequence.  This is the
      *uncached* path: generating token ``T+1`` re-runs all ``T`` tokens,
      the O(T²) baseline the KV cache removes.
    * :meth:`step` — one token per row against a :class:`KVCache`:
      ``(token_onehot, pos_onehot, mask, k0, v0, k1, v1, ...)`` →
      ``(logits, new_k0, new_v0, ...)``.  Shape-specialised per
      (batch, cache capacity); :func:`bucket_capacity` keeps that count
      logarithmic in sequence length.
    """

    # The operator inventory the decoder exposes to the pwl sweep.
    REPLACEABLE_OPERATORS = ("exp", "gelu", "div", "rsqrt")

    def __init__(self, config: DecoderConfig = DecoderConfig(),
                 suite: Optional[OperatorSuite] = None) -> None:
        super().__init__()
        suite = suite or FloatSuite()
        self.config = config
        self.suite_name = suite.name
        self._compiled_model = None
        self._compiled_step = None
        self._calibrated = False
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / math.sqrt(config.embed_dim)
        self.embed = Parameter(
            rng.normal(scale=scale, size=(config.vocab_size, config.embed_dim))
        )
        self.pos_embed = Parameter(
            rng.normal(scale=scale, size=(config.max_seq, config.embed_dim))
        )
        self.blocks: List[DecoderBlock] = []
        for index in range(config.depth):
            block = DecoderBlock(
                config.embed_dim, config.num_heads, config.mlp_ratio,
                suite, rng=rng,
            )
            self.register_module("block%d" % index, block)
            self.blocks.append(block)
        self.final_norm = suite.layer_norm(config.embed_dim)
        self.lm_head = Linear(config.embed_dim, config.vocab_size, rng=rng)

    # -- shared pieces ---------------------------------------------------------

    def _embed_sequence(self, tokens_onehot: Tensor) -> Tensor:
        batch, tokens, _vocab = tokens_onehot.shape
        x = tokens_onehot @ self.embed            # (B, T, D)
        return x + self.pos_embed[:tokens]        # static slice, traceable

    # -- full-sequence (uncached) path -----------------------------------------

    def forward(self, tokens_onehot: Tensor) -> Tensor:
        """Causal logits over a one-hot token batch ``(B, T, vocab)``."""
        x = self._embed_sequence(tokens_onehot)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x)
        return self.lm_head(x)

    # -- incremental (cached) path ---------------------------------------------

    def step(self, token_onehot: Tensor, pos_onehot: Tensor,
             mask: Tensor, *caches: Tensor) -> Tuple[Tensor, ...]:
        """Advance one token per row against the carried KV caches.

        ``token_onehot`` is ``(B, vocab)``, ``pos_onehot`` ``(B, max_seq)``
        (one-hot at each row's write position = its current length),
        ``mask`` ``(B, capacity)`` with 1.0 at slots ``<= position``, and
        ``caches`` the ``2 * depth`` cache arrays in
        :meth:`KVCache.arrays` order.  Returns ``(logits, *new_caches)``
        with ``logits`` ``(B, vocab)``.

        Rows are independent — sessions at different lengths batch into
        one step as long as they share a capacity bucket, which is exactly
        how the serving tier drains decode groups.
        """
        if len(caches) != 2 * len(self.blocks):
            raise ValueError(
                "expected %d cache tensors, got %d"
                % (2 * len(self.blocks), len(caches))
            )
        batch = token_onehot.shape[0]
        capacity = caches[0].shape[2]
        dim = self.config.embed_dim
        x = (token_onehot @ self.embed).reshape(batch, 1, dim)
        x = x + (pos_onehot @ self.pos_embed).reshape(batch, 1, dim)
        # The write selector is the position one-hot restricted to the
        # cache window — a static slice, so it traces cleanly.
        write = pos_onehot[:, :capacity]
        outputs: List[Tensor] = []
        for index, block in enumerate(self.blocks):
            x, new_k, new_v = block.decode(
                x, caches[2 * index], caches[2 * index + 1], write, mask
            )
            outputs.append(new_k)
            outputs.append(new_v)
        x = self.final_norm(x)
        logits = self.lm_head(x).reshape(batch, self.config.vocab_size)
        return (logits,) + tuple(outputs)

    # -- cache / engine plumbing -----------------------------------------------

    def new_cache(self, batch: int = 1, capacity: int = 1) -> KVCache:
        """An empty carried cache for ``batch`` concurrent sequences."""
        config = self.config
        return KVCache(
            num_layers=config.depth,
            batch=batch,
            num_heads=config.num_heads,
            head_dim=config.embed_dim // config.num_heads,
            max_seq=config.max_seq,
            capacity=capacity,
        )

    def calibrate(self, prompt_tokens: Sequence[int]) -> None:
        """Initialise operator quantizers from one eager prompt forward.

        The pwl suites' input quantizers calibrate from the first data
        they observe; running this identical full-sequence forward first
        pins every decode path (cached/uncached, eager/compiled) to the
        same power-of-two scales — a precondition of stream parity.
        Idempotent: later calls are no-ops.
        """
        if self._calibrated:
            return
        onehot = encode_tokens(prompt_tokens, self.config.vocab_size)
        with no_grad():
            self.forward(Tensor(onehot[None, :, :]))
        self._calibrated = True

    def compiled(self):
        """Lazy :class:`~repro.graph.executor.CompiledModel` over ``forward``."""
        if self._compiled_model is None:
            from repro.graph.executor import CompiledModel

            self._compiled_model = CompiledModel(self)
        return self._compiled_model

    def compiled_step(self):
        """Lazy :class:`~repro.graph.executor.CompiledDecodeStep` over ``step``."""
        if self._compiled_step is None:
            from repro.graph.executor import CompiledDecodeStep

            self._compiled_step = CompiledDecodeStep(self)
        return self._compiled_step

    def eager_step(self, token_onehot: Any, pos_onehot: Any, mask: Any,
                   cache_arrays: Sequence[Any]) -> Tuple[Any, List[Any]]:
        """The dynamic-graph step on raw arrays: ``(logits, new_caches)``."""
        with no_grad():
            outputs = self.step(
                Tensor(token_onehot), Tensor(pos_onehot), Tensor(mask),
                *[Tensor(array) for array in cache_arrays]
            )
        return outputs[0].data, [tensor.data for tensor in outputs[1:]]


# -- decode loops ---------------------------------------------------------------


def encode_tokens(tokens: Sequence[int], vocab_size: int) -> np.ndarray:
    """``(len(tokens), vocab_size)`` float one-hot encoding."""
    return F.one_hot(np.asarray(tokens, dtype=np.int64), vocab_size)


def step_inputs(model: MiniDecoder, tokens: Sequence[int],
                positions: Sequence[int], capacity: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build one step's ``(token_onehot, pos_onehot, mask)`` row batch."""
    config = model.config
    token_onehot = encode_tokens(tokens, config.vocab_size)
    pos_onehot = F.one_hot(
        np.asarray(positions, dtype=np.int64), config.max_seq
    )
    mask = np.zeros((len(positions), capacity))
    for row, position in enumerate(positions):
        mask[row, : position + 1] = 1.0
    return token_onehot, pos_onehot, mask


def _cached_stepper(model: MiniDecoder, engine: Optional[str]):
    """The array-level step callable for the resolved decode engine."""
    if engine_config.resolve("decode_engine", engine) == "compiled":
        compiled = model.compiled_step()
        return lambda *arrays_and_cache: compiled.step(*arrays_and_cache)
    return lambda token, pos, mask, cache_arrays: model.eager_step(
        token, pos, mask, cache_arrays
    )


def greedy_generate(
    model: MiniDecoder,
    prompt: Sequence[int],
    num_new: int,
    cache: bool = True,
    engine: Optional[str] = None,
) -> List[int]:
    """Greedy-decode ``num_new`` tokens after ``prompt``; returns them.

    ``cache=True`` runs the O(T) KV-cached loop — the prompt is consumed
    one :meth:`MiniDecoder.step` at a time (prefill-by-decode), then each
    generated token feeds the next step.  ``cache=False`` re-runs the full
    causal forward per generated token (the O(T²) baseline).  ``engine``
    resolves through :func:`repro.core.engine_config.resolve`
    (kwarg > context > ``REPRO_DECODE_ENGINE`` > ``"eager"``); for the
    uncached path ``"compiled"`` routes each full forward through the
    model's :meth:`~MiniDecoder.compiled` wrapper (one specialisation per
    sequence length — the pathology motivating the cache).

    Greedy streams are identical across all four combinations for the
    same model state (the decode parity contract).
    """
    prompt = [int(token) for token in prompt]
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    total = len(prompt) + num_new
    if total > model.config.max_seq:
        raise ValueError(
            "prompt %d + num_new %d exceeds max_seq %d"
            % (len(prompt), num_new, model.config.max_seq)
        )
    model.calibrate(prompt)
    resolved = engine_config.resolve("decode_engine", engine)

    if not cache:
        tokens = list(prompt)
        generated: List[int] = []
        compiled = model.compiled() if resolved == "compiled" else None
        for _ in range(num_new):
            onehot = encode_tokens(tokens, model.config.vocab_size)[None]
            if compiled is not None:
                logits = compiled(onehot)
            else:
                with no_grad():
                    logits = model(Tensor(onehot)).data
            token = int(np.argmax(logits[0, -1]))
            generated.append(token)
            tokens.append(token)
        return generated

    stepper = _cached_stepper(model, resolved)
    kv = model.new_cache(batch=1)
    tokens = list(prompt)
    generated = []
    for index in range(total - 1):
        capacity = kv.ensure(index + 1)
        token_onehot, pos_onehot, mask = step_inputs(
            model, [tokens[index]], [index], capacity
        )
        logits, new_cache = stepper(token_onehot, pos_onehot, mask, kv.arrays())
        kv.update(new_cache)
        if index >= len(prompt) - 1:
            token = int(np.argmax(logits[0]))
            generated.append(token)
            tokens.append(token)
    return generated
