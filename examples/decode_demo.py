"""KV-cached autoregressive decode through the compiled incremental step.

The 60-second tour of the PR 10 decode stack:

1. build a quantized `MiniDecoder` — causal attention, GELU MLP and
   LayerNorm all routed through 8-entry fixed-point pwl tables, Linears
   INT8-quantized,
2. greedy-decode the same prompt four ways — cached/uncached x
   eager/compiled — and check the token streams agree,
3. inspect the compiled step's power-of-two cache-bucket
   specializations (a long decode needs ~log2(T) plans, not T),
4. pick the decode engine through the central config
   (``REPRO_DECODE_ENGINE=compiled`` does the same globally),
5. serve concurrent decode sessions through ``BatchingServer`` — one
   batched compiled step per drain, across cache buckets — and verify
   the served streams match direct decode.

Run with::

    PYTHONPATH=src python examples/decode_demo.py
"""

import threading

from repro.baselines import uniform_pwl
from repro.core import engine_config
from repro.functions.registry import get_function
from repro.nn import DecoderConfig, MiniDecoder, PWLSuite, greedy_generate
from repro.nn.training import prepare_quantized_model
from repro.serve import BatchingServer

OPERATORS = ("exp", "gelu", "div", "rsqrt")


def build_model() -> MiniDecoder:
    approximations = {op: uniform_pwl(get_function(op)).to_fixed_point(5) for op in OPERATORS}
    suite = PWLSuite(approximations=approximations, replace=set(OPERATORS))
    model = MiniDecoder(DecoderConfig(vocab_size=32, max_seq=64, embed_dim=32,
                                      depth=2, num_heads=2, seed=3), suite=suite)
    prepare_quantized_model(model)
    model.eval()
    return model


def main() -> None:
    model = build_model()
    prompt = [1, 4, 7, 2]
    num_new = 24

    # 1. Four decode paths, one greedy stream.  Cached-eager and
    #    cached-compiled logits are bit-identical; the uncached paths
    #    recompute the full prefix each token (O(T^2)) and must produce
    #    the same greedy stream.
    streams = {
        (cache, engine): greedy_generate(model, prompt, num_new,
                                         cache=cache, engine=engine)
        for cache in (False, True)
        for engine in ("eager", "compiled")
    }
    reference = streams[(True, "compiled")]
    print("generated tokens     :", reference)
    print("all four paths agree :",
          all(stream == reference for stream in streams.values()))

    # 2. The compiled step specializes per (batch, cache-capacity) with
    #    capacity bucketed in powers of two — 28 positions decoded above,
    #    far fewer plans traced.
    step = model.compiled_step()
    print("positions decoded    :", len(prompt) + num_new - 1)
    print("bucket plans traced  :", step.specializations,
          sorted(step.stats()["signatures"]))

    # 3. Engine selection through the central config: kwarg > context >
    #    env (REPRO_DECODE_ENGINE) > default, like every other engine.
    with engine_config.use(decode_engine="compiled"):
        contextual = greedy_generate(model, prompt, num_new, cache=True)
    print("config-driven decode :", contextual == reference)

    # 4. Served decode: each session owns a KV cache; every drain runs
    #    its live sessions as ONE batched compiled step at their largest
    #    cache bucket, so concurrent streams share plans and batches.
    prompts = [prompt, [3, 3, 9], [11, 0, 5, 8, 2], [6, 1]]
    direct = [greedy_generate(model, p, num_new, cache=True, engine="eager")
              for p in prompts]
    with BatchingServer(model, max_batch=8, max_wait_ms=2.0,
                        decode_engine="compiled") as server:
        results = [None] * len(prompts)

        def run(index):
            results[index] = server.generate(prompts[index], num_new, timeout=120)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(prompts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
        health = server.health()

    print("served == direct     :", results == direct)
    print("decode steps/batches : %d / %d (mean group %.1f)"
          % (stats.decode_steps, stats.decode_batches,
             stats.decode_steps / stats.decode_batches))
    print("decode latency keys  :",
          [key for key in health["bucket_latency_ms"] if key.startswith("decode/")])


if __name__ == "__main__":
    main()
