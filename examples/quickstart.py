"""Quickstart: search an INT8 quantization-aware GELU approximation.

This is the 60-second tour of the library:

1. run the GQA-LUT genetic search (Algorithm 1 + Rounding Mutation) for an
   8-entry GELU look-up table,
2. inspect the searched breakpoints and fixed-point parameters,
3. deploy the LUT at a power-of-two scaling factor and compare against the
   exact operator,
4. sweep the scaling factors of Fig. 2(a)/Fig. 3 to see the
   quantization-aware accuracy,
5. deploy the searched pwl inside a segmentation model and predict
   through the compiled inference engine (traced once, then replayed),
   selected once for a whole block through the central engine config,
6. hot-swap a re-searched LUT into a live replicated fleet — the canary
   gate verifies each replica bit-for-bit before promoting it,
7. make a sweep durable with a ``run_dir`` — kill the process at any
   instant and ``SweepEngine.resume`` finishes the grid from the journal
   without rebuilding a single completed cell,
8. fine-tune through the compiled training engine — the whole step
   (forward + backward + optimizer) traced once and replayed from a
   static plan, bit-identical to the eager loop,
9. greedy-decode from a quantized decoder block through the KV-cached
   compiled incremental step — O(T) instead of O(T²), a handful of
   power-of-two cache-bucket plans instead of one trace per position
   (see ``examples/decode_demo.py`` for the served, batched version).

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import GQALUT, get_function
from repro.core import engine_config


def main() -> None:
    # 1. Search.  Table 1 defaults: 7 breakpoints, population 50, lambda=5.
    #    A couple hundred generations is plenty for an 8-entry LUT.
    searcher = GQALUT.for_operator("gelu", num_entries=8, use_rm=True)
    outcome = searcher.search(generations=200, seed=0)

    print("searched breakpoints :", np.round(outcome.breakpoints, 4))
    print("FXP slopes           :", outcome.pwl_fxp.slopes)
    print("FXP intercepts       :", outcome.pwl_fxp.intercepts)
    print("float-domain MSE     : %.3e" % outcome.float_mse())

    # 2. Deploy at a power-of-two scaling factor (the scale the LSQ quantizer
    #    in front of the operator would learn, e.g. S = 2^-4).
    scale = 2.0 ** -4
    lut = outcome.quantized_lut(scale=scale)
    x = np.linspace(-4, 4, 9)
    exact = get_function("gelu")(x)
    approx = lut(x)
    print("\nx        :", x)
    print("gelu(x)  :", np.round(exact, 4))
    print("pwl(x)   :", np.round(approx, 4))

    # 3. Quantization-aware accuracy across the paper's scale sweep.
    print("\nMSE per scaling factor (Section 4.1 protocol):")
    for s, mse in outcome.evaluate().items():
        print("  S = 2^%-3d  MSE = %.3e" % (round(np.log2(s)), mse))
    print("average MSE: %.3e" % outcome.average_mse())

    # 4. Compiled model inference: drop the searched GELU pwl into a
    #    MiniSegformer and predict through the traced-graph executor.  The
    #    first compiled call traces + optimises; repeats replay the plan,
    #    and predictions are bit-identical to the eager path.  The engine
    #    is selected once, through the central config, instead of an
    #    engine= kwarg at every call site.  Resolution order: kwarg >
    #    context > env (REPRO_INFER_ENGINE, ...) > default.
    from repro.nn.approx import PWLSuite
    from repro.nn.models import MiniSegformer, ModelConfig

    suite = PWLSuite(approximations={"gelu": outcome.pwl_fxp}, replace={"gelu"})
    model = MiniSegformer(ModelConfig(image_size=16, embed_dim=16, depth=1), suite=suite)
    model.eval()
    images = np.random.default_rng(0).normal(size=(2, 16, 16, 3))
    eager_pred = model.predict(images, engine="eager")
    with engine_config.use(infer_engine="compiled"):
        compiled_pred = model.predict(images)
    print("\ncompiled == eager predictions:", np.array_equal(compiled_pred, eager_pred))

    # 5. Rolling hot-swap: serve the model from a 2-replica fleet, then
    #    deploy a *better* GELU table (a deeper search) into the running
    #    service.  swap_state drains each replica, applies the new
    #    weights + LUT tables, and bit-compares its canary prediction
    #    against the reference model before promoting — a corrupt or
    #    divergent replica is rolled back instead of serving garbage.
    from repro.serve import ReplicatedServer

    better = searcher.search(generations=400, seed=1)
    with ReplicatedServer(model, replicas=2, max_batch=8,
                          canary=images[0]) as fleet:
        report = fleet.swap_state(
            dict(model.state_dict()), lut_tables={"gelu": better.pwl_fxp}
        )
        # The reference model carries the new table too; every replica
        # answer must match it bit-for-bit (the canary gate enforced the
        # same parity per replica before promotion).
        served = fleet.predict(images[1], timeout=30.0)
        expected = model.predict(images[1][None], engine="eager")[0]
        print("hot-swap promoted %d replicas to generation %d "
              "(fleet == reference: %s)"
              % (report["swapped"], report["model_generation"],
                 np.array_equal(served, expected)))
        fleet.drain(timeout=30.0)  # graceful: outstanding work finishes first

    # 6. Kill-and-resume: give a sweep a run_dir and every cell transition
    #    is journaled (fsync'd, torn-tail tolerant) while artifacts land
    #    in a content-addressed store under run_dir/artifacts.  We mimic a
    #    crash by abandoning the engine halfway through the grid; a fresh
    #    process then resumes from the journal alone — completed cells are
    #    answered from the store (bit-identical, zero rebuilds) — and the
    #    rest of the grid reuses the same run_dir, building only what is
    #    missing.
    import tempfile
    from pathlib import Path

    from repro.experiments import ApproximationBudget, SweepEngine, approximation_jobs

    run_dir = Path(tempfile.mkdtemp(prefix="quickstart-")) / "grid-0"
    grid = approximation_jobs(("gelu", "exp"), ("nn-lut", "gqa-rm"),
                              budget=ApproximationBudget.quick())

    interrupted = SweepEngine(run_dir=run_dir)
    interrupted.run_manifest(grid[:2])          # ... SIGKILL lands here ...
    interrupted.close()                          # (simulated crash)

    resumed = SweepEngine().resume(run_dir)      # journal -> remaining work
    print("\nresume after crash: %d cells from the store, %d rebuilt -> ok=%s"
          % (resumed.stats.cache_hits, resumed.stats.builds, resumed.ok))

    finished = SweepEngine(run_dir=run_dir)
    full = finished.run_manifest(grid)           # the full grid, same run_dir
    print("full grid over the same run_dir: %d rebuilt (everything durable)"
          % full.stats.builds)
    finished.close()

    # 7. Compiled fine-tuning: train_engine="compiled" traces the entire
    #    training step — forward, cross-entropy, backward, and the
    #    optimizer update — into one optimised graph on the first batch,
    #    then replays it per batch (REPRO_TRAIN_ENGINE=compiled does the
    #    same globally, and engine_config.use(train_engine=...) scopes
    #    it).  The contract is bit-identity: per-step losses and final
    #    weights match the eager loop exactly.
    from repro.nn.training import Trainer, TrainingConfig

    rng = np.random.default_rng(7)
    train_images = rng.normal(size=(8, 16, 16, 3))
    train_labels = rng.integers(0, 3, size=(8, 16, 16))

    def finetune(engine):
        net = MiniSegformer(ModelConfig(image_size=16, embed_dim=16, depth=1),
                            suite=suite)
        trainer = Trainer(net, TrainingConfig(epochs=1, batch_size=4, seed=11))
        result = trainer.fit(train_images, train_labels, num_classes=3,
                             train_engine=engine)
        return result.losses, net.state_dict()

    eager_losses, eager_state = finetune("eager")
    compiled_losses, compiled_state = finetune("compiled")
    print("\ncompiled fine-tune losses identical:",
          compiled_losses == eager_losses)
    print("compiled fine-tune weights identical:",
          all(np.array_equal(compiled_state[k], eager_state[k])
              for k in eager_state))

    # 8. KV-cached autoregressive decode: the searched GELU pwl inside a
    #    causal decoder block, greedy-decoding through the compiled
    #    incremental step (decode_engine="compiled", or globally via
    #    REPRO_DECODE_ENGINE).  The KV cache makes each token O(1) model
    #    work instead of re-running the whole prefix, and cache capacity
    #    is bucketed in powers of two so the compiled step traces only a
    #    handful of plans for the whole stream.
    from repro.nn import DecoderConfig, MiniDecoder, greedy_generate

    decoder = MiniDecoder(DecoderConfig(vocab_size=32, max_seq=64,
                                        embed_dim=32, depth=2, seed=3),
                          suite=suite)
    decoder.eval()
    prompt = [1, 4, 7, 2]
    cached = greedy_generate(decoder, prompt, 20, cache=True, engine="compiled")
    uncached = greedy_generate(decoder, prompt, 20, cache=False, engine="eager")
    print("\nKV-cached decode stream:", cached)
    print("matches uncached O(T^2) baseline:", cached == uncached)
    print("cache-bucket plans traced:", decoder.compiled_step().specializations)


if __name__ == "__main__":
    main()
