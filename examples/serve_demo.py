"""Serve a quantized pwl segmentation model under concurrent traffic.

The deployment story end to end:

1. build a MiniSegformer with every non-linear operator replaced by its
   8-entry pwl (the paper's deployed configuration) and INT8-quantized
   Linear layers,
2. compile it — trace once, fold the quantizer constant subtrees, fuse the
   dense-LUT lookups, plan buffers,
3. stand up a :class:`repro.serve.BatchingServer` and fire concurrent
   single-image requests at it from worker threads,
4. compare against sequential eager inference and print the batching
   stats,
5. promote the same model into a :class:`repro.serve.ReplicatedServer`
   fleet: per-replica health, a canary-verified rolling hot-swap to new
   head weights, and a graceful drain before shutdown.

Run with::

    PYTHONPATH=src python examples/serve_demo.py
"""

import threading
import time

import numpy as np

from repro.baselines import uniform_pwl
from repro.functions.registry import get_function
from repro.nn.approx import PWLSuite
from repro.nn.models import MiniSegformer, ModelConfig
from repro.nn.training import prepare_quantized_model
from repro.serve import BatchingServer, ReplicatedServer

OPERATORS = ("exp", "gelu", "div", "rsqrt")


def main() -> None:
    # 1. The deployed model: pwl operators + INT8 linears.
    suite = PWLSuite(
        approximations={op: uniform_pwl(get_function(op)).to_fixed_point(5) for op in OPERATORS},
        replace=set(OPERATORS),
    )
    model = MiniSegformer(ModelConfig(), suite=suite)
    prepare_quantized_model(model)
    model.eval()

    rng = np.random.default_rng(0)
    images = [rng.normal(size=(32, 32, 3)) for _ in range(96)]

    # 2. Sequential eager baseline (also initialises the LSQ quantizers
    #    from the first image, exactly as a compiled first call would).
    start = time.perf_counter()
    eager = [model.predict(image[None], engine="eager")[0] for image in images]
    eager_seconds = time.perf_counter() - start

    # 3. Concurrent traffic against the micro-batching compiled server,
    #    production-shaped: bounded admission queue + per-request deadline
    #    (a deadline-bounded predict fails fast instead of waiting forever)
    #    and a caller-side timeout so a wedged batch cannot hang a client.
    with BatchingServer(model, max_batch=16, max_wait_ms=2.0, engine="compiled",
                        max_queue=256, deadline_ms=5000.0) as server:
        results = [None] * len(images)

        def client(worker: int, step: int) -> None:
            for index in range(worker, len(images), step):
                results[index] = server.predict(images[index], timeout=30.0)

        threads = [threading.Thread(target=client, args=(w, 4)) for w in range(4)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served_seconds = time.perf_counter() - start
        stats = server.stats()
        health = server.health()

    identical = all(np.array_equal(a, b) for a, b in zip(results, eager))
    print("requests          : %d (4 client threads)" % len(images))
    print("batches executed  : %d (mean batch %.1f, %d padded rows)"
          % (stats.batches, stats.mean_batch_size, stats.padded_rows))
    print("eager sequential  : %6.1f req/s" % (len(images) / eager_seconds))
    print("compiled batched  : %6.1f req/s (%.1fx)"
          % (len(images) / served_seconds, eager_seconds / served_seconds))
    print("bit-identical     :", identical)
    # 4. The health() report is endpoint-shaped: what /healthz would serve.
    print("health            : status=%s shed=%d expired=%d fallbacks=%d "
          "p50=%.1fms p99=%.1fms"
          % (health["status"], health["counters"]["shed"],
             health["counters"]["expired"], health["counters"]["fallbacks"],
             health["latency_ms"]["p50_ms"], health["latency_ms"]["p99_ms"]))

    # 5. Replicated serving: the same admission surface fronting forked
    #    replica processes.  A canary image gates the rolling hot-swap —
    #    each replica must reproduce the reference model's prediction on
    #    it bit-for-bit before being promoted to the new weights.
    new_state = dict(model.state_dict())
    key = next(n for n in new_state if "head" in n and n.endswith("bias"))
    new_state[key] = new_state[key] + np.arange(new_state[key].size) * 7.0
    with ReplicatedServer(model, replicas=2, max_batch=16, max_wait_ms=2.0,
                          canary=images[0]) as fleet:
        before = fleet.predict(images[1], timeout=30.0)
        assert np.array_equal(before, eager[1])  # any replica, same bits
        report = fleet.swap_state(new_state)
        print("fleet swap        : %d replicas promoted to generation %d"
              % (report["swapped"], report["model_generation"]))
        after = fleet.predict(images[1], timeout=30.0)
        print("swap changed head :", not np.array_equal(before, after))
        fleet_health = fleet.health()
        print("fleet health      : status=%s  replicas=%s"
              % (fleet_health["status"],
                 [(r["index"], r["state"], "gen%d" % r["model_generation"])
                  for r in fleet_health["replicas"]]))
        # Graceful drain: wait out every outstanding request before the
        # context manager tears the replicas down.
        drained = fleet.drain(timeout=30.0)
        print("drained           :", drained)


if __name__ == "__main__":
    main()
