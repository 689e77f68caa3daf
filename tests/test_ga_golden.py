"""Golden GA trajectory: a SHA-256 over every seeded search of a reduced
Table 3 grid.

The search and its per-row scoring oracle (``oracles.py``) share one
generation loop, so an accidental change to the random stream or to the
order of tournament, crossover or mutation passes every scorer-parity
test.  This digest does not: it covers every :class:`GAResult` field
(including ``history`` and the work counters) and the deployed FXP slopes
and intercepts, for the Table 3 operators x {RM, w/o RM} x {8, 16}
entries x two seeds at 60 generations.

The digest pins float64 bits, so it also depends on the platform's
``exp``/``erf`` kernels (GELU and EXP sample them); it was recorded on
x86-64 with NumPy 2.x.  A mismatch after a change that did not touch the
search means the transcendental kernels differ: confirm by running the
unchanged search on the same machine before re-recording.
"""

import hashlib
import struct

import numpy as np

from repro.core.search import GQALUT

OPERATORS = ("gelu", "hswish", "exp", "div", "rsqrt")
SEEDS = (0, 7)
GENERATIONS = 60
POPULATION = 50

# Recorded from the search before its generation loop was rewritten onto
# Python row lists; the rewrite must reproduce it bit for bit.
GOLDEN_SHA256 = "497139737925b75db5a300a0bf7af0a502a5f4100a678e5bf400a614813e3c68"


def _float_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def trajectory_digest() -> str:
    digest = hashlib.sha256()
    for operator in OPERATORS:
        for use_rm in (True, False):
            for entries in (8, 16):
                for seed in SEEDS:
                    outcome = GQALUT.for_operator(
                        operator, num_entries=entries, use_rm=use_rm
                    ).search(
                        generations=GENERATIONS, population_size=POPULATION, seed=seed,
                    )
                    ga = outcome.ga_result
                    digest.update(repr((operator, use_rm, entries, seed)).encode())
                    digest.update(_float_bytes(ga.best_breakpoints))
                    digest.update(_float_bytes(ga.best_ever_breakpoints))
                    digest.update(_float_bytes([ga.best_fitness, ga.best_ever_fitness]))
                    digest.update(_float_bytes(ga.history))
                    digest.update(struct.pack(
                        "<4q", ga.generations_run, ga.evaluations,
                        ga.fitness_calls, ga.cache_hits,
                    ))
                    digest.update(_float_bytes(outcome.pwl_fxp.slopes))
                    digest.update(_float_bytes(outcome.pwl_fxp.intercepts))
    return digest.hexdigest()


def test_golden_trajectory_digest():
    assert trajectory_digest() == GOLDEN_SHA256
