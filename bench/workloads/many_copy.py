"""many-copy: one finite_n_gap or aep_sweep call on a type-class power.

A round holds 20 calls at dimensions 2 to 5 in a fixed schedule of
copy counts n. Most powers have 10^1 to 10^4 type classes, where the
512-point delta grid of finite_n_gap and the per-class Python overhead
dominate; they set the median. One in seven has about 10^5 classes and
three hold 0.7 to 1 million, just under the cap, where building the power
(its composition list above all) dominates; they set the 90th
percentile and the peak memory. States and contexts are seeded; the
sizes are not, so every seed asks for the same work.

Checks need no type classes. Up to 2e4 outcomes the n-fold product is
built in full and tested greedily; beyond that the hypothesis-testing
entropy must lie within O(log n) of n D + sqrt(n V) Phi^-1(epsilon).
"""

from __future__ import annotations

import math

import numpy as np
import thermoflow as tf

import reference as ref
from workloads import Case, Workload, states

# (function, d, copy counts); aep_sweep takes the whole list.
SCHEDULE = (
    ("finite_n_gap", 2, (1024,)),
    ("finite_n_gap", 2, (2048,)),
    ("finite_n_gap", 2, (4096,)),
    ("finite_n_gap", 3, (60,)),
    ("finite_n_gap", 4, (20,)),
    ("finite_n_gap", 5, (12,)),
    ("finite_n_gap", 2, (12,)),
    ("finite_n_gap", 3, (8,)),
    ("finite_n_gap", 4, (6,)),
    ("finite_n_gap", 5, (5,)),
    ("aep_sweep", 2, (12, 256, 4096)),
    ("aep_sweep", 3, (8, 64, 140)),
    ("aep_sweep", 4, (6, 20, 40)),
    ("aep_sweep", 5, (5, 12, 20)),
    ("finite_n_gap", 3, (440,)),
    ("finite_n_gap", 4, (80,)),
    ("finite_n_gap", 5, (36,)),
    ("finite_n_gap", 3, (1400,)),
    ("aep_sweep", 4, (6, 175)),
    ("finite_n_gap", 5, (62,)),
)
def _cases(rng, function, d, n_list):
    """The timed case and its variant for the traced run."""
    ctx = ref.random_context(rng, ref.KINDS[int(rng.integers(3))])
    table = ref.random_table(rng, ctx, d)
    g = ref.gibbs(table, ctx)
    r = ref.random_probabilities(rng, d, away_from=g)
    epsilon = float(rng.uniform(0.02, 0.2))
    state = states.state(table, r)
    tf_ctx = states.context(ctx)
    beta = ctx.beta

    if function == "finite_n_gap":
        (n,) = n_list

        def run():
            return tf.finite_n_gap(state, tf_ctx, epsilon, n)

        def check(out):
            gain, (lower, upper) = out
            # upper is D_H at 1 - epsilon, shifted by ln((1 - eps) / eps)
            strong = upper * beta + math.log((1.0 - epsilon) / epsilon)
            return (ref.d_h_matches(gain * beta, r, g, n, epsilon)
                    and ref.d_h_matches(strong, r, g, n, 1.0 - epsilon)
                    and lower <= upper)

        def traced_run():
            out = run()
            # The same sorted test on a prebuilt power: subtracted from
            # finite_n_gap's self time, it leaves the delta grid's cost.
            tf.compressed_d_h_epsilon(tf.tensor_power_compressed(state, tf_ctx, n), epsilon)
            return out

        return Case(function, run, check), Case(function, traced_run, check)

    def run():
        return tf.aep_sweep(state, tf_ctx, epsilon, n_list)

    def check(out):
        limit = ref.relative_entropy(r, g)
        return (abs(out.limit - limit) <= ref.EXACT_TOL * max(1.0, limit)
                and [n for n, _ in out.rows] == sorted(n_list)
                and all(ref.d_h_matches(n * per_copy, r, g, n, epsilon)
                        for n, per_copy in out.rows))

    case = Case(function, run, check)
    return case, case


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 3])
    pairs = [_cases(rng, *entry) for entry in SCHEDULE]
    # warm up on the powers below 10^4 classes
    warmup = [timed for (timed, _), (_, d, ns) in zip(pairs, SCHEDULE)
              if math.comb(max(ns) + d - 1, d - 1) < 10_000]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    return Workload(cases=[timed for timed, _ in pairs], warmup=warmup,
                    traced_cases=[traced for _, traced in pairs])
