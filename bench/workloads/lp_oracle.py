"""lp-oracle: one query through feasibility_oracle and smallest_epsilon.

Nearly all of the time is in the dense simplex. Same-table queries run
at every dimension from 2 to 12; cross-table ones at every pair of sides
from 2 to 5 up to 4 x 5, where the composed LP has (d_S d_T)^2 = 400
variables. Larger cross-table sizes are left out: the cost grows without
bound inside the per-side cap of 12 (a 6 x 6 query takes 0.8 to 3 s
depending on its values), and no round of seeded queries at those sizes
holds steady from seed to seed.

Verdicts are known by construction, as in single-shot. The checks verify
every returned witness here (nonnegative, unit column sums, M g = g and
M r = s on the composed vectors) and require the oracle to agree with
can_convert. smallest_epsilon must be 0 on reachable targets, at most
the distance (1/2)|g_T - s|_1 that full thermalization reaches, and equal
to it for an equilibrium source, whose every image is g_T.
"""

from __future__ import annotations

import numpy as np
import thermoflow as tf

import reference as ref
from workloads import Case, Workload, states

SAME_DIMS = tuple(range(2, 13))
CROSS_DIMS = tuple(range(2, 6))
# Sides up to 5, but not 5 x 5: a 5 x 5 query costs about three times a
# 4 x 5 one and varies by a third with its values, enough to move a
# round's total by several percent from seed to seed.
MAX_COMPOSED = 20
# Instances per size. Bland-rule pivot counts, and so times, vary by 25
# to 40 % between instances of one size; these counts average that out
# enough for the round's total to vary by a few percent between seeds.
SAME_PER_DIM = 6
CROSS_PER_PAIR = 10
# The 4 x 5 and 5 x 4 queries, about twice as slow as any other, get
# twice the count: they are then 17 % of the round, so the 90th
# percentile falls inside their cluster and not at its edge.
LARGEST_PER_PAIR = 20
WITNESS_TOL = 1e-8
EPSILON_TOL = 1e-9


def _case(rng, construction, ctx, src_table, tgt_table) -> Case:
    g_src = ref.gibbs(src_table, ctx)
    g_tgt = ref.gibbs(tgt_table, ctx)
    if construction == 0:
        r = ref.random_probabilities(rng, src_table.dim)
        s = ref.fixing_map(rng, g_src, g_tgt) @ r
    elif construction == 1:
        r = g_src
        s = ref.random_probabilities(rng, tgt_table.dim, away_from=g_tgt)
    else:
        r = ref.random_probabilities(rng, src_table.dim)
        s = g_tgt
    expected = construction != 1
    query = states.query(ctx, src_table, r, tgt_table, s)
    if src_table is tgt_table:
        vectors = (r, s, g_src, g_tgt)
    else:
        # The oracle pads each side with the other side's equilibrium state.
        vectors = (np.kron(r, g_tgt), np.kron(g_src, s),
                   np.kron(g_src, g_tgt), np.kron(g_src, g_tgt))
    thermalized = ref.tv(g_tgt, s)

    def run():
        witness = tf.feasibility_oracle(query)
        return (None if witness is None else witness.entries,
                tf.smallest_epsilon(query))

    def check(out):
        entries, epsilon = out
        if (entries is not None) != expected or tf.can_convert(query) != expected:
            return False
        if entries is not None and ref.witness_errors(entries, *vectors) > WITNESS_TOL:
            return False
        if expected:
            # The LP's optimum carries roundoff of about 1e-16 on composed
            # (cross-table) queries, although the docstring promises 0.
            return epsilon <= EPSILON_TOL
        return abs(epsilon - thermalized) <= EPSILON_TOL

    return Case("feasibility_oracle+smallest_epsilon", run, check)


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 2])
    same, cross = [], []
    for d in SAME_DIMS:
        for i in range(SAME_PER_DIM):
            ctx = ref.random_context(rng, ref.KINDS[i % 3])
            table = ref.random_table(rng, ctx, d)
            same.append(_case(rng, i % 3, ctx, table, table))
    for a in CROSS_DIMS:
        for b in CROSS_DIMS:
            if a * b > MAX_COMPOSED:
                continue
            for i in range(LARGEST_PER_PAIR if a * b == MAX_COMPOSED else CROSS_PER_PAIR):
                ctx = ref.random_context(rng, ref.KINDS[i % 3])
                cross.append(_case(rng, (i + a + b) % 3, ctx, ref.random_table(rng, ctx, a),
                                   ref.random_table(rng, ctx, b)))
    cases = same + cross
    cases = [cases[k] for k in rng.permutation(len(cases))]
    return Workload(cases=cases, warmup=same[::SAME_PER_DIM], traced_cases=cases)
