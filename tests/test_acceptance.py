"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every random sweep is seeded, so reruns are bit-identical.
"""

import json
import math
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest

import thermoflow as tf

from conftest import (
    majorizes,
    nonequilibrium_state,
    pushed_state,
    random_context,
    random_spec,
    random_state,
)


def _report(num, name, ok, extra=""):
    marker = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{marker}] criterion {num:2d}: {name}{suffix}")
    return ok


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20240001)
    start = time.monotonic()
    mismatches = 0
    convertible = 0
    total = 500
    for trial in range(total):
        kind = "helmholtz" if trial % 2 == 0 else "grand_potential"
        ctx = random_context(rng, kind)
        labels = ["H"] + [f"X{i}" for i in range(1, ctx.n_state_operators)]
        if trial % 2 == 0:
            # shared operator table
            d = int(rng.integers(2, 6))
            spec = random_spec(rng, d, ctx, labels=labels)
            source = random_state(rng, spec)
            if rng.random() < 0.5:
                target = pushed_state(rng, source, ctx, steps=int(rng.integers(1, 5)))
            else:
                target = random_state(rng, spec)
        else:
            # different tables, composed comparison
            d_src = int(rng.integers(2, 6))
            d_tgt = int(rng.integers(2, 6))
            spec_src = random_spec(rng, d_src, ctx, labels=labels)
            spec_tgt = random_spec(rng, d_tgt, ctx, labels=labels)
            source = random_state(rng, spec_src)
            target = random_state(rng, spec_tgt)
            if rng.random() < 0.5:
                # soften the target toward equilibrium to vary the verdicts
                g = tf.gibbs_state(spec_tgt, ctx).r
                mix = float(rng.uniform(0.7, 0.99))
                target = tf.QuasiclassicalState(spec_tgt, mix * g + (1 - mix) * target.r)
        query = tf.ConversionQuery(source, target, ctx)
        curves = tf.can_convert(query)
        witness = tf.feasibility_oracle(query) is not None
        mismatches += curves != witness
        convertible += curves
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60.0
    assert _report(1, "oracle equivalence over 500 queries", ok,
                   f"{mismatches} mismatches, {convertible} convertible, {elapsed:.1f}s")


def test_criterion_02_free_state_fixity():
    rng = np.random.default_rng(20240002)
    ok = True
    for _ in range(100):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = nonequilibrium_state(rng, spec, ctx)
        g = tf.gibbs_state(spec, ctx)
        ok &= not tf.can_convert(tf.ConversionQuery(g, state, ctx))
        ok &= tf.can_convert(tf.ConversionQuery(state, g, ctx))
        ok &= abs(tf.w_gain(g, ctx, 0.0)) <= 1e-12
    assert _report(2, "free states are fixed points", ok)


def test_criterion_03_hypothesis_testing_greedy():
    rng = np.random.default_rng(20240003)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 11))
        r = rng.dirichlet(np.ones(d))
        g = rng.dirichlet(np.ones(d))
        if d > 2 and rng.random() < 0.3:
            r[rng.integers(d)] = 0.0
            r = r / r.sum()
        if d > 2 and rng.random() < 0.3:
            g[rng.integers(d)] = 0.0
            g = g / g.sum()
        eps = float(rng.uniform(0.0, 0.95))
        t = tf.HypothesisTest(r, g, eps)
        worst = max(worst, abs(tf.b_epsilon(t) - tf.vertex_oracle(t)))
    probes = (
        abs(tf.b_epsilon(tf.HypothesisTest([1, 0], [2 / 3, 1 / 3], 0.0)) - 2 / 3),
        abs(tf.b_epsilon(tf.HypothesisTest([0.4, 0.6], [0.4, 0.6], 0.0)) - 1.0),
        abs(tf.b_epsilon(tf.HypothesisTest([0.5, 0.5], [0.5, 0.5], 0.5)) - 0.5),
    )
    ok = worst <= 1e-12 and max(probes) <= 1e-12
    assert _report(3, "greedy hypothesis test equals vertex oracle", ok,
                   f"worst sweep gap {worst:.2e}")


def test_criterion_04_work_formulas():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, math.log(2)]),))
    state = tf.QuasiclassicalState(spec, [1.0, 0.0])
    probe_ok = abs(tf.w_gain(state, ctx, 0.0) - math.log(1.5)) <= 1e-12

    rng = np.random.default_rng(20240004)
    order_ok = True
    for _ in range(200):
        rctx = random_context(rng)
        rspec = random_spec(rng, int(rng.integers(2, 6)), rctx)
        rstate = random_state(rng, rspec)
        for eps in (0.01, 0.1, 0.5):
            lower, upper = tf.w_cost_bounds(rstate, rctx, eps)
            order_ok &= lower <= upper + 1e-12
    ok = probe_ok and order_ok
    assert _report(4, "one-shot work formulas", ok)


def test_criterion_05_free_energy_identity():
    rng = np.random.default_rng(20240005)
    worst = 0.0
    kinds = ("helmholtz", "grand_potential", "gibbs")
    for trial in range(200):
        ctx = random_context(rng, kinds[trial % 3])
        spec = random_spec(rng, int(rng.integers(2, 7)), ctx)
        state = random_state(rng, spec)
        expected = tf.relative_entropy(state.r, tf.gibbs_state(spec, ctx).r) / ctx.beta
        worst = max(worst, abs(tf.free_energy_rate(state, ctx) - expected))
    ok = worst <= 1e-10
    assert _report(5, "free-energy identity", ok, f"worst gap {worst:.2e}")


def _aep_instance():
    ctx = tf.preset("helmholtz", beta=1.0)
    spec = tf.SystemSpec(2, (("H", [0.0, 1.0]),))
    state = tf.QuasiclassicalState(spec, [0.9, 0.1])
    return state, ctx


def test_criterion_06_aep_convergence():
    state, ctx = _aep_instance()
    start = time.monotonic()
    sweep = tf.aep_sweep(state, ctx, 0.01, [64, 1024, 4096])
    elapsed = time.monotonic() - start
    per_copy = dict(sweep.rows)
    final_ok = abs(per_copy[4096] - sweep.limit) <= 0.05
    trend_ok = abs(per_copy[1024] - sweep.limit) < abs(per_copy[64] - sweep.limit)
    ok = final_ok and trend_ok and elapsed < 30.0
    assert _report(6, "equipartition convergence", ok,
                   f"|gap@4096|={abs(per_copy[4096] - sweep.limit):.4f}, {elapsed:.1f}s")


def test_criterion_07_second_law_gap():
    state, ctx = _aep_instance()
    limit = tf.relative_entropy(state.r, tf.gibbs_state(state.spec, ctx).r)
    stats = []
    order_ok = True
    for n in (16, 64, 256, 1024):
        gain, (lower, upper) = tf.finite_n_gap(state, ctx, 0.01, n)
        order_ok &= upper >= gain
        stats.append((n * limit / ctx.beta - gain) / math.sqrt(n))
    band_ok = min(stats) > 0 and max(stats) <= 4 * min(stats)
    ok = order_ok and band_ok
    assert _report(7, "square-root work gap stays banded", ok,
                   f"stats {['%.3f' % s for s in stats]}")


def test_square_root_gap_matches_second_order_expansion():
    # gain = D_H at 1 - eps and upper = D_H at eps minus ln((1 - eps)/eps),
    # both per beta, and D_H^eps(r^n || g^n) = n D + sqrt(n V) Phi^-1(eps)
    # + O(log n) (Tomamichel & Hayashi, arXiv:1208.1478), so the gap
    # (upper - gain) beta + ln((1 - eps)/eps) is 2 sqrt(n V) Phi^-1(1 - eps)
    # up to two O(log n) terms. d = 3 at n = 1400 is just under the cap.
    rng = np.random.default_rng(709)
    start = time.perf_counter()
    for d, n in ((3, 1400), (3, 1400), (2, 4096), (2, 4096), (2, 4096)):
        ctx = random_context(rng)
        spec = random_spec(rng, d, ctx)
        g = tf.gibbs_state(spec, ctx).r
        r = 0.9 * rng.dirichlet(np.ones(d)) + 0.1 / d
        eps = float(rng.uniform(0.02, 0.3))
        log_ratio = np.log(r / g)
        var = float(r @ log_ratio ** 2) - float(r @ log_ratio) ** 2
        gain, (_, upper) = tf.finite_n_gap(tf.QuasiclassicalState(spec, r), ctx, eps, n)
        gap = (upper - gain) * ctx.beta + math.log((1.0 - eps) / eps)
        expansion = 2.0 * math.sqrt(n * var) * NormalDist().inv_cdf(1.0 - eps)
        assert abs(gap - expansion) <= 2.0 * (math.log(n) + 5.0), (d, n, gap, expansion)
    assert time.perf_counter() - start < 20.0


def test_criterion_08_information_work_interconversion():
    ent = tf.preset("entropy")
    pure2 = tf.QuasiclassicalState(tf.SystemSpec(2), [1.0, 0.0])
    pure4 = tf.QuasiclassicalState(tf.SystemSpec(4), [1.0, 0.0, 0.0, 0.0])
    bit_ok = abs(tf.resource_yield(pure2, ent) - math.log(2)) <= 1e-12
    rate_ok = abs(tf.conversion_rate(pure2, pure4, ent) - 0.5) <= 1e-12

    rng = np.random.default_rng(20240008)
    recip_ok = True
    for _ in range(100):
        ctx = random_context(rng)
        spec_a = random_spec(rng, int(rng.integers(2, 5)), ctx)
        spec_b = random_spec(rng, int(rng.integers(2, 5)), ctx, labels=spec_a.labels)
        a = nonequilibrium_state(rng, spec_a, ctx)
        b = nonequilibrium_state(rng, spec_b, ctx)
        product = tf.conversion_rate(a, b, ctx) * tf.conversion_rate(b, a, ctx)
        recip_ok &= abs(product - 1.0) <= 1e-12
    ok = bit_ok and rate_ok and recip_ok
    assert _report(8, "information-work interconversion rates", ok)


def test_criterion_09_gravitational_mapping():
    rng = np.random.default_rng(20240009)
    worst = 0.0
    for _ in range(20):
        mu = float(rng.uniform(-1, 1))
        mass = float(rng.uniform(0.1, 3))
        gravity = float(rng.uniform(1, 15))
        height = float(rng.uniform(0, 2))
        beta = float(rng.uniform(0.5, 2))
        lifted = tf.gravitational_chemical_potential(mu, mass, gravity, height)
        via_preset = tf.preset("grand_potential", beta=beta, mu=lifted)
        by_hand = tf.make_context("energy", beta, [("mu_tilde", mu + mass * gravity * height)])
        d = int(rng.integers(2, 6))
        spec = tf.SystemSpec(d, (("H", rng.uniform(-2, 2, d)), ("N", rng.integers(0, 4, d).astype(float))))
        gap = np.abs(tf.gibbs_state(spec, via_preset).r - tf.gibbs_state(spec, by_hand).r).max()
        worst = max(worst, gap)
    ok = worst <= 1e-12
    assert _report(9, "gravitational chemical-potential mapping", ok,
                   f"worst gap {worst:.2e}")


def test_criterion_10_quasiorder_axioms():
    rng = np.random.default_rng(20240010)
    reflexive_ok = True
    for _ in range(200):
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        state = random_state(rng, spec)
        reflexive_ok &= tf.can_convert(tf.ConversionQuery(state, state, ctx))

    transitive_ok = True
    checked = 0
    while checked < 200:
        ctx = random_context(rng)
        spec = random_spec(rng, int(rng.integers(2, 6)), ctx)
        a = random_state(rng, spec)
        b = pushed_state(rng, a, ctx, steps=int(rng.integers(1, 5)))
        c = pushed_state(rng, b, ctx, steps=int(rng.integers(1, 5)))
        if not (tf.can_convert(tf.ConversionQuery(a, b, ctx))
                and tf.can_convert(tf.ConversionQuery(b, c, ctx))):
            continue
        checked += 1
        transitive_ok &= tf.can_convert(tf.ConversionQuery(a, c, ctx))
    ok = reflexive_ok and transitive_ok
    assert _report(10, "quasiorder axioms", ok)


def _run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "thermoflow", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_criterion_11_cli_contract(tmp_path):
    pure2 = tmp_path / "pure2.json"
    pure2.write_text(json.dumps({
        "representation": "entropy", "intensive": [],
        "operators": [], "r": [1.0, 0.0]}), encoding="utf-8")
    ctx_file = tmp_path / "entropy.json"
    ctx_file.write_text(json.dumps({"representation": "entropy", "intensive": []}),
                        encoding="utf-8")
    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps({
        "representation": "energy", "beta": 1.0, "intensive": [],
        "operators": [{"label": "H", "eigenvalues": [0.0, math.log(2)]}],
        "r": [1.0, 0.0]}), encoding="utf-8")
    gibbs = tmp_path / "gibbs.json"
    gibbs.write_text(_run_cli("gibbs", str(hot)).stdout, encoding="utf-8")

    examples = (
        ("convert", str(hot), str(gibbs)),
        ("work", str(gibbs), "--epsilon", "0"),
        ("lorenz", str(pure2), "--ctx", str(ctx_file)),
    )
    ok = True
    for args in examples:
        first = _run_cli(*args)
        second = _run_cli(*args)
        ok &= first.returncode == second.returncode
        ok &= first.stdout == second.stdout and first.stdout != ""
    ok &= _run_cli("convert", str(hot), str(gibbs)).returncode == 0
    report = json.loads(_run_cli("work", str(gibbs), "--epsilon", "0").stdout)
    ok &= report["w_gain"] == 0.0
    ok &= _run_cli("lorenz", str(pure2), "--ctx", str(ctx_file)).stdout == "x,y\n0,0\n1,1\n2,1\n"

    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json", encoding="utf-8")
    result = _run_cli("gibbs", str(bad))
    ok &= result.returncode == 2 and result.stderr.startswith("error:")
    assert _report(11, "CLI determinism and error contract", ok)
