"""Shipping acceptance suite: one test per criterion, run in order.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line with the
measured numbers once its assertions hold, so a verbose run doubles as
the acceptance report.  The heavyweight artifacts (the random-field
search grid, the degree-31 engine and its precomputed log tables) are
module fixtures shared by the criteria that need them.

Statistical criteria run with frozen seeds: the asserted tolerances are
the contract, the seeds keep the suite deterministic.
"""

import os
import pathlib
import random
import statistics
import subprocess
import sys
import time
from math import comb

import pytest

from lowmult.dlog import build_engine, predict_table_bytes
from lowmult.gf2poly import (
    make_context,
    parse_poly,
    random_primitive_poly,
    verify_multiple,
)
from lowmult.reference import brute_force_multiples
from lowmult.sampler import SampleParams, birthday_logtmto, random_log_sample
from lowmult.search import (
    SearchParams,
    build_log_table,
    estimate_count,
    logtmto_find_all,
    second_phase_bound,
    tmto_find_all,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

# degree-53 modulus used for the memory-model check (group order factors
# 6361 * 69431 * 20394401)
P53 = (
    "53,47,45,44,42,40,39,38,36,33,32,31,30,28,27,26,25,21,20,17,16,15,"
    "13,11,10,7,6,3,2,1,0"
)

INSTANCE_CAP = 10**8  # brute-force tuple cap defining the search grid
GRID_WEIGHTS = (3, 4, 5, 6)
GRID_DEGREES = (128, 256, 512, 1024, 2048)
GRID_PAIRS = [
    (w, D)
    for w in GRID_WEIGHTS
    for D in GRID_DEGREES
    if comb(D, w - 1) <= INSTANCE_CAP
]
GRID_NS = list(range(10, 25)) + [10, 12, 14, 16, 20]  # 20 fields


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}", flush=True)


@pytest.fixture(scope="module")
def grid_results():
    """Per random field, per (w, D): the brute-force set, the classical
    and log solver sets, and the log run's report."""
    rng = random.Random(0xC0FFEE)
    out = []
    for n in GRID_NS:
        poly = random_primitive_poly(n, rng)
        ctx = make_context(poly)
        engine = build_engine(ctx)
        cells = {}
        for w, D in GRID_PAIRS:
            brute = frozenset(
                r.poly.exponents for r in brute_force_multiples(ctx, w, D)
            )
            classical = tmto_find_all(
                ctx, SearchParams.balanced(w, D, "classical")
            ).exponent_sets()
            log_run = logtmto_find_all(
                ctx, engine, SearchParams.balanced(w, D, "logarithmic")
            )
            cells[w, D] = (
                brute, classical, log_run.exponent_sets(), log_run.report
            )
        out.append((n, poly, cells))
    return out


@pytest.mark.slow
def test_c01_oracle_equivalence(grid_results):
    assert len(grid_results) >= 20
    checked = 0
    total = 0
    for n, poly, cells in grid_results:
        for (w, D), (brute, classical, logspace, _) in cells.items():
            assert classical == brute, (n, str(poly), w, D, "classical")
            assert logspace == brute, (n, str(poly), w, D, "logarithmic")
            checked += 1
            total += len(brute)
    _ok(
        1,
        f"{len(grid_results)} fields x {len(GRID_PAIRS)} (w,D) cells, "
        f"{checked} three-way set equalities, {total} multiples",
    )


def test_c02_worked_micro_instances():
    f8 = make_context(parse_poly("3,1,0"))
    f16 = make_context(parse_poly("4,1,0"))
    want8 = {(0, 1, 3), (0, 2, 6), (0, 4, 5)}
    want16 = {
        (0, 1, 4), (0, 2, 8), (0, 3, 14), (0, 5, 10),
        (0, 6, 13), (0, 7, 9), (0, 11, 12),
    }
    got8 = tmto_find_all(f8, SearchParams.balanced(3, 7, "classical"))
    got16 = tmto_find_all(f16, SearchParams.balanced(3, 15, "classical"))
    assert got8.exponent_sets() == want8
    assert got16.exponent_sets() == want16
    eng8 = build_engine(f8)
    eng16 = build_engine(f16)
    assert logtmto_find_all(
        f8, eng8, SearchParams.balanced(3, 7, "logarithmic")
    ).exponent_sets() == want8
    assert logtmto_find_all(
        f16, eng16, SearchParams.balanced(3, 15, "logarithmic")
    ).exponent_sets() == want16
    _ok(2, "x^3+x+1 w=3 D=7 -> 3 multiples; x^4+x+1 w=3 D=15 -> 7 multiples")


ROUNDTRIP_EXHAUSTIVE = ("3,1,0", "4,1,0", "8,4,3,2,0", "12,6,4,1,0", "16,5,3,2,0")
ROUNDTRIP_SAMPLED = ("20,3,0", "24,7,2,1,0")


def test_c03_discrete_log_round_trip():
    checked = 0
    for spec in ROUNDTRIP_EXHAUSTIVE:
        ctx = make_context(parse_poly(spec))
        engine = build_engine(ctx)
        for k in range(ctx.order):
            assert engine.discrete_log(ctx.monomial_residue(k)) == k
        checked += ctx.order
    rng = random.Random(3)
    for spec in ROUNDTRIP_SAMPLED:
        ctx = make_context(parse_poly(spec))
        engine = build_engine(ctx)
        for _ in range(10_000):
            a = rng.randrange(1, 1 << ctx.n)
            assert ctx.monomial_residue(engine.discrete_log(a)) == a
        checked += 10_000
    # answers must not depend on the tabulation strategy
    ctx = make_context(parse_poly("14,12,11,1,0"))
    full = build_engine(ctx, 10**7)
    bsgs_only = build_engine(ctx, 1)
    assert {s for _, _, s, _ in full.strategy_summary()} == {"table"}
    assert {s for _, _, s, _ in bsgs_only.strategy_summary()} == {"bsgs"}
    for k in range(ctx.order):
        a = ctx.monomial_residue(k)
        la = full.discrete_log(a)
        assert la == k
        assert bsgs_only.discrete_log(a) == la
    checked += ctx.order
    _ok(3, f"{checked} round trips (exhaustive n<=16, 10^4 sampled n=20,24, "
           "strategy-invariant n=14)")


ZECH_FIELDS = ("3,1,0", "5,2,0", "8,4,3,2,0", "11,2,0", "13,4,3,1,0", "16,5,3,2,0")


def test_c04_zech_identity_suite():
    checked = 0
    for spec in ZECH_FIELDS:
        ctx = make_context(parse_poly(spec))
        engine = build_engine(ctx)
        M = ctx.order
        zech = {i: engine.zech_log(i) for i in range(1, M)}
        for i, z in zech.items():
            assert zech[z] == i  # Z(Z(i)) = i
            assert zech[2 * i % M] == 2 * z % M  # Frobenius doubling
            assert zech[M - i] == (z - i) % M  # reflection
        checked += 3 * (M - 1)
    _ok(4, f"{checked} identity instances across n in (3,5,8,11,13,16)")


def test_c05_estimator_calibration():
    n, w, D = 14, 3, 1024
    expected = estimate_count(n, w, D)
    assert expected >= 20
    rng = random.Random(55)
    ratios = []
    for _ in range(50):
        ctx = make_context(random_primitive_poly(n, rng))
        found = tmto_find_all(
            ctx, SearchParams.balanced(w, D, "classical")
        ).report.found
        ratios.append(found / expected)
    mean = statistics.fmean(ratios)
    assert 0.7 <= mean <= 1.4, mean
    _ok(5, f"50 fields at n={n} w={w} D={D}: mean observed/estimated = {mean:.3f}")


@pytest.mark.slow
def test_c06_proposition_restriction(grid_results):
    # where the bound is proven (w <= 5, D below the group order) phase 2
    # probes exactly the q2-tuples of degree <= ceil(D*q2/(w-1)), those
    # that reduce to zero included, in the run's own search and (at
    # w = 5) in the weight-3 search it takes the lower weights from.
    # Record-set equality is c01's check.
    cells = saved = 0
    for n, poly, per in grid_results:
        for (w, D), (_, _, _, rep) in per.items():
            if w > 5 or D >= (1 << n) - 1:
                continue
            q2s = {v: SearchParams.balanced(v, D, "logarithmic").q2
                   for v in range(w, 2, -2)}
            probes = rep.probes
            assert probes == sum(
                comb(second_phase_bound(D, v, q2), q2)
                for v, q2 in q2s.items()), (n, str(poly), w, D)
            cells += 1
            saved += sum(comb(D, q2) for q2 in q2s.values()) - probes
    assert cells > 0
    _ok(6, f"phase 2 took the bounded probe count on all {cells} grid cells "
           f"with w <= 5 below the group order ({saved} probes saved)")


def test_c07_full_tabulation_memory_model():
    ctx = make_context(parse_poly(P53))
    assert [p for p, _ in ctx.factorization] == [6361, 69431, 20394401]
    predicted = predict_table_bytes(ctx, 2**25)
    low, high = 0.8 * 439e6, 1.2 * 439e6
    assert low <= predicted <= high, predicted
    _ok(7, f"predicted {predicted / 1e6:.1f} MB for n=53 full tabulation "
           f"(band [{low / 1e6:.0f}, {high / 1e6:.0f}] MB)")


@pytest.mark.slow
def test_c08_scaling_shape():
    ctx = make_context(parse_poly("30,6,4,1,0"))
    engine = build_engine(ctx)  # every prime tabulated
    assert {s for _, _, s, _ in engine.strategy_summary()} == {"table"}
    D = 8192

    def run(algorithm, degree, reps=1):
        t0 = time.perf_counter()
        for _ in range(reps):
            if algorithm == "log":
                logtmto_find_all(
                    ctx, engine, SearchParams.balanced(4, degree, "logarithmic")
                )
            else:
                tmto_find_all(ctx, SearchParams.balanced(4, degree, "classical"))
        return time.perf_counter() - t0

    # each route is timed over enough calls that its block at D lasts
    # about 2 s, from one timed call, to stay inside the timing window on
    # a loaded or a fast host
    reps = {alg: max(1, round(2.0 / run(alg, D))) for alg in ("log", "tmto")}

    best = {}
    for attempt in range(3):
        for key in (("log", D), ("log", 2 * D), ("tmto", D), ("tmto", 2 * D)):
            t = run(*key, reps[key[0]])
            best[key] = min(t, best.get(key, t))
        log_ratio = best["log", 2 * D] / best["log", D]
        tmto_ratio = best["tmto", 2 * D] / best["tmto", D]
        in_window = all(1.0 <= best[k] <= 30.0 for k in best)
        if in_window and log_ratio <= 3.0 and tmto_ratio >= 3.0:
            break
    assert all(1.0 <= best[k] <= 30.0 for k in best), best
    assert log_ratio <= 3.0, (log_ratio, best)
    assert tmto_ratio >= 3.0, (tmto_ratio, best)
    _ok(8, f"n=30 w=4 at D={D}: log-route time ({reps['log']} calls) "
           f"x{log_ratio:.2f} for 2D (near-linear), classical "
           f"({reps['tmto']} calls) x{tmto_ratio:.2f} (near-quadratic); "
           f"times {', '.join(f'{best[k]:.1f}s' for k in sorted(best))}")


@pytest.mark.slow
def test_c09_sampling_hit_rate():
    ctx = make_context(parse_poly("24,7,2,1,0"))
    engine = build_engine(ctx)
    D = 2**10
    res = random_log_sample(
        engine,
        SampleParams(w=5, D=D, B=35, seed=424242, max_iterations=2_000_000),
    )
    assert res.found >= 30
    mean = res.iterations / res.found
    target = 2**24 / D
    assert 0.7 * target <= mean <= 1.3 * target, mean
    for rec in res.records:
        assert verify_multiple(rec.poly, ctx, 5, D)
    _ok(9, f"n=24 D=2^10: {res.found} multiples, mean {mean:.0f} draws/hit "
           f"(target {target:.0f} +-30%)")


@pytest.fixture(scope="module")
def degree31_engine():
    ctx = make_context(parse_poly("31,3,0"))
    # the group order is prime, so subgroup tabulation is out of reach;
    # an oversized baby-step table keeps each log to one blocked pass
    # of at most 256 giant steps
    return build_engine(ctx, bsgs_baby_entries=2**23)


@pytest.mark.slow
def test_c10_precompute_degree_experiment(degree31_engine):
    engine = degree31_engine
    w, D, iterations = 7, 2**12, 300
    tables = {K: build_log_table(engine, 2, K) for K in (2**7, 2**9)}
    wins = 0
    outcomes = []
    for seed in range(10):
        found = {}
        for K, table in tables.items():
            res = birthday_logtmto(
                engine,
                SampleParams(
                    w=w, D=D, B=10**9, q1=2, K=K, seed=seed,
                    max_iterations=iterations,
                ),
                table=table,
            )
            assert res.iterations == iterations
            found[K] = res.found
        outcomes.append((found[2**9], found[2**7]))
        if found[2**9] > found[2**7]:
            wins += 1
    assert wins >= 8, outcomes
    _ok(10, f"n=31 w=7 D=2^12, {iterations} iterations: K=2^9 beat K=2^7 in "
            f"{wins}/10 seed pairs {outcomes}")


def test_c11_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "lowmult.cli", "find-some",
        "--poly", "16,5,3,2,0", "--weight", "4", "--max-degree", "200",
        "--count", "5", "--seed", "11", "--method", "birthday-log",
    ]
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and len(a.stdout) > 0
    _ok(11, "fixed-seed CLI streams byte-identical")
