"""Acceptance gate: one timed pass/fail line per criterion.

Every criterion is exact (zero numeric tolerance) with a wall-clock budget;
a line is printed straight to the terminal even under output capture.
"""

import itertools
import random
import time
from contextlib import contextmanager, nullcontext

import pytest

from coarsegroups.bornology import (
    GeneratedBasis,
    GeometricSeed,
    MinimalBasis,
    member,
    metric_from_basis,
)
from coarsegroups.coarse import bounded_set_check, right_shadow, theta_image, translate
from coarsegroups.groups import GroupSpec
from coarsegroups.metrics import (
    HORIZON,
    Entry12Pseudometric,
    MaxEntryMetric,
    QuotientWordMetric,
    WordMetric,
    max_entry_distance,
    rho_plus_truncated,
)
from coarsegroups.reporting import report_to_json, report_to_tsv
from coarsegroups.scenarios import SCENARIOS, run_scenario

from oracles import bfs_distances, cayley_adjacency

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
C7 = GroupSpec.cyclic(7)
H = GroupSpec.heisenberg()

THREE_GROUPS = [Z, Z2, H]


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


@contextmanager
def criterion(name: str, budget: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < budget else "FAIL"
        # bypass output capture so one line per criterion reaches the terminal
        ctx = _CAPMAN.global_and_fixture_disabled() if _CAPMAN else nullcontext()
        with ctx:
            print(
                f"\nACCEPTANCE {status} {name} ({elapsed:.2f}s / budget {budget:g}s)",
                flush=True,
            )
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def random_element(rng, spec, span=8):
    if spec.kind == "heisenberg":
        return tuple(rng.randint(-span, span) for _ in range(3))
    return tuple(rng.randint(-span, span) for _ in range(spec.rank))


def random_entourage(rng, spec, max_pairs=10):
    return frozenset(
        (random_element(rng, spec), random_element(rng, spec))
        for _ in range(rng.randint(1, max_pairs))
    )


def metric_axiom_suite(metric, elements, pseudo):
    for x, y in itertools.product(elements, repeat=2):
        assert metric.eval(x, x) == 0
        d = metric.eval(x, y)
        assert d == metric.eval(y, x)
        assert d >= 0
        if not pseudo and x != y:
            assert d > 0
    for x, y, z in itertools.product(elements, repeat=3):
        assert metric.eval(x, z) <= metric.eval(x, y) + metric.eval(y, z)


def test_heisenberg_separation():
    with criterion("heisenberg-separation", 1.0):
        for n in range(1, 51):
            a, b = (n, 0, 1), (n + 1, 1, 1)
            assert max_entry_distance(a, b) == 1
            shadow = H.mul(H.inv(b), a)
            assert max(abs(c) for c in shadow) == n + 1


def test_heisenberg_pseudometric_invariance():
    with criterion("heisenberg-pseudometric-invariance", 10.0):
        rho = Entry12Pseudometric(H)
        ball = H.ball(4)
        e = H.identity()
        for a in ball:
            for b in ball:
                assert rho.eval(e, H.mul(H.inv(a), b)) == abs(a[0] - b[0])


def test_shadow_theta_identity():
    with criterion("shadow-theta-identity", 10.0):
        rng = random.Random(101)
        for spec in THREE_GROUPS:
            for _ in range(10_000):
                e = random_entourage(rng, spec)
                assert spec.left_shadow(e) == right_shadow(spec, theta_image(spec, e))


def test_shadow_translation_invariance():
    with criterion("shadow-translation-invariance", 10.0):
        rng = random.Random(202)
        for spec in THREE_GROUPS:
            shifts = spec.ball(3)
            for _ in range(40):
                e = random_entourage(rng, spec)
                base = spec.left_shadow(e)
                for g in shifts:
                    assert spec.left_shadow(translate(spec, g, e)) == base


def test_bounded_sets_two_sided():
    with criterion("bounded-set-two-sided-radii", 10.0):
        rng = random.Random(303)
        for spec in THREE_GROUPS + [C7]:
            metric = WordMetric(spec, radius_cap=64)
            pool = spec.ball(5)
            for _ in range(1000):
                B = rng.sample(pool, rng.randint(1, min(10, len(pool))))
                report = bounded_set_check(B, metric)
                assert report.diam is not HORIZON
                assert report.two_sided_ok


def test_quotient_diameters():
    with criterion("quotient-truncation-diameters", 5.0):
        for k in (2, 3, 5, 10):
            qm = QuotientWordMetric(k)
            for R in (k, k + 1, 2 * k, 25):
                word = WordMetric(Z, radius_cap=4 * R)
                truncation = [(i,) for i in range(-R, R + 1)]
                assert qm.diameter(truncation) == k // 2
                assert word.diameter(truncation) == 2 * R


def test_word_distance_against_explicit_graphs():
    with criterion("word-distance-graph-oracle", 60.0):
        for spec in (Z, Z2, C7, H):
            inner = spec.ball(6)
            outer = set(spec.ball(12))
            adjacency = cayley_adjacency(spec, outer)
            norm_oracle = bfs_distances(adjacency, spec.identity())
            metric = WordMetric(spec, radius_cap=16)
            # all pairs via the norm table on the explicit graph
            for x in inner:
                inv_x = spec.inv(x)
                for y in inner:
                    assert metric.eval(x, y) == norm_oracle[spec.mul(inv_x, y)]
            # independent multi-source runs straight from graph nodes
            for x in spec.ball(3):
                from_x = bfs_distances(adjacency, x)
                for y in inner:
                    assert metric.eval(x, y) == from_x[y]
        for spec, metric, pseudo in (
            (Z, WordMetric(Z), False),
            (Z2, WordMetric(Z2), False),
            (C7, WordMetric(C7), False),
            (H, WordMetric(H), False),
            (H, MaxEntryMetric(H), False),
            (H, Entry12Pseudometric(H), True),
            (Z, QuotientWordMetric(7), True),
        ):
            ball = spec.ball(3)
            sample = ball if len(ball) <= 30 else ball[:: len(ball) // 25]
            metric_axiom_suite(metric, sample, pseudo)


def test_metric_from_basis_matches_word_metric():
    with criterion("metric-from-basis-agreement", 30.0):
        basis = MinimalBasis(Z)
        chain = metric_from_basis(basis, n_cap=20)
        word = WordMetric(Z, radius_cap=256)
        window = [(i,) for i in range(-6, 7)]
        metric_axiom_suite(chain, window, pseudo=False)
        rng = random.Random(404)
        universe = [(i,) for i in range(-50, 51)]
        for _ in range(1000):
            subset = rng.sample(universe, rng.randint(1, 12))
            chain_finite = chain.diameter(subset) is not HORIZON
            word_finite = word.diameter(subset) is not HORIZON
            assert chain_finite == word_finite


def test_rho_plus_properties():
    with criterion("rho-plus-properties", 10.0):
        word = WordMetric(Z)
        truncation = Z.ball(4)
        for x in Z.ball(4):
            for y in Z.ball(4):
                assert rho_plus_truncated(word, x, y, truncation) == word.eval(x, y)

        m = MaxEntryMetric(H)
        rng = random.Random(505)
        pool = H.ball(3)
        for _ in range(1000):
            x, y = rng.choice(pool), rng.choice(pool)
            small = set(rng.sample(pool, 8)) | {H.identity()}
            large = small | set(rng.sample(pool, 16))
            assert rho_plus_truncated(m, x, y, small) <= rho_plus_truncated(
                m, x, y, large
            )

        a1, b1 = (1, 0, 1), (2, 1, 1)
        base = m.eval(a1, b1)
        with_witness = set(H.ball(2)) | {H.inv(b1)}
        assert rho_plus_truncated(m, a1, b1, with_witness) > base


def test_powers_of_ten_membership():
    with criterion("powers-of-ten-membership", 30.0):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 6)])
        verdict = member(basis, frozenset([(0,), (10,), (100,)]), 1)
        assert verdict.status == "member"
        evens = frozenset((i,) for i in range(0, 51, 2))
        for depth in (1, 2, 3):
            assert member(basis, evens, depth).status == "not-covered-at-depth"


def test_default_scenarios_deterministic():
    with criterion("scenario-byte-determinism", 120.0):
        for name in sorted(SCENARIOS):
            first = run_scenario(name)
            second = run_scenario(name)
            assert report_to_json(first) == report_to_json(second)
            assert report_to_tsv(first) == report_to_tsv(second)
            assert first.all_passed
