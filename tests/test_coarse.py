import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegroups.bornology import MetricBallsBasis, MinimalBasis
from coarsegroups.coarse import (
    BoundedByMetric,
    Entourage,
    EntourageFamily,
    LeftBornological,
    bounded_set_check,
    closeness_probe,
    coarse_map_probe,
    controlled_probe,
    left_shadow,
    right_shadow,
    theta_image,
    translate,
)
from coarsegroups.groups import GroupSpec
from coarsegroups.metrics import MaxEntryMetric, WordMetric, is_horizon

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
H = GroupSpec.heisenberg()

triples = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
heis_pairs = st.tuples(triples, triples)
heis_entourages = st.builds(
    Entourage.of, st.lists(heis_pairs, min_size=1, max_size=12)
)


class TestShadows:
    def test_left_shadow_formula(self):
        e = Entourage.of([((7, 0, 1), (8, 1, 1))])
        assert left_shadow(H, e) == frozenset([(1, 1, -7)])

    def test_right_shadow_formula(self):
        e = Entourage.of([((7, 0, 1), (8, 1, 1))])
        assert right_shadow(H, e) == frozenset([H.mul((7, 0, 1), H.inv((8, 1, 1)))])

    @given(heis_entourages)
    @settings(max_examples=200)
    def test_left_shadow_equals_right_shadow_of_theta(self, e):
        assert left_shadow(H, e) == right_shadow(H, theta_image(H, e))

    @given(heis_entourages)
    @settings(max_examples=100)
    def test_theta_involution(self, e):
        assert theta_image(H, theta_image(H, e)).pairs == e.pairs

    @given(heis_entourages, triples)
    @settings(max_examples=200)
    def test_left_shadow_translation_invariant(self, e, g):
        assert left_shadow(H, translate(H, g, e)) == left_shadow(H, e)

    def test_right_shadow_not_translation_invariant(self):
        e = Entourage.of([((1, 0, 0), (0, 1, 0))])
        g = (0, 1, 0)
        assert right_shadow(H, translate(H, g, e)) != right_shadow(H, e)


class TestControlledProbe:
    def test_bounded_family_under_word_metric(self):
        fam = EntourageFamily(
            index_cap=10,
            generator=lambda n: Entourage.of(((i,), (i + 2,)) for i in range(-n, n)),
            name="shift-by-2",
        )
        verdict = controlled_probe(fam, BoundedByMetric(WordMetric(Z)), horizon=6)
        assert verdict.trend == "bounded"
        assert all(v == 2 for _, v in verdict.per_index)

    def test_growing_family(self):
        fam = EntourageFamily(
            index_cap=10,
            generator=lambda n: Entourage.of([((0,), (n,))]),
        )
        verdict = controlled_probe(fam, BoundedByMetric(WordMetric(Z)), horizon=5)
        assert verdict.trend == "growing"

    def test_near_diagonal_heisenberg_left_shadow_grows(self):
        # max-entry-close pairs whose left shadows need ever deeper covers
        fam = EntourageFamily(
            index_cap=12,
            generator=lambda n: Entourage.of(
                ((k, 0, 1), (k + 1, 1, 1)) for k in range(1, n + 1)
            ),
        )
        basis = MetricBallsBasis(MaxEntryMetric(H))
        metric_verdict = controlled_probe(
            fam, BoundedByMetric(MaxEntryMetric(H)), horizon=6
        )
        shadow_verdict = controlled_probe(
            fam, LeftBornological(basis, depth_cap=10), horizon=6
        )
        assert metric_verdict.trend == "bounded"
        assert shadow_verdict.trend == "growing"

    def test_index_cap_enforced(self):
        fam = EntourageFamily(index_cap=3, generator=lambda n: Entourage.of([((n,), (n,))]))
        with pytest.raises(ValueError):
            controlled_probe(fam, BoundedByMetric(WordMetric(Z)), horizon=5)
        with pytest.raises(IndexError):
            fam.at(4)


class TestBoundedSetCheck:
    def test_interval(self):
        report = bounded_set_check([(i,) for i in range(-3, 4)], WordMetric(Z))
        assert report.diam == 6
        assert report.two_sided_ok
        assert report.radii[(0,)] == 3
        assert report.radii[(3,)] == 6

    def test_random_sets(self):
        rng = random.Random(9)
        ball = Z2.ball(6)
        m = WordMetric(Z2)
        for _ in range(50):
            B = rng.sample(ball, rng.randint(1, 12))
            assert bounded_set_check(B, m).two_sided_ok

    def test_horizon(self):
        m = WordMetric(Z, radius_cap=3)
        report = bounded_set_check([(0,), (10,)], m)
        assert report.horizon_hit
        assert not report.two_sided_ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounded_set_check([], WordMetric(Z))


class TestMapProbes:
    def test_identity_map_is_coarse(self):
        fam = EntourageFamily(
            index_cap=6,
            generator=lambda n: Entourage.of(((i,), (i + 1,)) for i in range(-n, n)),
            name="adjacent",
        )
        structure = BoundedByMetric(WordMetric(Z))
        report = coarse_map_probe(
            lambda g: g,
            domain=structure,
            codomain=structure,
            families=[fam],
            bounded_samples=[frozenset(Z.ball(2))],
            domain_truncation=Z.ball(20),
            horizon=4,
        )
        assert report.bornologous_ok and report.proper_ok

    def test_doubling_is_bornologous_not_surjective_issue(self):
        fam = EntourageFamily(
            index_cap=6,
            generator=lambda n: Entourage.of(((i,), (i + 1,)) for i in range(-n, n)),
        )
        structure = BoundedByMetric(WordMetric(Z))
        report = coarse_map_probe(
            lambda g: (2 * g[0],),
            domain=structure,
            codomain=structure,
            families=[fam],
            bounded_samples=[frozenset(Z.ball(3))],
            domain_truncation=Z.ball(20),
            horizon=4,
        )
        assert report.bornologous_ok and report.proper_ok

    def test_collapse_map_fails_properness(self):
        fam = EntourageFamily(
            index_cap=6,
            generator=lambda n: Entourage.of([((0,), (1,))]),
        )
        capped = BoundedByMetric(WordMetric(Z, radius_cap=8))
        report = coarse_map_probe(
            lambda g: (0,),
            domain=capped,
            codomain=capped,
            families=[fam],
            bounded_samples=[frozenset([(0,)])],
            domain_truncation=Z.ball(30),
            horizon=4,
        )
        assert not report.proper_ok
        assert any(kind == "proper" for kind, *_ in report.witnesses)

    def test_closeness_of_close_maps(self):
        verdict = closeness_probe(
            lambda g: g,
            lambda g: (g[0] + 1,),
            Z.ball(15),
            BoundedByMetric(WordMetric(Z)),
        )
        assert verdict.trend == "bounded"

    def test_closeness_of_far_maps(self):
        verdict = closeness_probe(
            lambda g: g,
            lambda g: (2 * g[0],),
            Z.ball(15),
            BoundedByMetric(WordMetric(Z)),
        )
        assert verdict.trend == "growing"
