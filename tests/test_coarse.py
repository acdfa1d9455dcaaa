import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegroups.coarse import (
    BoundedByMetric,
    BoundedSetReport,
    bounded_set_check,
    closeness_probe,
    coarse_map_probe,
    controlled_probe,
    right_shadow,
    theta_image,
    translate,
)
from coarsegroups.groups import GroupSpec
from coarsegroups.metrics import (
    HORIZON,
    MaxEntryMetric,
    MetricEvaluator,
    WordMetric,
    ladder_prefixes,
)

from oracles import cube, heis_max_entry_norm

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
H = GroupSpec.heisenberg()
C7 = GroupSpec.cyclic(7)

triples = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
heis_pairs = st.tuples(triples, triples)
heis_entourages = st.lists(heis_pairs, min_size=1, max_size=12).map(frozenset)


class TestShadows:
    def test_left_shadow_formula(self):
        assert H.left_shadow([((7, 0, 1), (8, 1, 1))]) == {(1, 1, -7)}

    def test_right_shadow_formula(self):
        e = [((7, 0, 1), (8, 1, 1))]
        assert right_shadow(H, e) == frozenset([H.mul((7, 0, 1), H.inv((8, 1, 1)))])

    @given(heis_entourages)
    @settings(max_examples=200)
    def test_left_shadow_equals_right_shadow_of_theta(self, e):
        assert H.left_shadow(e) == right_shadow(H, theta_image(H, e))

    @given(heis_entourages)
    @settings(max_examples=100)
    def test_theta_involution(self, e):
        assert theta_image(H, theta_image(H, e)) == e

    @given(heis_entourages, triples)
    @settings(max_examples=200)
    def test_left_shadow_translation_invariant(self, e, g):
        assert H.left_shadow(translate(H, g, e)) == H.left_shadow(e)

    @given(st.lists(heis_pairs, min_size=1, max_size=12), triples)
    @settings(max_examples=100)
    def test_helpers_drop_repeated_pairs(self, pairs, g):
        # Any collection of pairs will do; each helper returns a frozenset
        # in which a repeated pair, or its image, counts once.
        doubled = pairs + pairs[::-1]
        for helper in (
            functools.partial(right_shadow, H),
            functools.partial(theta_image, H),
            functools.partial(translate, H, g),
        ):
            out = helper(doubled)
            assert type(out) is frozenset
            assert out == helper(frozenset(pairs)) == helper(iter(pairs))
        assert len(theta_image(H, doubled)) == len(translate(H, g, doubled)) == len(set(pairs))

    def test_right_shadow_not_translation_invariant(self):
        e = [((1, 0, 0), (0, 1, 0))]
        g = (0, 1, 0)
        assert right_shadow(H, translate(H, g, e)) != right_shadow(H, e)


def shadow_pairs(spec, ladder) -> list:
    """Each collection of `ladder` as the pairs (e, s), s in its left shadow
    {x^-1 y}: under a metric's bounded structure their value is the largest
    d(e, x^-1 y), the left bornological reading of the collection."""
    e = spec.identity()
    return [[(e, s) for s in spec.left_shadow(pairs)] for pairs in ladder]


def near_diagonal(n):
    """Max-entry-close pairs (a_k, b_k), k = 1..n, whose left shadows grow."""
    return [((k, 0, 1), (k + 1, 1, 1)) for k in range(1, n + 1)]


class TestControlledProbe:
    def test_bounded_family_under_word_metric(self):
        def shift_by_2(n):
            return [((i,), (i + 2,)) for i in range(-n, n)]

        verdict = controlled_probe(shift_by_2, BoundedByMetric(WordMetric(Z)), horizon=6)
        assert verdict.trend == "bounded"
        assert all(v == 2 for v in verdict.per_index)

    def test_growing_family(self):
        def fam(n):
            return [((0,), (n,))]

        verdict = controlled_probe(fam, BoundedByMetric(WordMetric(Z)), horizon=5)
        assert verdict.trend == "growing"

    def test_near_diagonal_heisenberg_left_shadow_grows(self):
        # a_k^-1 b_k = (1, 1, -k), at max-entry norm k.  The max-entry metric
        # is not left-invariant, so the shadow pairs read apart from the pairs.
        structure = BoundedByMetric(MaxEntryMetric(H))
        metric_verdict = controlled_probe(near_diagonal, structure, horizon=6)
        shadow_verdict = controlled_probe(
            lambda n: shadow_pairs(H, [near_diagonal(n)])[0], structure, horizon=6
        )
        assert (metric_verdict.per_index, metric_verdict.trend) == ([1] * 6, "bounded")
        assert (shadow_verdict.per_index, shadow_verdict.trend) == ([1, 2, 3, 4, 5, 6], "growing")


class TestShadowPairs:
    """A metric's values over the pairs (e, s), s in a left shadow."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(triples, max_size=6))
    def test_max_entry_value_is_the_norm(self, S):
        e = H.identity()
        values = BoundedByMetric(MaxEntryMetric(H)).values([[(e, s) for s in S]])
        assert values == [max(map(heis_max_entry_norm, S), default=0)]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_left_invariant_metric_reads_the_same(self, data):
        # d(x, y) = d(e, x^-1 y) for a left-invariant metric: the shadow
        # pairs and the pairs themselves read alike.
        structure = BoundedByMetric(WordMetric(H))
        ladder = data.draw(st.lists(st.lists(heis_pairs, max_size=6), max_size=6))
        assert structure.values(shadow_pairs(H, ladder)) == structure.values(ladder)


def one_at_a_time(structure, ladder) -> list:
    """The values of `ladder` observed one entourage at a time, each a
    frozenset, which drops repeated pairs."""
    out = []
    for e in map(frozenset, ladder):
        row = [structure.metric.eval(x, y) for x, y in e]
        out.append(HORIZON if HORIZON in row else max(row, default=0))
    return out


def halve(g):
    """A map of Z that is not injective: 2k and 2k + 1 go to k."""
    return (g[0] // 2,)


# Each collection reads a different value, so a row cut one place off
# moves some value to its neighbour: an empty one (0 under a metric), a
# pair past the word metric's cap of 10 (HORIZON), multi-pair ones, and
# the images of pairs under `halve`, with repeats.
Z_LADDER = [
    [((0,), (5,))],
    [],
    [((0,), (1,)), ((2,), (9,)), ((1,), (1,))],
    [((0,), (50,)), ((0,), (1,))],
    [((3,), (4,))],
    [],
    [(halve((x,)), halve((x + 3,))) for x in range(-6, 6)],
    [((-4,), (4,)), ((4,), (-4,)), ((-4,), (4,))],
]


class TestLadderValues:
    """A structure's `values` over a whole ladder equals its values one
    entourage at a time."""

    STRUCTURES = {
        "word": lambda: BoundedByMetric(WordMetric(Z, radius_cap=10)),
    }

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_fixed_ladder(self, name):
        structure = self.STRUCTURES[name]()
        values = structure.values(Z_LADDER)
        assert values == one_at_a_time(structure, Z_LADDER)
        assert structure.values([]) == []
        assert values == [5, 0, 7, HORIZON, 1, 0, 2, 8]

    # Rungs of at least one pair leave a metric's row to the C-level rung
    # maxima unless a pair lies past the word metric's cap of 10.
    @pytest.mark.parametrize(
        "name, min_pairs",
        [
            pytest.param(name, min_pairs, id=name + "-nonempty" * min_pairs)
            for name in [*STRUCTURES, "H-maxentry"]
            for min_pairs in (0, 1)
        ],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_ladders(self, name, min_pairs, data):
        if name == "H-maxentry":
            structure, points = BoundedByMetric(MaxEntryMetric(H)), triples
        else:
            structure = self.STRUCTURES[name]()
            points = st.tuples(st.integers(-8, 8))
        pairs = st.lists(st.tuples(points, points), min_size=min_pairs, max_size=6)
        ladder = data.draw(st.lists(pairs, max_size=6))
        assert structure.values(ladder) == one_at_a_time(structure, ladder)


def map_probe(*args, **kwargs):
    """`coarse_map_probe`, checking that each flag reads "no witness of its kind"."""
    report = coarse_map_probe(*args, **kwargs)
    kinds = [kind for kind, *_ in report.witnesses]
    assert report.bornologous_ok == ("bornologous" not in kinds)
    assert report.proper_ok == ("proper" not in kinds)
    return report


def counting_family(calls: list, generator):
    """A family that appends each index it is asked for to `calls`."""

    def counted(n):
        calls.append(n)
        return generator(n)

    return counted


class TestProbeIndices:
    """A probe draws each family at exactly the indices 1..horizon, in order."""

    @pytest.mark.parametrize("horizon", [1, 2, 6])
    def test_controlled_probe(self, horizon):
        calls = []
        fam = counting_family(calls, lambda n: [((0,), (n,))])
        verdict = controlled_probe(fam, BoundedByMetric(WordMetric(Z)), horizon)
        assert calls == list(range(1, horizon + 1))
        # d(0, n) = n: position n - 1 holds index n's value.
        assert verdict.per_index == calls

    @pytest.mark.parametrize("horizon", [2, 5])
    def test_coarse_map_probe(self, horizon):
        # Each family is drawn once: the bounded one's entourages are probed
        # in the domain and mapped for the image, the growing one is dropped.
        bounded_calls, growing_calls = [], []
        bounded = counting_family(bounded_calls, lambda n: [((n,), (n + 1,))])
        growing = counting_family(growing_calls, lambda n: [((0,), (n,))])
        structure = BoundedByMetric(WordMetric(Z))
        report = map_probe(
            lambda g: g,
            domain=structure,
            codomain=structure,
            families=[bounded, growing],
            bounded_samples=[],
            domain_truncation=[],
            horizon=horizon,
        )
        assert report.bornologous_ok
        assert bounded_calls == list(range(1, horizon + 1))
        assert growing_calls == list(range(1, horizon + 1))


class TestEmptyEvidence:
    """A probe with nothing to observe raises instead of reading `bounded`;
    the structure itself still reads an empty collection as 0
    (`TestLadderValues`).  One pair per rung is the positive control."""

    STRUCTURES = {
        "word": (lambda: BoundedByMetric(WordMetric(Z)), 1),
    }

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_controlled_probe(self, name):
        structure, value = self.STRUCTURES[name]
        for family in (lambda n: [], lambda n: [] if n == 3 else [((0,), (1,))]):
            with pytest.raises(ValueError, match="^a family rung holds no pairs$"):
                controlled_probe(family, structure(), 5)
        # d(0, 1) = 1.
        verdict = controlled_probe(lambda n: [((0,), (1,))], structure(), 5)
        assert verdict.per_index == [value] * 5 and verdict.trend == "bounded"

    def test_coarse_map_probe(self):
        structure = BoundedByMetric(WordMetric(Z))

        def probe(family):
            return map_probe(
                lambda g: g,
                domain=structure,
                codomain=structure,
                families=[family],
                bounded_samples=[{(0,)}],
                domain_truncation=[(0,)],
                horizon=5,
            )

        with pytest.raises(ValueError, match="^a family rung holds no pairs$"):
            probe(lambda n: [])
        report = probe(lambda n: [((0,), (1,))])
        assert report.bornologous_ok and report.proper_ok and report.witnesses == []

    def test_closeness_probe(self):
        structure = BoundedByMetric(WordMetric(Z))
        for truncation in ([], set()):
            with pytest.raises(ValueError, match="^truncation must be nonempty$"):
                closeness_probe(lambda g: g, lambda g: (g[0] + 1,), truncation, structure)
        verdict = closeness_probe(lambda g: g, lambda g: (g[0] + 1,), [(0,)], structure)
        assert verdict.per_index == [1]


def bounded_set_oracle(B, m):
    """(diam, radii) over all ordered pairs by `eval`; (HORIZON, {}) on any HORIZON."""
    B = set(B)
    table = {(x, y): m.eval(x, y) for x in B for y in B}
    if HORIZON in table.values():
        return HORIZON, {}
    radii = {x: max(table[b, x] for b in B) for x in B}
    return max(table.values()), radii


class CountingMetric(MetricEvaluator):
    """A metric that counts its `eval` calls; rows come from the base body."""

    def __init__(self, base: MetricEvaluator):
        super().__init__(base.spec)
        self.base = base
        self.evals = 0

    def eval(self, g, h):
        self.evals += 1
        return self.base.eval(g, h)


ORACLE_METRICS = {
    "Z": (WordMetric(Z, radius_cap=6), Z.ball(5)),
    "Z2": (WordMetric(Z2, radius_cap=5), Z2.ball(4)),
    "H": (WordMetric(H, radius_cap=4), H.ball(3)),
    "H-maxentry": (MaxEntryMetric(H), cube(2, 3)),
    "Z/7": (WordMetric(C7, radius_cap=2), C7.ball(3)),
}


class TestBoundedSetCheck:
    @pytest.mark.parametrize("name", ORACLE_METRICS)
    def test_matches_the_all_pairs_oracle(self, name):
        m, pool = ORACLE_METRICS[name]
        rng = random.Random(name)
        horizons = 0
        for _ in range(60):
            B = rng.sample(pool, rng.randint(1, min(9, len(pool))))
            report = bounded_set_check(B, m)
            diam, radii = bounded_set_oracle(B, m)
            assert (report.diam, report.radii) == (diam, radii)
            assert (report.diam is HORIZON) == (diam is HORIZON)
            two_sided = diam is not HORIZON and all(r <= diam <= 2 * r for r in radii.values())
            assert report.two_sided_ok == two_sided
            horizons += report.diam is HORIZON
        # Each word metric's radius cap puts some sets past the horizon and
        # leaves others inside it; the max-entry metric has no cap.
        assert 0 < horizons < 60 if name != "H-maxentry" else horizons == 0

    def test_only_horizon_pair_last(self):
        # Sorted, the far pair (1,-2), (1,2) is the last pair of distinct
        # points; every other pair is within the cap of 3.
        m = WordMetric(Z2, radius_cap=3)
        B = [(1, 2), (0, 0), (1, -2)]
        assert bounded_set_oracle(B, m) == (HORIZON, {})
        report = bounded_set_check(B, m)
        assert report.diam is HORIZON and report.radii == {}
        assert not report.two_sided_ok
        assert bounded_set_check(B[1:], m).diam is not HORIZON

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_one_row_per_point(self, n):
        m = CountingMetric(WordMetric(Z))
        report = bounded_set_check([(i,) for i in range(n)], m)
        assert m.evals == n * n
        assert report.diam == n - 1

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
        assert report.diam is HORIZON
        assert not report.two_sided_ok

    def test_two_sided_is_read_off_the_evidence(self):
        # At HORIZON there are no radii, so only the diameter can say the
        # check failed; finite radii within the bounds are the control.
        assert not BoundedSetReport(HORIZON, {}).two_sided_ok
        assert BoundedSetReport(2, {(0,): 1, (1,): 2}).two_sided_ok
        assert not BoundedSetReport(3, {(0,): 1}).two_sided_ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounded_set_check([], WordMetric(Z))


class TestMapProbes:
    def test_identity_map_is_coarse(self):
        def fam(n):
            return [((i,), (i + 1,)) for i in range(-n, n)]

        structure = BoundedByMetric(WordMetric(Z))
        report = map_probe(
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
        def fam(n):
            return [((i,), (i + 1,)) for i in range(-n, n)]

        structure = BoundedByMetric(WordMetric(Z))
        report = map_probe(
            lambda g: (2 * g[0],),
            domain=structure,
            codomain=structure,
            families=[fam],
            bounded_samples=[frozenset(Z.ball(3))],
            domain_truncation=Z.ball(20),
            horizon=4,
        )
        assert report.bornologous_ok and report.proper_ok

    def test_no_family_checked_is_not_bornologous(self):
        # The one family grows in the domain, so it is skipped and nothing
        # is checked: that is a verdict of its own, not a pass. The bounded
        # family next to it is the positive control.
        def growing(n):
            return [((0,), (n,))]

        def bounded(n):
            return [((n,), (n + 1,))]

        structure = BoundedByMetric(WordMetric(Z))

        def probe(families):
            return map_probe(
                lambda g: g,
                domain=structure,
                codomain=structure,
                families=families,
                bounded_samples=[{(0,)}],
                domain_truncation=[(0,)],
                horizon=4,
            )

        report = probe([growing])
        assert not report.bornologous_ok
        assert report.witnesses == [("bornologous", "no family checked", 1)]
        report = probe([growing, bounded])
        assert report.bornologous_ok and report.witnesses == []

    def test_no_sample_checked_is_not_proper(self):
        # No sample has a preimage in the truncation, or there is no sample:
        # nothing is checked, which is a verdict of its own, not a pass. A
        # sample with a preimage next to them is the positive control.
        structure = BoundedByMetric(WordMetric(Z))

        def probe(samples):
            return map_probe(
                lambda g: g,
                domain=structure,
                codomain=structure,
                families=[lambda n: [((0,), (1,))]],
                bounded_samples=samples,
                domain_truncation=[(i,) for i in range(-5, 6)],
                horizon=6,
            )

        for samples in ([frozenset([(1000,)])], []):
            report = probe(samples)
            assert report.bornologous_ok and not report.proper_ok
            assert report.witnesses == [("proper", "no sample checked", len(samples))]
        report = probe([frozenset([(1000,)]), frozenset([(0,)])])
        assert report.bornologous_ok and report.proper_ok and report.witnesses == []

    def test_squaring_is_not_bornologous(self):
        # Adjacent pairs (n, n + 1) map to (n^2, (n + 1)^2), at distance
        # 2n + 1: bounded in the domain, growing in the image, so the family
        # is its own witness.  The identity is the positive control.
        def adjacent(n):
            return [((n,), (n + 1,))]

        structure = BoundedByMetric(WordMetric(Z, radius_cap=10**4))

        def probe(f):
            return map_probe(
                f,
                domain=structure,
                codomain=structure,
                families=[adjacent],
                bounded_samples=[{(0,)}],
                domain_truncation=[(0,)],
                horizon=6,
            )

        report = probe(lambda g: (g[0] ** 2,))
        assert not report.bornologous_ok
        [(kind, family, verdict)] = report.witnesses
        assert (kind, family) == ("bornologous", adjacent)
        assert verdict.per_index == [3, 5, 7, 9, 11, 13]
        assert verdict.trend == "growing"
        identity = probe(lambda g: g)
        assert identity.bornologous_ok and identity.witnesses == []

    def test_collapse_map_fails_properness(self):
        # The collapse pulls {0} back to all of [-30, 30], 60 apart, past the
        # cap of 8.  The identity pulls it back to {0}: the positive control.
        def fam(n):
            return [((0,), (1,))]

        capped = BoundedByMetric(WordMetric(Z, radius_cap=8))

        def probe(f):
            return map_probe(
                f,
                domain=capped,
                codomain=capped,
                families=[fam],
                bounded_samples=[frozenset([(0,)])],
                domain_truncation=Z.ball(30),
                horizon=4,
            )

        collapse = probe(lambda g: (0,))
        assert not collapse.proper_ok
        assert [kind for kind, *_ in collapse.witnesses] == ["proper"]
        identity = probe(lambda g: g)
        assert identity.proper_ok and identity.bornologous_ok
        assert identity.witnesses == []

    def test_proper_check_maps_each_truncation_point_once(self):
        # Three samples, one with no preimage, over a truncation given with
        # repeats: f runs once per distinct point, not once per sample.
        calls = []
        truncation = Z.ball(20)

        def f(g):
            calls.append(g)
            return halve(g)

        report = map_probe(
            f,
            domain=BoundedByMetric(WordMetric(Z, radius_cap=8)),
            codomain=BoundedByMetric(WordMetric(Z)),
            families=[],
            bounded_samples=[{(0,)}, {(100,)}, set(Z.ball(3))],
            domain_truncation=truncation + truncation[:5],
            horizon=4,
        )
        assert sorted(calls) == truncation
        # The preimage of B_3 is [-6, 7], 13 apart, past the cap of 8; that
        # of {0} is [0, 1].
        assert not report.proper_ok
        assert report.witnesses[1:] == [("proper", Z.ball(3), [(i,) for i in range(-6, 8)])]

    @pytest.mark.parametrize("name", ["identity", "halve", "mod-3"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_proper_witnesses_match_a_truncation_scan(self, name, data):
        # Samples with several images, or with none, against a scan of the
        # whole truncation per sample; the cap of 6 makes wide preimages
        # overflow.
        f = {"identity": lambda g: g, "halve": halve, "mod-3": lambda g: (g[0] % 3,)}[name]
        truncation = data.draw(st.lists(st.tuples(st.integers(-12, 12)), max_size=20))
        samples = data.draw(st.lists(st.frozensets(st.tuples(st.integers(-6, 6)), max_size=4)))
        report = map_probe(
            f,
            domain=BoundedByMetric(WordMetric(Z, radius_cap=6)),
            codomain=BoundedByMetric(WordMetric(Z)),
            families=[],
            bounded_samples=samples,
            domain_truncation=truncation,
            horizon=1,
        )
        expected = []
        found = 0
        for sample in samples:
            pre = [x for x in sorted(set(truncation)) if f(x) in sample]
            found += bool(pre)
            if pre and pre[-1][0] - pre[0][0] > 6:
                expected.append(("proper", sorted(sample), pre))
        if not found:
            expected.append(("proper", "no sample checked", len(samples)))
        assert [w for w in report.witnesses if w[0] == "proper"] == expected

    def test_closeness_maps_each_point_once(self):
        calls, calls2 = [], []

        def f(g):
            calls.append(g)
            return halve(g)

        def f2(g):
            calls2.append(g)
            return g

        structure = BoundedByMetric(WordMetric(Z))
        verdict = closeness_probe(f, f2, Z.ball(15), structure)
        assert sorted(calls) == sorted(calls2) == Z.ball(15)
        prefixes = ladder_prefixes(set(Z.ball(15)))
        assert verdict.per_index == one_at_a_time(
            structure, [[(halve(m), m) for m in prefix] for prefix in prefixes]
        )
        assert verdict.per_index == [3, 5, 8]

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
