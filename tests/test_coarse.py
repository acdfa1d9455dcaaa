import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegroups.coarse import (
    BoundedSetReport,
    bounded_set_check,
    right_shadow,
    theta_image,
    translate,
    upper_control,
)
from coarsegroups.groups import GroupSpec
from coarsegroups.metrics import (
    HORIZON,
    MaxEntryMetric,
    MetricEvaluator,
    WordMetric,
    classify_trend,
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


def near_diagonal(n):
    """Max-entry-close pairs (a_k, b_k), k = 1..n, whose left shadows grow."""
    return [((k, 0, 1), (k + 1, 1, 1)) for k in range(1, n + 1)]


class TestShadowPairs:
    """A metric's distances from e to the elements s of a left shadow."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(triples, max_size=6))
    def test_max_entry_value_is_the_norm(self, S):
        # The shadow-norm row of `heisenberg_separation` is this distance.
        e = H.identity()
        assert MaxEntryMetric(H).distances(e, S) == list(map(heis_max_entry_norm, S))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_left_invariant_metric_reads_the_same(self, data):
        # d(x, y) = d(e, x^-1 y) for a left-invariant metric: the reading of
        # pairs off difference sets in `smith_uniqueness_probe` rests on it.
        metric, e = WordMetric(H), H.identity()
        for x, y in data.draw(st.lists(heis_pairs, max_size=6)):
            [s] = H.left_shadow([(x, y)])
            assert metric.eval(x, y) == metric.eval(e, s)

    def test_near_diagonal_left_shadows_grow(self):
        # a_k^-1 b_k = (1, 1, -k), at max-entry norm k.  The max-entry metric
        # is not left-invariant, so the shadows read apart from the pairs.
        maxentry, e = MaxEntryMetric(H), H.identity()
        pairs = near_diagonal(6)
        distances = [maxentry.eval(x, y) for x, y in pairs]
        norms = [maxentry.eval(e, s) for (s,) in map(H.left_shadow, ([p] for p in pairs))]
        assert (distances, classify_trend(distances)) == ([1] * 6, "bounded")
        assert (norms, classify_trend(norms)) == ([1, 2, 3, 4, 5, 6], "growing")


def halve(g):
    """A map of Z that is not injective: 2k and 2k + 1 go to k."""
    return (g[0] // 2,)


def pair_windows(points, f, d, d2) -> list:
    """For each nested prefix of `points`, the pairs (d(x, y), d2(f x, f y))
    over all ordered pairs of its points."""
    return [
        [(d.eval(x, y), d2.eval(f(x), f(y))) for x in prefix for y in prefix]
        for prefix in ladder_prefixes(points)
    ]


def difference_windows(f, points, cap=10**4) -> list:
    """The windows of a map of Z read through its difference sets: pairs
    (|t|, |f(t)|) under the word metric capped at `cap`, for t in P^-1 P, P
    a nested prefix of `points`.  Right for a homomorphism f only."""
    d, e = WordMetric(Z, radius_cap=cap), Z.identity()
    return [
        [(d.eval(e, t), d.eval(e, f(t))) for t in Z.product_set(list(map(Z.inv, P)), P, 10**4)]
        for P in ladder_prefixes(points)
    ]


def window_max(window, r):
    """The largest b among the pairs (a, b) of `window` with a <= r, 0 for
    none, and HORIZON when any pair holds it; written out pair by pair."""
    best = 0
    for a, b in window:
        if a is HORIZON or b is HORIZON:
            return HORIZON
        if a <= r and b > best:
            best = b
    return best


# Each window reads a different value, so a row cut one place off moves
# some value to its neighbour: an empty one (0), a pair past the word
# metric's cap of 10 (HORIZON), multi-pair ones, and the images of pairs
# under `halve`, with repeats.
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
    """`upper_control` over a whole ladder of windows equals its values one
    window at a time."""

    STRUCTURES = {
        "word": lambda: WordMetric(Z, radius_cap=10),
    }

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_fixed_ladder(self, name):
        metric = self.STRUCTURES[name]()
        windows = [[(metric.eval(x, y),) * 2 for x, y in pairs] for pairs in Z_LADDER]
        [values] = upper_control(windows, [10])
        assert values == [window_max(w, 10) for w in windows]
        assert upper_control([], [10]) == [[]]
        assert values == [5, 0, 7, HORIZON, 1, 0, 2, 8]

    # Windows of at least one pair leave no window at 0 by emptiness alone.
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
        # The image distance is the metric's; the domain distance is an
        # arbitrary small integer, so every radius cuts some pairs out.
        if name == "H-maxentry":
            metric, points = MaxEntryMetric(H), triples
        else:
            metric, points = self.STRUCTURES[name](), st.tuples(st.integers(-8, 8))
        pairs = st.tuples(st.integers(0, 4), points, points)
        ladder = data.draw(st.lists(st.lists(pairs, min_size=min_pairs, max_size=6), max_size=6))
        windows = [[(a, metric.eval(x, y)) for a, x, y in w] for w in ladder]
        radii = data.draw(st.lists(st.integers(0, 5), max_size=4))
        rows = upper_control(windows, radii)
        assert rows == [[window_max(w, r) for w in windows] for r in radii]
        for i, window in enumerate(windows):
            assert upper_control([window], radii) == [[row[i]] for row in rows]


class TestUpperControl:
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=12),
        st.integers(-3, 3),
        st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_difference_sets_match_an_all_pairs_maximum(self, points, m, cap):
        # x -> m x is a homomorphism and the word metric of Z is
        # left-invariant, so the pairs (d(e, t), d(e, m t)), t in P^-1 P, read
        # what all the pairs of P read.  The maximum is written out here with
        # `abs`, HORIZON past the cap included.
        truncation = [(x,) for x in points]
        windows = difference_windows(lambda t: (m * t[0],), truncation, cap)
        for r, row in zip(range(4), upper_control(windows, range(4))):
            expected = []
            for P in ladder_prefixes(truncation):
                best = 0
                for (x,) in P:
                    for (y,) in P:
                        a, b = abs(x - y), abs(m * x - m * y)
                        if a > cap or b > cap:
                            best = HORIZON
                            break
                        if a <= r:
                            best = max(best, b)
                    if best is HORIZON:
                        break
                expected.append(best)
            assert row == expected

    def test_a_window_with_a_horizon_pair_reads_horizon(self):
        # The HORIZON pair lies past every radius, on either side; the window
        # still reads HORIZON at each, and the window without it is the
        # positive control.
        for pair in ((HORIZON, 1), (9, HORIZON)):
            rows = upper_control([[(0, 1), (1, 2)], [(0, 1), (1, 2), pair]], [0, 1])
            assert rows == [[1, HORIZON], [2, HORIZON]]
            assert classify_trend(rows[1]) != "bounded"


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


def bounded(rows) -> bool:
    return all(classify_trend(row) == "bounded" for row in rows)


def swapped(windows) -> list:
    return [[(b, a) for a, b in window] for window in windows]


class TestMapProbes:
    """Map verdicts read off exact control rows on the nested windows of a
    truncation of Z: bornologous when the rows are bounded, proper when
    the rows of the swapped pairs are."""

    def test_identity_map_is_coarse(self):
        windows = difference_windows(lambda g: g, Z.ball(20))
        rows = upper_control(windows, range(1, 5))
        assert rows == [[r] * 3 for r in range(1, 5)]
        assert bounded(rows) and bounded(upper_control(swapped(windows), [1]))

    def test_doubling_is_bornologous_not_surjective_issue(self):
        # Only 0 maps within 1 of 0, so the swapped row reads 0.
        windows = difference_windows(lambda g: (2 * g[0],), Z.ball(20))
        assert upper_control(windows, [1]) == [[2, 2, 2]]
        assert upper_control(swapped(windows), [1]) == [[0, 0, 0]]

    def test_squaring_is_not_bornologous(self):
        # Adjacent pairs (n, n + 1) map to (n^2, (n + 1)^2), at distance
        # 2n + 1: squaring is no homomorphism, so every pair of each prefix
        # is read.  The identity is the positive control.
        d = WordMetric(Z, radius_cap=10**4)
        squares = upper_control(pair_windows(Z.ball(9), lambda g: (g[0] ** 2,), d, d), [1])
        assert squares == [[5, 11, 17]] and classify_trend(squares[0]) == "growing"
        identity = upper_control(pair_windows(Z.ball(9), lambda g: g, d, d), [1])
        assert identity == [[1, 1, 1]] and bounded(identity)

    def test_collapse_map_fails_properness(self):
        # The collapse pulls {0} back to each whole prefix: its swapped row is
        # the prefix diameter.  The identity is the positive control.
        collapse = difference_windows(lambda g: (0,), Z.ball(30))
        assert bounded(upper_control(collapse, [1]))
        [row] = upper_control(swapped(collapse), [1])
        assert row == [19, 39, 60] and classify_trend(row) == "growing"
        assert bounded(upper_control(swapped(difference_windows(lambda g: g, Z.ball(30))), [1]))

    @pytest.mark.parametrize("name", ["identity", "halve", "mod-3"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_proper_witnesses_match_a_truncation_scan(self, name, data):
        # The swapped row at 1 against a scan of every pair of each prefix;
        # the domain cap of 6 makes a wide prefix read HORIZON.
        f = {"identity": lambda g: g, "halve": halve, "mod-3": lambda g: (g[0] % 3,)}[name]
        truncation = data.draw(st.lists(st.tuples(st.integers(-12, 12)), min_size=1, max_size=20))
        windows = pair_windows(truncation, f, WordMetric(Z, radius_cap=6), WordMetric(Z))
        [row] = upper_control(swapped(windows), [1])
        expected = []
        for prefix in ladder_prefixes(truncation):
            xs = [x for (x,) in prefix]
            if max(xs) - min(xs) > 6:
                expected.append(HORIZON)
                continue
            near = [abs(x - y) for x in xs for y in xs if abs(f((x,))[0] - f((y,))[0]) <= 1]
            expected.append(max(near))
        assert row == expected

    def test_closeness_of_close_maps(self):
        # Each point pairs with itself, at distance 0, against d(f x, g x).
        d = WordMetric(Z)
        windows = [[(0, d.eval(x, (x[0] + 1,))) for x in P] for P in ladder_prefixes(Z.ball(15))]
        [row] = upper_control(windows, [0])
        assert row == [1, 1, 1] and classify_trend(row) == "bounded"

    def test_closeness_of_far_maps(self):
        d = WordMetric(Z)
        windows = [[(0, d.eval(x, (2 * x[0],))) for x in P] for P in ladder_prefixes(Z.ball(15))]
        [row] = upper_control(windows, [0])
        assert classify_trend(row) == "growing"
