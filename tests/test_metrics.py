import inspect
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsegroups import groups, metrics
from coarsegroups.groups import GroupSpec
from coarsegroups.metrics import (
    HORIZON,
    Entry12Pseudometric,
    InducedMetric,
    MaxEntryMetric,
    MetricEvaluator,
    QuotientWordMetric,
    WordMetric,
    WordNorm,
    classify_trend,
    ladder_prefixes,
    max_entry_distance,
    rho_plus_truncated,
)

from oracles import (
    bfs_distances,
    cayley_adjacency,
    cube,
    heis_to_matrix,
    matinv_unitriangular,
    matmul3,
)

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
H = GroupSpec.heisenberg()

triples = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
entry_triples = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))


class TestWordDistance:
    def test_integer_line(self):
        assert WordMetric(Z).eval((0,), (5,)) == 5

    def test_grid(self):
        assert WordMetric(Z2).eval((0, 0), (2, 3)) == 5

    def test_same_point(self):
        wm = WordMetric(H)
        for g in H.ball(2):
            assert wm.eval(g, g) == 0

    def test_horizon_marker(self):
        wm = WordMetric(Z, radius_cap=3)
        assert wm.eval((0,), (10,)) is HORIZON
        assert wm.eval((0,), (3,)) == 3

    def test_bfs_oracle_on_grid(self):
        nodes = Z2.ball(8)
        adjacency = cayley_adjacency(Z2, nodes)
        oracle = bfs_distances(adjacency, (0, 0))
        wm = WordMetric(Z2)
        for g in Z2.ball(3):
            assert wm.eval((0, 0), g) == oracle[g]


class TestInducedDistance:
    def test_integer_word_norm(self):
        assert InducedMetric(WordNorm(Z)).eval((3,), (10,)) == 7

    def test_heisenberg_max_entry_norm(self):
        # the max-entry norm of the shadow b1^-1 a1
        a1, b1 = (1, 0, 1), (2, 1, 1)
        assert MaxEntryMetric(H).eval(H.identity(), H.mul(H.inv(b1), a1)) == 2

    def test_left_invariance_exact(self):
        m = InducedMetric(WordNorm(H))
        rng = random.Random(3)
        ball = H.ball(3)
        for _ in range(500):
            a, g, h = (rng.choice(ball) for _ in range(3))
            assert m.eval(H.mul(a, g), H.mul(a, h)) == m.eval(g, h)


class TestMaxEntryDistance:
    def test_near_diagonal_pair(self):
        n = 7
        assert max_entry_distance((n, 0, 1), (n + 1, 1, 1)) == 1

    def test_same_point(self):
        assert max_entry_distance((3, -2, 9), (3, -2, 9)) == 0

    def test_componentwise(self):
        assert max_entry_distance((0, 0, 0), (-1, 2, 5)) == 5

    def test_not_left_invariant(self):
        m = MaxEntryMetric(H)
        a1, b1 = (1, 0, 1), (2, 1, 1)
        g = H.inv(b1)
        assert m.eval(a1, b1) == 1
        assert m.eval(H.mul(g, a1), H.mul(g, b1)) == 2

    @settings(max_examples=200, deadline=None)
    @given(entry_triples, st.lists(entry_triples, max_size=6))
    def test_matches_the_matrix_oracle(self, g, hs):
        # The largest |entry| of the difference of the two matrices.
        def oracle(x, y):
            mx, my = heis_to_matrix(x), heis_to_matrix(y)
            return max(abs(mx[i][j] - my[i][j]) for i in range(3) for j in range(3))

        m = MaxEntryMetric(H)
        expected = [oracle(g, h) for h in hs]
        assert [m.eval(g, h) for h in hs] == m.distances(g, hs) == expected


class TestQuotientDistance:
    def test_cycle_bfs_oracle(self):
        qm = QuotientWordMetric(5)
        cyc = qm.quotient
        adjacency = cayley_adjacency(cyc, cyc.ball(10))
        oracle = bfs_distances(adjacency, cyc.identity())
        for a in range(-12, 13):
            assert qm.eval((0,), (a,)) == oracle[cyc._reduce((a,))]
        assert qm.eval((0,), (3,)) == 2

    def test_same_coset(self):
        qm = QuotientWordMetric(5)
        for k in range(-4, 5):
            assert qm.eval((2,), (2 + 5 * k,)) == 0

    def test_adjacent_residues(self):
        qm = QuotientWordMetric(5)
        assert qm.eval((1,), (2,)) == 1


# Metrics whose row hook `TestDistances` checks against `eval`: a fresh
# metric, and whether some pair of its ball(2) is at distance HORIZON.
H_SWAPPED = GroupSpec.heisenberg(generators=((0, 1, 0), (1, 0, 0)))
ROW_METRICS = {
    "word-Z": (lambda: WordMetric(Z, radius_cap=2), True),
    "word-Z2": (lambda: WordMetric(Z2, radius_cap=2), True),
    "word-Z/7": (lambda: WordMetric(GroupSpec.cyclic(7), radius_cap=2), True),
    "word-H-closed": (lambda: WordMetric(H), False),
    "word-H-closed-cap2": (lambda: WordMetric(H, radius_cap=2), True),
    # Swapped generators have no closed form: a breadth-first table.
    "word-H{e2,e1}-bfs": (lambda: WordMetric(H_SWAPPED), False),
    "word-H{e2,e1}-bfs-cap2": (lambda: WordMetric(H_SWAPPED, radius_cap=2), True),
    "word-Z{2,3}-bfs": (
        lambda: WordMetric(GroupSpec.free_abelian(1, generators=((2,), (3,)))),
        False,
    ),
    "induced-Z2-cap3": (lambda: InducedMetric(WordNorm(Z2, radius_cap=3)), True),
    "maxentry-H": (lambda: MaxEntryMetric(H), False),
    "entry12-H": (lambda: Entry12Pseudometric(H), False),
    "quotient-Z/<5>": (lambda: QuotientWordMetric(5), False),
}


def _hook_owner(metric, name):
    """Where the `name` body that `metric` runs is defined: the code of a
    kernel bound on the instance, else the class that defines it."""
    if name in vars(metric):
        return getattr(metric, name).__code__
    return next(c for c in type(metric).__mro__ if name in vars(c))


def _nested_row_kernels(name, *modules):
    """The code of every function called `name` nested in a function or
    method of `modules`: the row (`distances`) or `diameter` kernels a
    metric can bind per instance."""
    functions = []
    for module in modules:
        for _, obj in inspect.getmembers(module):
            if inspect.isfunction(obj):
                functions.append(obj)
            elif inspect.isclass(obj):
                functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
    found, stack = set(), [f.__code__ for f in functions]
    while stack:
        for const in stack.pop().co_consts:
            if inspect.iscode(const):
                if const.co_name == name:
                    found.add(const)
                stack.append(const)
    return found


class TestDistances:
    """The row hook `distances(g, hs)` against one `eval` per point."""

    @pytest.mark.parametrize("make,horizon", ROW_METRICS.values(), ids=ROW_METRICS.keys())
    def test_rows_match_eval(self, make, horizon):
        m = make()
        ball = list(m.spec.ball(2))
        seen = []
        for g in ball:
            for hs in (ball, ball[::-1]):
                row = m.distances(g, hs)
                assert row == [m.eval(g, h) for h in hs], g
                seen += row
            assert m.distances(g, []) == []
        assert (HORIZON in seen) == horizon

    @pytest.mark.parametrize("make,horizon", ROW_METRICS.values(), ids=ROW_METRICS.keys())
    def test_diameter_matches_all_pairs(self, make, horizon):
        m = make()
        ball = list(m.spec.ball(2))
        expected = _all_pairs_diameter(m, ball)
        assert (expected is HORIZON) == horizon
        for pts in (ball, ball[::-1], ball + ball, iter(ball)):
            assert m.diameter(pts) == expected
        assert m.diameter([]) == 0 == m.diameter(ball[:1])

    def test_every_override_is_parametrized(self):
        # Each `distances` and each `diameter` body that a metric can run,
        # defined on a class or bound per instance, runs for some metric of
        # ROW_METRICS.  No metric binds a `distances` kernel; the one
        # `diameter` kernel is the one of Z.
        for name, overrides, kernel_metrics in [
            ("distances", {MetricEvaluator, Entry12Pseudometric}, []),
            ("diameter", {MetricEvaluator, QuotientWordMetric}, ["word-Z"]),
        ]:
            defined = {
                cls for _, cls in inspect.getmembers(metrics, inspect.isclass) if name in vars(cls)
            }
            kernels = _nested_row_kernels(name, metrics, groups)
            covered = {_hook_owner(make(), name) for make, _ in ROW_METRICS.values()}
            assert overrides <= defined, name
            assert kernels == {_hook_owner(ROW_METRICS[k][0](), name) for k in kernel_metrics}, name
            assert defined | kernels <= covered, sorted(map(str, (defined | kernels) - covered))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(-12, 12),
        st.lists(st.integers(-12, 12), max_size=12),
    )
    def test_z_row_matches_the_bfs_oracle(self, cap, x, ys):
        # Geodesics between points of [-12, 12] stay in it; HORIZON past cap.
        adjacency = cayley_adjacency(Z, [(i,) for i in range(-12, 13)])
        oracle = bfs_distances(adjacency, (x,))
        hs = [(y,) for y in ys]
        expected = [d if (d := oracle[h]) <= cap else HORIZON for h in hs]
        wm = WordMetric(Z, radius_cap=cap)
        assert wm.distances((x,), hs) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 8),
        st.lists(st.integers(-12, 12) | st.sampled_from([-1, 1]), max_size=12),
    )
    @example(3, [])
    @example(0, [5, 5, 5])
    @example(2, [1, -1, 1])
    def test_z_diameter_matches_the_bfs_oracle(self, cap, xs):
        # Sets drawn with duplicates and the generators ±1, passed as a
        # list and as a one-pass generator.
        adjacency = cayley_adjacency(Z, [(i,) for i in range(-12, 13)])
        pts = [(x,) for x in xs]
        rows = {g: bfs_distances(adjacency, g) for g in pts}
        d = max((rows[g][h] for g in pts for h in pts), default=0)
        expected = d if d <= cap else HORIZON
        wm = WordMetric(Z, radius_cap=cap)
        assert "diameter" in vars(wm)
        assert wm.diameter(pts) == expected
        assert wm.diameter(g for g in pts) == expected

    @pytest.mark.parametrize("cap", [0, 1, 7, 64])
    def test_z_diameter_at_the_cap(self, cap):
        wm = WordMetric(Z, radius_cap=cap)
        assert wm.diameter([(3,), (3 + cap,), (3,)]) == cap
        assert wm.diameter([(0,), (-cap - 1,)]) is HORIZON

    def test_entry12_invariance_rows_match_the_matrix_oracle(self):
        # The two rows the `heisenberg_pseudometric` invariance loop compares,
        # with g^-1 h and the (1,2) entries taken from 3x3 integer matrices.
        rho = Entry12Pseudometric(H)
        ball = list(H.ball(3))
        e = H.identity()
        for g in ball:
            ginv = matinv_unitriangular(heis_to_matrix(g))
            left = [abs(matmul3(ginv, heis_to_matrix(h))[0][1]) for h in ball]
            right = [abs(heis_to_matrix(g)[0][1] - heis_to_matrix(h)[0][1]) for h in ball]
            assert rho.distances(e, [H.mul(H.inv(g), h) for h in ball]) == left, g
            assert rho.distances(g, ball) == right, g
            assert left == right, g


def _all_pairs_diameter(metric, pts):
    """Max of `metric.eval` over every unordered pair, one call per pair.

    HORIZON if any pair is at distance HORIZON; 0 for fewer than two points.
    """
    best = 0
    horizon = False
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = metric.eval(pts[i], pts[j])
            if d is HORIZON:
                horizon = True
            elif d > best:
                best = d
    return HORIZON if horizon else best


class TestQuotientDiameter:
    """The one-point-per-coset diameter and the base row-by-row diameter,
    both against the plain double loop `_all_pairs_diameter`.

    `MetricEvaluator.diameter(qm, pts)` is called unbound, so it skips the
    override and takes one row of `qm.distances` per point.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 9), st.lists(st.integers(-30, 30), max_size=12))
    def test_rank_one_matches_all_pairs(self, k, xs):
        qm = QuotientWordMetric(k)
        pts = [(x,) for x in xs]
        expected = _all_pairs_diameter(qm, pts)
        assert qm.diameter(pts) == expected == MetricEvaluator.diameter(qm, pts)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5), st.lists(st.integers(-30, 30), max_size=12))
    def test_word_metric_on_z_matches_all_pairs(self, radius_cap, xs):
        wm = WordMetric(Z, radius_cap=radius_cap)
        pts = [(x,) for x in xs]
        assert wm.diameter(pts) == _all_pairs_diameter(wm, pts)

    @pytest.mark.parametrize("pts", [[], [(7,)]])
    def test_empty_and_one_point(self, pts):
        qm = QuotientWordMetric(5)
        assert qm.diameter(pts) == 0 == MetricEvaluator.diameter(qm, pts)
        assert _all_pairs_diameter(qm, pts) == 0
        wm = WordMetric(Z, radius_cap=1)
        assert wm.diameter(pts) == 0 == _all_pairs_diameter(wm, pts)

    @pytest.mark.parametrize(
        "metric,pts",
        [
            (WordMetric(Z, radius_cap=1), [(0,), (-1,), (1,)]),
            (WordMetric(GroupSpec.cyclic(9), radius_cap=2), [(2,), (0,), (4,)]),
        ],
        ids=["word-Z", "word-Z/9"],
    )
    def test_horizon_only_in_the_last_pair(self, metric, pts):
        pairs = list(itertools.combinations(pts, 2))
        assert [metric.eval(g, h) is HORIZON for g, h in pairs] == [False] * (len(pairs) - 1) + [True]
        assert _all_pairs_diameter(metric, pts) is HORIZON
        assert MetricEvaluator.diameter(metric, pts) is HORIZON
        assert metric.diameter(pts) is HORIZON

    def test_horizon_propagates(self):
        # Residues 0 and 4 of Z/9 are at distance 4 > radius_cap, and 0 and 1
        # at distance 1: the diameter is HORIZON, not the largest number.
        wm = WordMetric(GroupSpec.cyclic(9), radius_cap=2)
        pts = [(0,), (4,), (1,)]
        assert wm.diameter(pts) is HORIZON is _all_pairs_diameter(wm, pts)

    def test_same_coset_points_count_once(self):
        qm = QuotientWordMetric(5)
        assert qm.diameter([(i,) for i in range(-200, 201)]) == 2


def _pairwise_bfs_oracle(spec, r=6):
    """d(g, h) for every g, h in spec.ball(r), by BFS over spec.ball(2 * r).

    A geodesic between two points of the r-ball stays in the 2r-ball, so
    these are the distances of the whole Cayley graph.
    """
    adjacency = cayley_adjacency(spec, spec.ball(2 * r))
    return {g: bfs_distances(adjacency, g) for g in spec.ball(r)}


def _assert_word_metric_matches_bfs(spec, r):
    """WordMetric(spec) equals `_pairwise_bfs_oracle` on every pair of the r-ball."""
    oracle = _pairwise_bfs_oracle(spec, r)
    wm = WordMetric(spec)
    for g, row in oracle.items():
        for h in oracle:
            assert wm.eval(g, h) == row[h], (g, h)


STANDARD = {f"Z^{n}": GroupSpec.free_abelian(n) for n in (1, 2, 3)}
STANDARD["H"] = H
STANDARD.update({f"Z/{k}": GroupSpec.cyclic(k) for k in range(2, 10)})
STANDARD.update(
    {f"Z/<{k}>": QuotientWordMetric(k).quotient for k in (*range(2, 10), *range(-9, -1))}
)

FALLBACK = {
    "Z{2,3}": GroupSpec.free_abelian(1, generators=((2,), (3,))),
    "Z/7{2}": GroupSpec.cyclic(7, generators=((2,),)),
    "Z^2{e2,e1}": GroupSpec.free_abelian(2, generators=((0, 1), (1, 0))),
    "H{e2,e1}": GroupSpec.heisenberg(generators=((0, 1, 0), (1, 0, 0))),
    "ZxZ/3": GroupSpec.direct_product(Z, GroupSpec.cyclic(3)),
}


def _element(spec, coords):
    """An element of `spec` made from a list of at least three ints."""
    g = tuple(coords[: spec.rank])
    return spec._reduce(g) if spec.kind == "cyclic" else g


class TestClosedFormWordDistance:
    """Closed-form word distances against BFS, and the BFS fallback."""

    @pytest.mark.parametrize("k", range(2, 10))
    def test_cyclic_is_the_lattice_quotient(self, k):
        quotient = QuotientWordMetric(k).quotient
        assert GroupSpec.cyclic(k) == quotient
        assert hash(GroupSpec.cyclic(k)) == hash(quotient)

    @pytest.mark.parametrize("k", [1, 0, -7])
    def test_cyclic_modulus_below_two_rejected(self, k):
        with pytest.raises(ValueError):
            GroupSpec.cyclic(k)

    @pytest.mark.parametrize("spec", STANDARD.values(), ids=STANDARD.keys())
    def test_matches_bfs_on_the_six_ball(self, spec):
        assert spec.word_distance(64) is not None
        _assert_word_metric_matches_bfs(spec, r=6)

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_quotient_word_metric_matches_bfs(self, k, sign):
        qm = QuotientWordMetric(sign * k)
        oracle = _pairwise_bfs_oracle(qm.quotient)
        for x, y in itertools.product(range(-12, 13), repeat=2):
            expected = oracle[qm.project((x,))][qm.project((y,))]
            assert qm.eval((x,), (y,)) == expected, (x, y)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(STANDARD.values())),
        st.integers(0, 6),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    )
    def test_matches_the_capped_table(self, spec, cap, xs, ys):
        g, h = _element(spec, xs), _element(spec, ys)
        table = InducedMetric(WordNorm(spec, radius_cap=cap))
        assert WordMetric(spec, radius_cap=cap).eval(g, h) == table.eval(g, h)

    @pytest.mark.parametrize("cap", range(5))
    @pytest.mark.parametrize(
        "spec,at",
        [
            (Z, lambda n: (n,)),
            (GroupSpec.free_abelian(3), lambda n: (n - n // 2, 0, -(n // 2))),
            (GroupSpec.cyclic(13), lambda n: (-n % 13,)),
            (QuotientWordMetric(13).quotient, lambda n: (n,)),
            (H, lambda n: (n - n // 2, -(n // 2), 0)),
            # The largest c that a word of length n reaches.
            (H, lambda n: (n // 2, n - n // 2, (n // 2) * (n - n // 2))),
            # (0, 0, c) has length 2 * ceil(2 * sqrt(c)) for c > 0.
            (H, lambda n: (0, 0, -(n * n // 16)) if n >= 4 and n % 2 == 0 else (0, -n, 0)),
        ],
        ids=["Z", "Z3", "Z/13", "Z/<13>", "H", "H-corner", "H-center"],
    )
    def test_horizon_exactly_past_the_cap(self, spec, at, cap):
        wm = WordMetric(spec, radius_cap=cap)
        e = spec.identity()
        assert wm.eval(e, at(cap)) == cap
        assert wm.eval(at(cap), e) == cap
        assert wm.eval(e, at(cap + 1)) is HORIZON

    @pytest.mark.parametrize("spec", FALLBACK.values(), ids=FALLBACK.keys())
    def test_other_generating_sets_fall_back_to_bfs(self, spec):
        assert spec.word_distance(64) is None
        assert isinstance(WordMetric(spec).norm, WordNorm)
        _assert_word_metric_matches_bfs(spec, r=3)

    @pytest.mark.parametrize("spec", STANDARD.values(), ids=STANDARD.keys())
    def test_closed_form_builds_no_table(self, spec, monkeypatch):
        def no_spheres(self):
            raise AssertionError("a closed-form word metric read spheres()")

        monkeypatch.setattr(GroupSpec, "spheres", no_spheres)
        wm = WordMetric(spec, radius_cap=5)
        assert not hasattr(wm, "norm")
        assert wm.spec == spec
        e = spec.identity()
        assert wm.eval(e, e) == 0


BIG = 10**40
# Integers near 0 and near +-10**40.
big_ints = st.one_of(
    *(st.integers(centre - 10**6, centre + 10**6) for centre in (-BIG, 0, BIG))
)


@st.composite
def big_triples(draw):
    """Heisenberg triples with coordinates near 0 and 10**40, and c on both
    sides of [0, ab], where the length is a + b."""
    a, b = draw(big_ints), draw(big_ints)
    return (a, b, draw(st.sampled_from([-1, 0, 1, 2])) * a * b + draw(big_ints))


class TestHeisenbergWordDistance:
    """The closed-form Heisenberg word distance: the BFS spheres, then the
    symmetries of the word length far past any ball."""

    length = staticmethod(H.word_distance(10**1000))

    def test_sphere_index_up_to_radius_twenty(self):
        # Every element of the 20-ball has its sphere index as its length,
        # and no other element of a box around that ball has length <= 20.
        r, e = 20, H.identity()
        ball = set()
        for n, sphere in enumerate(itertools.islice(H.spheres(), r + 1)):
            assert [self.length(e, g) for g in sphere] == [n] * len(sphere), n
            ball.update(sphere)
        side = range(-r - 1, r + 2)
        box = itertools.product(side, side, range(-r * r // 2, r * r // 2 + 1))
        assert {g for g in box if self.length(e, g) <= r} == ball

    @settings(max_examples=300, deadline=None)
    @given(big_triples())
    def test_symmetries(self, g):
        a, b, c = g
        e = H.identity()
        n = self.length(e, g)
        assert self.length(e, (-a, b, -c)) == n
        assert self.length(e, (a, -b, -c)) == n
        assert self.length(e, (b, a, a * b - c)) == n
        assert self.length(e, H.inv(g)) == n
        assert self.length(g, e) == n

    @settings(max_examples=300, deadline=None)
    @given(big_triples())
    def test_each_generator_moves_one_step(self, g):
        # On the Cayley graph a length with these two properties and 0 only
        # at e is the word length.
        e = H.identity()
        n = self.length(e, g)
        steps = [self.length(e, H.mul(g, s)) for s in H.symmetric_generators()]
        assert [abs(m - n) for m in steps] == [1] * 4, (n, steps)
        assert (n - 1 in steps) == (g != e)

    @settings(max_examples=100, deadline=None)
    @given(big_triples(), big_triples(), big_triples())
    def test_left_invariance(self, x, g, h):
        assert self.length(H.mul(x, g), H.mul(x, h)) == self.length(g, h)

    def test_centre(self):
        e = H.identity()
        assert self.length(e, (0, 0, BIG)) == 4 * 10**20
        assert self.length(e, (0, 0, -BIG - 1)) == 4 * 10**20 + 2
        # Past the range of a float.
        assert self.length(e, (0, 0, 10**400)) == 4 * 10**200
        wm = WordMetric(H)
        assert wm.eval(e, (0, 0, 256)) == wm.eval((0, 0, -256), e) == 64
        assert wm.eval(e, (0, 0, 257)) is HORIZON


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "metric,ball",
        [
            (WordMetric(Z), Z.ball(3)),
            (WordMetric(Z2), Z2.ball(3)),
            (MaxEntryMetric(H), H.ball(3)),
            (Entry12Pseudometric(H), H.ball(3)),
            (QuotientWordMetric(5), Z.ball(3)),
        ],
    )
    def test_exhaustive_small_ball(self, metric, ball):
        sample = ball[:: max(1, len(ball) // 15)]
        for x, y in itertools.product(sample, repeat=2):
            assert metric.eval(x, x) == 0
            assert metric.eval(x, y) == metric.eval(y, x)
            assert metric.eval(x, y) >= 0
        for x, y, z in itertools.product(sample, repeat=3):
            assert metric.eval(x, z) <= metric.eval(x, y) + metric.eval(y, z)

    def test_positivity_of_genuine_metrics(self):
        wm = WordMetric(Z2)
        for x in Z2.ball(3):
            for y in Z2.ball(3):
                if x != y:
                    assert wm.eval(x, y) > 0

    @given(triples, triples, triples)
    @settings(max_examples=500)
    def test_max_entry_triangle_random(self, x, y, z):
        m = MaxEntryMetric(H)
        assert m.eval(x, z) <= m.eval(x, y) + m.eval(y, z)


class TestRhoPlus:
    def test_left_invariant_base_unchanged(self):
        wm = WordMetric(Z)
        for r in range(2, 6):
            assert rho_plus_truncated(wm, (2,), (9,), Z.ball(r)) == 7

    def test_heisenberg_grows_past_base(self):
        m = MaxEntryMetric(H)
        a1, b1 = (1, 0, 1), (2, 1, 1)
        trunc = set(H.ball(2))
        values = []
        for n in range(1, 5):
            trunc.add(H.inv((n + 1, 1, 1)))
            values.append(rho_plus_truncated(m, a1, b1, trunc))
        assert values[0] >= 2
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_on_diagonal(self):
        m = MaxEntryMetric(H)
        assert rho_plus_truncated(m, (1, 2, 3), (1, 2, 3), H.ball(2)) == 0

    def test_monotone_in_truncation(self):
        m = MaxEntryMetric(H)
        rng = random.Random(11)
        ball = H.ball(3)
        for _ in range(200):
            x, y = rng.choice(ball), rng.choice(ball)
            small = set(rng.sample(ball, 10)) | {H.identity()}
            large = small | set(rng.sample(ball, 20))
            assert rho_plus_truncated(m, x, y, small) <= rho_plus_truncated(
                m, x, y, large
            )

    def test_triangle_for_fixed_truncation(self):
        m = MaxEntryMetric(H)
        trunc = H.ball(2)
        rng = random.Random(5)
        ball = H.ball(3)
        for _ in range(200):
            x, y, z = (rng.choice(ball) for _ in range(3))
            assert rho_plus_truncated(m, x, z, trunc) <= rho_plus_truncated(
                m, x, y, trunc
            ) + rho_plus_truncated(m, y, z, trunc)

    def test_requires_identity(self):
        with pytest.raises(ValueError):
            rho_plus_truncated(WordMetric(Z), (0,), (1,), [(5,)])


class TestTrendRule:
    def test_bounded(self):
        assert classify_trend([3, 3, 3]) == "bounded"
        assert classify_trend([1, 2, 2]) == "bounded"

    def test_growing(self):
        assert classify_trend([1, 2, 3]) == "growing"
        assert classify_trend([1, 2, 4]) == "growing"

    def test_inconclusive(self):
        assert classify_trend([1, 3, 4]) == "inconclusive"
        assert classify_trend([2]) == "inconclusive"

    def test_overflow_markers(self):
        assert classify_trend([1, 2, HORIZON]) == "growing"
        assert classify_trend([1, HORIZON]) == "growing"
        assert classify_trend([HORIZON, HORIZON, HORIZON]) == "inconclusive"

    def test_horizon_is_an_overflow_marker(self):
        # HORIZON is larger than any number: never a value equal to itself,
        # never one to subtract, and never followed by a number.
        assert classify_trend([5, HORIZON, HORIZON, HORIZON]) == "inconclusive"
        assert classify_trend([1, HORIZON, HORIZON]) == "inconclusive"
        assert classify_trend([3, HORIZON, 4]) == "inconclusive"
        assert classify_trend([HORIZON, 1, 2]) == "inconclusive"
        # The numbers before the overflow must strictly increase.
        assert classify_trend([2, 2, HORIZON]) == "inconclusive"
        assert classify_trend([3, 1, HORIZON]) == "inconclusive"
        assert classify_trend([1, 2, HORIZON]) == "growing"


class TestLadder:
    def test_prefixes_nested_and_deterministic(self):
        items = Z.ball(20)
        ladder = ladder_prefixes(items)
        assert len(ladder) == 3
        for a, b in zip(ladder, ladder[1:]):
            assert set(a) <= set(b)
        assert ladder == ladder_prefixes(list(reversed(items)))

    def test_empty_truncation_raises(self):
        for items in ([], set()):
            with pytest.raises(ValueError, match="^truncation must be nonempty$"):
                ladder_prefixes(items)
        assert ladder_prefixes([(0,)]) == [[(0,)]]

    def test_small_magnitude_first(self):
        ladder = ladder_prefixes(Z.ball(9))
        assert (0,) in ladder[0]
        assert max(abs(g[0]) for g in ladder[0]) < max(abs(g[0]) for g in ladder[-1])

    @pytest.mark.parametrize("spec", [Z, Z2, H], ids=["Z", "Z2", "H"])
    def test_shell_key_orders_a_window_alone(self, spec):
        # `ladder_prefixes` sorts by `shell_key` with no tie-break, so that
        # key must tell every two elements apart: (|c|, c < 0) fixes c.
        window = cube(4, spec.rank)
        assert len({groups.shell_key(g) for g in window}) == len(window)
        tie_broken = sorted(window, key=lambda g: (groups.shell_key(g), g))
        assert ladder_prefixes(window[::-1])[-1] == tie_broken
