import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegroups import bornology, groups
from coarsegroups.bornology import (
    ChainMetric,
    Explicit,
    GeneratedBasis,
    GeometricSeed,
    MinimalBasis,
    member,
    member_depth,
    metric_from_basis,
)
from coarsegroups.groups import BudgetExceededError, GroupSpec, Integers
from coarsegroups.metrics import HORIZON, QuotientWordMetric

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
H = GroupSpec.heisenberg()


def sym_power(spec, base, n):
    # independent recomputation of the n-fold product used by ChainMetric
    out = set(base)
    for _ in range(n - 1):
        out = {spec.mul(x, y) for x in out for y in base}
    return out


@contextlib.contextmanager
def mul_product_sets():
    """Inside the block, every kind's `product_set` is the pairwise `mul`
    comprehension that built generated levels and chain levels before the
    hook existed.  The cap is not read: these blocks build under the
    default caps, which no product reaches."""

    def product_set(self, a, b, cap):
        return {self.mul(x, y) for x in a for y in b}

    with pytest.MonkeyPatch.context() as m:
        for cls in (GroupSpec, *GroupSpec.__subclasses__()):
            if "product_set" in vars(cls):
                m.setattr(cls, "product_set", product_set)
        yield


@contextlib.contextmanager
def counted_product_rows():
    """Inside the block, each call of the rank-1 `Integers.product_set`
    appends a list to the yielded list, and each row x*b that the call's
    row-at-a-time loop sums appends len(x*b) to that call's list.  Rows are
    counted where `groups._union_rows` consumes them, so reading `a` for
    its span, or taking the one comprehension or the bit mask, counts no
    row."""
    calls = []
    product_set, union_rows = Integers.product_set, groups._union_rows

    def counted(spec, a, b, cap):
        calls.append([])
        return product_set(spec, a, b, cap)

    def counted_rows(rows, cap):
        def each(rows):
            for row in rows:
                calls[-1].append(len(row))
                yield row

        return union_rows(each(rows), cap)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Integers, "product_set", counted)
        m.setattr(groups, "_union_rows", counted_rows)
        yield calls


class TestSeeds:
    def test_explicit(self):
        s = Explicit(((1,), (4,)))
        assert s.materialize(Z) == frozenset([(1,), (4,)])

    def test_geometric(self):
        s = GeometricSeed(10, 3)
        assert s.materialize(Z) == frozenset([(0,), (10,), (100,), (1000,)])

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            GeometricSeed(1, 3)
        with pytest.raises(ValueError):
            GeometricSeed(10, 0)

    @pytest.mark.parametrize(
        "spec",
        [
            QuotientWordMetric(7).quotient,
            GroupSpec.cyclic(7),
            QuotientWordMetric(2000).quotient,
            Z2,
            H,
        ],
        ids=["Z/<7>", "Z/7", "Z/<2000>", "Z2", "H"],
    )
    def test_geometric_needs_the_integers(self, spec):
        # The powers of 10 are integers, not residues: on Z/<7>, B_1 would
        # hold unreduced payloads and B_2 would reduce their inverses.
        with pytest.raises(ValueError):
            GeometricSeed(10, 3).materialize(spec)
        with pytest.raises(ValueError):
            GeneratedBasis(spec, [GeometricSeed(10, 3)]).sets(1)

    def test_geometric_ignores_the_generating_set(self):
        z23 = GroupSpec.free_abelian(1, ((2,), (3,)))
        assert GeometricSeed(10, 3).materialize(z23) == GeometricSeed(10, 3).materialize(Z)

    @pytest.mark.parametrize(
        "spec,elements",
        [
            (GroupSpec.cyclic(7), ((1,), (7,))),
            (GroupSpec.cyclic(7), ((-1,),)),
            (GroupSpec.cyclic(7), (3,)),
            (Z, ((1, 2),)),
            (H, ((1, 0),)),
        ],
        ids=["Z/7-unreduced", "Z/7-negative", "Z/7-int", "Z-pair", "H-pair"],
    )
    def test_explicit_checks_elements(self, spec, elements):
        with pytest.raises(TypeError):
            Explicit(elements).materialize(spec)
        with pytest.raises(TypeError):
            GeneratedBasis(spec, [Explicit(elements)]).sets(1)

    def test_explicit_residues(self):
        c7 = GroupSpec.cyclic(7)
        assert Explicit(((0,), (6,))).materialize(c7) == frozenset([(0,), (6,)])


class TestStreams:
    def test_minimal_is_singletons_in_enumeration_order(self):
        assert MinimalBasis(Z).sets(4) == [
            frozenset([(0,)]),
            frozenset([(1,)]),
            frozenset([(-1,)]),
            frozenset([(2,)]),
        ]

    def test_minimal_prefix_stable(self):
        basis = MinimalBasis(H)
        assert basis.sets(10) == basis.sets(15)[:10]
        assert list(itertools.islice(basis.iter_sets(), 10)) == basis.sets(10)

    def test_generated_seed_first(self):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 3)])
        first = basis.sets(1)[0]
        assert first == frozenset([(0,), (10,), (100,), (1000,)])

    def test_generated_contains_singletons_and_products(self):
        basis = GeneratedBasis(Z, [Explicit(((3,),))], depth_cap=5)
        sets = basis.sets(40)
        assert frozenset([(3,)]) in sets
        assert frozenset([(-3,)]) in sets
        assert frozenset([(6,)]) in sets  # product of the seed with itself

    def test_generated_level_one_holds_both_product_orders(self):
        # Heisenberg: a * b = (1, 1, 1) and b * a = (1, 1, 0) differ.
        a, b = (1, 0, 0), (0, 1, 0)
        basis = GeneratedBasis(H, [Explicit((a,)), Explicit((b,))], depth_cap=1)
        level0 = basis.sets(4)
        sets = basis.sets(100)
        assert level0 == [frozenset([x]) for x in (a, b, H.inv(a), H.inv(b))]
        for expected in ([(1, 1, 1)], [(1, 1, 0)], [a, b], [H.inv(a), b]):
            assert frozenset(expected) in sets[4:]

    def test_generated_translates_are_products_with_singletons(self):
        # Level 2's singleton is g = (0, 1, 0); seed * g and g * seed are at
        # level 3, and they differ because g does not commute with the seed.
        seed = frozenset([(1, 0, 0), (0, 0, 1)])
        g = (0, 1, 0)
        basis = GeneratedBasis(H, [Explicit(tuple(seed))], depth_cap=3)
        sets = basis.sets(10**6)
        assert frozenset([g]) in sets
        left = frozenset(H.mul(g, x) for x in seed)
        right = frozenset(H.mul(x, g) for x in seed)
        assert left != right
        assert left in sets and right in sets

    def test_generated_level_n_adds_the_nth_singleton(self):
        # Far from the seed (100,), the small singletons of level n are the
        # n-th element of the enumeration 0, 1, -1, 2, -2 and its inverse.
        basis = GeneratedBasis(Z, [Explicit(((100,),))], depth_cap=4)
        basis.sets(10**6)
        first_level = {}
        for n, level in enumerate(basis._levels):
            for s in level:
                first_level.setdefault(s, n)
        got = [first_level.get(frozenset([(v,)])) for v in (0, 1, -1, 2, -2)]
        assert got == [1, 2, 2, 4, 4]

    @pytest.mark.parametrize("seed", [GeometricSeed(10, 6), GeometricSeed(2, 8)])
    def test_generated_unions_in_both_orders_are_in_the_level(self, seed):
        # Unions are tried once per unordered pair; none may go missing.
        basis = GeneratedBasis(Z, [seed], depth_cap=3)
        basis.sets(10**6)
        levels = basis._levels
        for n in range(1, len(levels)):
            upto = set().union(*levels[: n + 1])
            for i in range(n):
                for a, b in itertools.product(levels[i], levels[n - 1 - i]):
                    assert a | b in upto

    @pytest.mark.parametrize(
        "spec, seed",
        [
            (Z, Explicit(tuple((5 * i,) for i in range(-8, 9)))),
            (Z, GeometricSeed(2, 8)),
            (H, Explicit(((1, 0, 0), (0, 0, 1)))),
        ],
    )
    def test_generated_levels_are_ordered_by_size_then_sorted_encoding(self, spec, seed):
        # Sizes are compared first and encodings only within one size; the
        # order is the (size, sorted encoding) order, with and without ties.
        def old(s):
            return (len(s), tuple(sorted(s)))

        basis = GeneratedBasis(spec, [seed], depth_cap=3)
        basis.sets(10**6)
        levels = basis._levels[1:]
        rng = random.Random(7)
        assert any(len({len(s) for s in level}) < len(level) for level in levels)
        assert all(level == sorted(level, key=old) for level in levels)
        pairs = [frozenset([(i,), (-i,)]) for i in range(1, 6)]
        for sets in levels + [pairs]:
            shuffled = rng.sample(sets, len(sets))
            assert bornology._ordered(shuffled) == sorted(shuffled, key=old)
            untied = list({len(s): s for s in shuffled}.values())
            assert bornology._ordered(untied) == sorted(untied, key=old)

    def test_generated_stream_ends_after_depth_cap(self):
        basis = GeneratedBasis(Z, [Explicit(((1,), (5,)))], depth_cap=2)
        assert len(basis.sets(10**6)) == sum(len(level) for level in basis._levels)
        assert len(basis._levels) == 3

    def test_generated_prefix_stable(self):
        basis = GeneratedBasis(Z, [Explicit(((1,), (5,)))], depth_cap=4)
        again = GeneratedBasis(Z, [Explicit(((1,), (5,)))], depth_cap=4)
        assert basis.sets(30) == again.sets(30)
        assert basis.sets(30)[:12] == basis.sets(12)
        assert list(itertools.islice(basis.iter_sets(), 30)) == basis.sets(30)

    def test_generated_retry_after_ball_cap(self, monkeypatch):
        # The element stream raised on the first call; the finished generator
        # used to leak a bare StopIteration on the second.  The seed is far
        # from 0, so each level's singleton is new there, and a retry that
        # took the wrong element would change the sets.
        monkeypatch.setenv("COARSE_BALL_CAP", "3")
        basis = GeneratedBasis(Z, [Explicit(((100,),))])
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                basis.sets(10**6)
        monkeypatch.delenv("COARSE_BALL_CAP")
        assert basis.sets(200) == GeneratedBasis(Z, [Explicit(((100,),))]).sets(200)

    def test_generated_retry_after_set_cap(self, monkeypatch):
        # Level 1 fails at the product seed * seed, after taking its singleton
        # and admitting sets: a retry under a larger cap rebuilds it whole.
        seeds = [Explicit(((1,), (2,), (3,)))]
        monkeypatch.setenv("COARSE_SET_CAP", "4")
        basis = GeneratedBasis(Z, seeds, depth_cap=3)
        with pytest.raises(BudgetExceededError):
            basis.sets(40)
        monkeypatch.delenv("COARSE_SET_CAP")
        assert basis.sets(40) == GeneratedBasis(Z, seeds, depth_cap=3).sets(40)

    def test_generated_level_stops_building_at_the_set_cap(self, monkeypatch):
        # Level 1's product seed * seed holds 4,952 of its 10,000 sums, past
        # a set cap of 100.
        monkeypatch.setenv("COARSE_SET_CAP", "100")
        basis = GeneratedBasis(Z, [GeometricSeed(2, 99)])
        with counted_product_rows() as calls, pytest.raises(BudgetExceededError):
            basis.sets(10**6)
        assert len(basis._levels) == 1
        assert calls == [[100, 100]]

    def test_generated_level_reads_the_set_cap_once_for_its_products(self, monkeypatch):
        # Level 0 is the seed and its inverse, so level 1 admits 2 singletons,
        # 2 inverses, 1 union and 4 products.  All nine sets are checked
        # against the one cap read of the level.
        reads = []

        def env_cap(name):
            reads.append(name)
            return 10**6

        monkeypatch.setattr("coarsegroups.groups._env_cap", env_cap)
        basis = GeneratedBasis(Z, [GeometricSeed(10, 3)])
        assert len(basis.sets(2)) == 2 and len(basis._levels) == 1
        reads.clear()
        basis.sets(3)
        assert len(basis._levels) == 2
        assert reads.count("COARSE_SET_CAP") == 1

    # The five `geom:b,L` bornologies of the `queries` benchmark workload, and
    # the seed {5i : |i| <= 81} of `z_quotient_metric` at R=200, whose
    # sumsets (163 x 163 pairs into 325 sums, and so on) take the bit mask.
    @pytest.mark.parametrize(
        "seed",
        [
            *(
                pytest.param(GeometricSeed(base, length), id=f"{base}-{length}")
                for base, length in [(10, 6), (2, 8), (3, 5), (5, 4), (4, 6)]
            ),
            pytest.param(Explicit(tuple((5 * i,) for i in range(-81, 82))), id="5i-81"),
        ],
    )
    def test_generated_levels_match_the_mul_comprehension(self, seed):
        def levels():
            basis = GeneratedBasis(Z, [seed], depth_cap=4)
            basis.sets(10**6)
            return basis._levels

        with mul_product_sets():
            expected = levels()
        assert levels() == expected

    # The seed {5i : |i| <= 21} of `z_quotient_metric` at R=50 and k=5, and
    # a geometric seed, on Z; a seed on each other abelian kind.
    @pytest.mark.parametrize(
        "spec,seed",
        [
            pytest.param(Z, Explicit(tuple((5 * i,) for i in range(-21, 22))), id="Z-5i-21"),
            pytest.param(Z, GeometricSeed(10, 6), id="Z-geom-10-6"),
            pytest.param(Z2, Explicit(((1, 0), (0, 3), (2, -1))), id="Z2"),
            pytest.param(GroupSpec.cyclic(7), Explicit(((2,), (3,))), id="Z/7"),
            pytest.param(
                GroupSpec.direct_product(Z, GroupSpec.cyclic(5)),
                Explicit(((1, 2), (4, 0), (-3, 4))),
                id="ZxZ/5",
            ),
        ],
    )
    def test_abelian_levels_match_both_product_orders(self, spec, seed, monkeypatch):
        # On an abelian kind b*a is a*b, so each unordered product is built
        # once; levels 0-3 must equal those built with both orders, by more
        # `product_set` calls.
        calls = []
        product_set = type(spec).product_set

        def counted(self, a, b, cap):
            calls.append(None)
            return product_set(self, a, b, cap)

        def levels():
            calls.clear()
            basis = GeneratedBasis(spec, [seed], depth_cap=3)
            basis.sets(10**6)
            return basis._levels, len(calls)

        monkeypatch.setattr(type(spec), "product_set", counted)
        assert spec.abelian
        once, fewer = levels()
        monkeypatch.setattr(type(spec), "abelian", False)
        both, more = levels()
        assert once == both
        assert fewer < more

    def test_generated_level_sizes_through_level_five(self):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 6)], depth_cap=5)
        basis.sets(10**6)
        assert [len(level) for level in basis._levels] == [2, 5, 10, 24, 66, 176]


class TestMember:
    def test_seed_prefix_member_at_depth_one(self):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 3)])
        verdict = member(basis, [(0,), (10,), (100,)], depth=1)
        assert verdict.is_member
        assert verdict.cover == [1]
        assert not verdict.via_singleton_axiom

    def test_not_covered_is_not_a_refutation(self):
        basis = MinimalBasis(Z)
        verdict = member(basis, [(0,), (50,)], depth=3)
        assert verdict.status == "not-covered-at-depth"
        deeper = member(basis, [(0,), (50,)], depth=200)
        assert deeper.is_member

    def test_singleton_axiom(self):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 2)])
        verdict = member(basis, [(77,)], depth=1)
        assert verdict.is_member
        assert verdict.via_singleton_axiom

    def test_empty_query(self):
        assert member(MinimalBasis(Z), [], depth=1).is_member

    def test_greedy_cover_indices(self):
        basis = MinimalBasis(Z)
        verdict = member(basis, [(0,), (1,), (-1,)], depth=5)
        assert verdict.is_member
        assert verdict.cover == [1, 2, 3]

    @pytest.mark.parametrize(
        "basis,query,depth,status,drawn",
        [
            # The stream ends after level 8: 1+0+2+2+2+3+5+6+8 = 29 sets.
            (GeneratedBasis(Z, [Explicit(((0,),))]), [(5,), (6,)], 10**6, "not-covered-at-depth", 29),
            (MinimalBasis(Z), [(0,), (50,)], 3, "not-covered-at-depth", 3),
            (MinimalBasis(Z), [(0,), (1,), (-1,)], 40, "member", 3),
            (GeneratedBasis(Z, [GeometricSeed(10, 2)]), [(77,)], 1, "member", 1),
            (MinimalBasis(Z), [], 7, "member", 0),
        ],
    )
    def test_depth_examined_counts_the_sets_drawn(self, basis, query, depth, status, drawn):
        verdict = member(basis, query, depth)
        assert (verdict.status, verdict.depth_examined) == (status, drawn)

    def test_member_depth_no_axiom(self):
        basis = MinimalBasis(Z)
        assert member_depth(basis, [(2,)], depth_cap=10) == 4
        assert member_depth(basis, [(9,)], depth_cap=5) is HORIZON

    def test_member_answers_before_a_capped_level(self, monkeypatch):
        # Level 1 holds seed * seed, past a set cap of 7.  A query that level 0
        # covers is answered without building it; one that needs it raises,
        # again on a retry.
        monkeypatch.setenv("COARSE_SET_CAP", "7")
        basis = GeneratedBasis(Z, [GeometricSeed(10, 6)])
        verdict = member(basis, [(0,), (10,), (100,)], depth=40)
        assert verdict.is_member
        assert verdict.cover == [1]
        assert len(basis._levels) == 1
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                member(basis, [(1,), (3,)], depth=40)

    def test_member_depth_builds_only_what_it_reads(self):
        basis = GeneratedBasis(Z, [GeometricSeed(10, 6)])
        assert member_depth(basis, [(0,), (10,)], depth_cap=16) == 1
        assert len(basis._levels) == 1

    @pytest.mark.parametrize(
        "basis,queries",
        [
            (
                GeneratedBasis(Z, [GeometricSeed(10, 6)]),
                [
                    [(0,), (10,), (100,)],
                    [(-10,), (10,)],
                    [(1,), (3,)],
                    [(2 * i,) for i in range(26)],
                ],
            ),
            (MinimalBasis(Z), [[(0,)], [(2,), (-1,)], [(1,), (50,)]]),
        ],
        ids=["geom:10,6", "minimal"],
    )
    @pytest.mark.parametrize("depth_cap", [0, 1, 5, 12])
    def test_member_depth_matches_the_union_form(self, basis, queries, depth_cap):
        def by_union(query):
            # The reference: union every drawn set, then test containment.
            covered = set()
            for idx, b in enumerate(basis.sets(depth_cap), start=1):
                covered |= b
                if frozenset(query) <= covered:
                    return idx
            return HORIZON

        answers = []
        for query in [[], *queries]:
            answers.append(member_depth(basis, query, depth_cap))
            assert answers[-1] == by_union(query), query
        assert answers[0] == (HORIZON if depth_cap == 0 else 1)
        if depth_cap >= 5:
            assert HORIZON in answers and any(a is not HORIZON and a > 1 for a in answers), answers

    @given(st.sets(st.integers(-6, 6), min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_member_consistent_with_depth(self, values):
        basis = MinimalBasis(Z)
        query = frozenset((v,) for v in values)
        d = member_depth(basis, query, depth_cap=13)
        assert d is not None
        assert member(basis, query, d).is_member
        if d > 1 and len(query) > 1:
            assert not member(basis, query, d - 1).is_member


class TestChainMetric:
    def test_minimal_basis_on_integers(self):
        m = metric_from_basis(MinimalBasis(Z))
        assert m.eval((0,), (0,)) == 0
        assert m.eval((0,), (1,)) == 2
        assert m.eval((0,), (-1,)) == 2

    def test_against_recomputed_chain(self):
        basis = MinimalBasis(Z)
        m = metric_from_basis(basis)
        for n in range(1, 6):
            sym = {Z.identity()}
            for b in basis.sets(n):
                sym |= b
                sym |= {Z.inv(x) for x in b}
            level = sym_power(Z, sym, n)
            for g in level:
                assert m.eval(Z.identity(), g) is not HORIZON
                assert m.eval(Z.identity(), g) <= n

    @pytest.mark.parametrize(
        "make",
        [lambda: MinimalBasis(Z), lambda: GeneratedBasis(Z, [GeometricSeed(10, 3)])],
        ids=["minimal", "geom:10,3"],
    )
    def test_levels_match_the_mul_comprehension(self, make):
        def levels():
            m = ChainMetric(make())
            return [m._level(n) for n in range(6)]

        with mul_product_sets():
            expected = levels()
        assert levels() == expected

    def test_left_invariance(self):
        m = metric_from_basis(MinimalBasis(Z), n_cap=6)
        rng = random.Random(2)
        pts = [(i,) for i in range(-8, 9)]
        for _ in range(200):
            a, g, h = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert m.eval(Z.mul(a, g), Z.mul(a, h)) == m.eval(g, h)

    def test_metric_axioms_on_window(self):
        m = metric_from_basis(MinimalBasis(Z), n_cap=8)
        window = [(i,) for i in range(-5, 6)]
        for x, y in itertools.product(window, repeat=2):
            assert m.eval(x, x) == 0
            assert m.eval(x, y) == m.eval(y, x)
            if x != y:
                assert m.eval(x, y) > 0
        for x, y, z in itertools.product(window[::2], repeat=3):
            assert m.eval(x, z) <= m.eval(x, y) + m.eval(y, z)

    def test_set_cap(self, monkeypatch):
        # C_2 = {-2..2} fits a set cap of 10; C_4 = {-1, 0, 1, ±2}^4 does not.
        monkeypatch.setenv("COARSE_SET_CAP", "10")
        m = metric_from_basis(MinimalBasis(Z))
        assert m.eval((0,), (2,)) == 2
        with pytest.raises(BudgetExceededError):
            m.eval((0,), (100,))

    def test_set_cap_stops_the_product(self, monkeypatch):
        # Building C_4 = sym^4 with sym = {0, ±1, ±2}, the product
        # sym^2 * sym = {-6..6} has 13 elements, past the cap of 10: at most
        # one row x*sym may be built past it, not all nine.
        monkeypatch.setenv("COARSE_SET_CAP", "10")
        m = metric_from_basis(MinimalBasis(Z))
        with counted_product_rows() as calls, pytest.raises(BudgetExceededError):
            m.eval((0,), (100,))
        assert 10 < sum(calls[-1]) <= 10 + 5

    def test_horizon_past_cap(self):
        m = metric_from_basis(MinimalBasis(Z), n_cap=3)
        assert m.eval((0,), (100,)) is HORIZON
