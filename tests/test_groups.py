import copy
import functools
import itertools
import pickle
import random
import tracemalloc
from operator import add, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsegroups import groups, metrics
from coarsegroups.bornology import Explicit, GeometricSeed
from coarsegroups.groups import (
    BudgetExceededError,
    Cyclic,
    FreeAbelian,
    GroupSpec,
    Integers,
    _Value,
    set_size_cap,
)
from coarsegroups.metrics import QuotientWordMetric, WordNorm

from oracles import (
    bfs_distances,
    cayley_adjacency,
    cube,
    heis_from_matrix,
    heis_to_matrix,
    matinv_unitriangular,
    matmul3,
)

Z = GroupSpec.free_abelian(1)
Z2 = GroupSpec.free_abelian(2)
C5 = GroupSpec.cyclic(5)
H = GroupSpec.heisenberg()


def residues(k):
    """Every element of Z/k, listed without the package."""
    return [(i,) for i in range(k)]


triples = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)
)
# Integer lists for rank-1 sumsets: progressions (dense, so most sums
# repeat), sparse spreads far wider than their size, and small lists with
# repeats; each may be empty or a singleton, and may hold negatives.  The
# sparse spread stays within 2 * 10^5, so that a bit mask built where it
# should not be stays small; test_sparse_z_product_set_builds_no_mask
# covers the wide spans.
int_lists = st.one_of(
    st.builds(
        lambda start, step, n: [start + step * i for i in range(n)],
        st.integers(-60, 60),
        st.integers(1, 7),
        st.integers(0, 40),
    ),
    st.lists(st.integers(-(10**5), 10**5), max_size=12),
    st.lists(st.integers(-30, 30), max_size=30),
)


class TestIdentity:
    def test_free_abelian(self):
        assert Z2.identity() == (0, 0)

    def test_heisenberg(self):
        assert H.identity() == (0, 0, 0)

    def test_cyclic(self):
        assert C5.identity() == (0,)

    def test_left_identity(self):
        for g in H.ball(2):
            assert H.mul(H.identity(), g) == g


class TestMul:
    def test_heisenberg_generators(self):
        assert H.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)

    def test_heisenberg_matches_matrix_oracle(self):
        g, h = (1, 0, 0), (0, 1, 0)
        m = matmul3(heis_to_matrix(g), heis_to_matrix(h))
        assert H.mul(g, h) == heis_from_matrix(m)

    def test_free_abelian(self):
        assert Z.mul((3,), (4,)) == (7,)

    def test_cyclic(self):
        assert C5.mul((3,), (4,)) == (2,)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            H.check_element((1, 2))

    @given(triples, triples)
    @settings(max_examples=300)
    def test_oracle_agreement_random(self, g, h):
        m = matmul3(heis_to_matrix(g), heis_to_matrix(h))
        assert H.mul(g, h) == heis_from_matrix(m)

    def test_oracle_agreement_bulk(self):
        rng = random.Random(7)
        for _ in range(10_000):
            g = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
            h = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
            m = matmul3(heis_to_matrix(g), heis_to_matrix(h))
            assert H.mul(g, h) == heis_from_matrix(m)


class TestInv:
    def test_heisenberg_formula(self):
        n = 3
        assert H.inv((n + 1, 1, 1)) == (-(n + 1), -1, n)

    def test_heisenberg_matches_matrix_oracle(self):
        for g in [(4, 1, 1), (2, -3, 7), (0, 0, 5)]:
            m = matinv_unitriangular(heis_to_matrix(g))
            assert H.inv(g) == heis_from_matrix(m)

    def test_free_abelian(self):
        assert Z2.inv((2, -1)) == (-2, 1)

    def test_identity(self):
        assert H.inv(H.identity()) == H.identity()

    @given(triples)
    def test_inverse_law(self, g):
        assert H.mul(g, H.inv(g)) == H.identity()
        assert H.mul(H.inv(g), g) == H.identity()


class TestIntegers:
    """Z is `Integers`, the rank-1 `FreeAbelian` with an int law, however
    the spec is built; specs of rank 2 and up keep the tuple law."""

    @given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30))
    @settings(max_examples=300)
    @example(3, 4)
    @example(0, -5)
    def test_law_is_the_tuple_law_and_the_matrix_oracle(self, x, y):
        # Z embeds in the Heisenberg matrices as (x, 0, 0): the oracle adds
        # and inverts x by matrix arithmetic.
        g, h = (x,), (y,)
        product = heis_from_matrix(matmul3(heis_to_matrix((x, 0, 0)), heis_to_matrix((y, 0, 0))))
        inverse = heis_from_matrix(matinv_unitriangular(heis_to_matrix((x, 0, 0))))
        assert Z.mul(g, h) == FreeAbelian.mul(Z, g, h) == product[:1]
        assert Z.inv(g) == FreeAbelian.inv(Z, g) == inverse[:1]

    def test_every_rank_1_spec_is_integers_and_equal(self):
        z23 = GroupSpec.free_abelian(1, ((2,), (3,)))
        for spec, built in [
            (Z, [GroupSpec.free_abelian(1), FreeAbelian(((1,),), 1), Integers(((1,),), 1)]),
            (z23, [FreeAbelian(((2,), (3,)), 1)]),
        ]:
            copies = [copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))]
            for other in built + copies:
                assert type(other) is Integers and other == spec and hash(other) == hash(spec)
            # As before the rank-1 class: equal and hashed by (generators, rank).
            assert hash(spec) == hash((spec.generating_set, 1))
        assert Z != z23 and Z != GroupSpec.cyclic(2)
        for other in [FreeAbelian(((1, 0), (0, 1)), 2), pickle.loads(pickle.dumps(Z2)), copy.deepcopy(Z2)]:
            assert type(other) is FreeAbelian and other == Z2 and hash(other) == hash(Z2)

    @pytest.mark.parametrize(
        "spec, steps, nodes",
        [
            (GroupSpec.direct_product(Z, Z), [(1, 0), (-1, 0), (0, 1), (0, -1)], cube(8, 2)),
            (GroupSpec.free_abelian(1, ((2,), (3,))), [(2,), (-2,), (3,), (-3,)], cube(24, 1)),
        ],
        ids=["ZxZ", "Z-2-3"],
    )
    def test_balls_through_the_int_law_are_the_bfs_balls(self, spec, steps, nodes):
        # The oracle's Cayley graph adds the steps with plain ints, not with
        # the law under test; the cube holds the word ball of radius 8.
        nodes = set(nodes)
        adjacency = {u: [v for s in steps if (v := tuple(map(add, u, s))) in nodes] for u in nodes}
        dist = bfs_distances(adjacency, spec.identity())
        for r in range(9):
            assert spec.ball(r) == sorted(g for g, d in dist.items() if d <= r)


class TestUnitVectors:
    def test_kept_unit_vectors_hold_at_most_the_set_cap(self, monkeypatch):
        # Ranks 1..6 hold 1 + 4 + ... + 36 = 91 ints, under a cap of 100;
        # rank 7 would make 140.  Ranks past the cap are built for each
        # spec and still have the closed-form word distance.
        monkeypatch.setenv("COARSE_SET_CAP", "100")
        monkeypatch.setattr(groups, "_UNIT_VECTORS", {})
        for n in range(1, 30):
            spec = GroupSpec.free_abelian(n)
            assert spec.word_distance(64)(spec.identity(), spec.generating_set[-1]) == 1
            assert GroupSpec.free_abelian(n, spec.generating_set[::-1]).word_distance(64) is None or n == 1
        assert list(groups._UNIT_VECTORS) == [1, 2, 3, 4, 5, 6]
        assert GroupSpec.free_abelian(3).generating_set is groups._UNIT_VECTORS[3]


class TestAssociativity:
    @pytest.mark.parametrize("spec", [Z, Z2, C5, H, GroupSpec.direct_product(Z, C5)])
    def test_exhaustive_on_small_balls(self, spec):
        ball = spec.ball(2) if spec.kind == "heisenberg" else spec.ball(3)
        sample = ball[:: max(1, len(ball) // 12)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))

    @given(triples, triples, triples)
    @settings(max_examples=200)
    def test_heisenberg_random(self, a, b, c):
        assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


class TestBall:
    def test_integer_interval(self):
        assert Z.ball(2) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_cyclic_saturates(self):
        assert C5.ball(10) == [(0,), (1,), (2,), (3,), (4,)]

    def test_radius_zero(self):
        for spec in (Z, Z2, C5, H):
            assert spec.ball(0) == [spec.identity()]

    def test_nesting(self):
        for spec in (Z2, H):
            for r in range(4):
                assert set(spec.ball(r)) <= set(spec.ball(r + 1))

    def test_growth_by_generator_step(self):
        gens = H.symmetric_generators()
        for r in range(3):
            grown = set(H.ball(r))
            for g in H.ball(r):
                for s in gens:
                    grown.add(H.mul(g, s))
            assert grown == set(H.ball(r + 1))

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setenv("COARSE_BALL_CAP", "50")
        with pytest.raises(BudgetExceededError):
            Z2.ball(100)

    def test_deterministic_order(self):
        b = H.ball(3)
        assert b == sorted(b)
        assert b == H.ball(3)


class TestQuotientByLattice:
    """Z/k is the quotient of Z by the lattice kZ; `_reduce` is its canonical form."""

    @given(
        st.integers(2, 200),
        st.integers(-(10**30), 10**30),
        st.integers(-(10**30), 10**30),
    )
    @settings(max_examples=300, deadline=None)
    @example(2, -1, 1)
    @example(7, -500, 10**30)
    def test_law_check_and_box_match_python_mod(self, k, x, y):
        c = GroupSpec.cyclic(k)
        g, h = (x % k,), (y % k,)
        assert c._reduce((x,)) == g
        assert c.mul(g, h) == ((x + y) % k,)
        assert c.inv(g) == (-x % k,)
        assert c.mul(g, c.inv(g)) == c.identity() == (0,)
        c.check_element(g)
        for bad in [(k,), (-1,), (0, 0)] + ([(x,)] if (x,) != g else []):
            with pytest.raises(TypeError):
                c.check_element(bad)

    def test_residues(self):
        assert GroupSpec.cyclic(5).ball(10) == [(0,), (1,), (2,), (3,), (4,)]

    def test_canonical_form_unique(self):
        c = GroupSpec.cyclic(6)
        seen = {c._reduce((a,)) for a in range(-18, 19)}
        assert len(seen) == 6

    @given(st.integers(2, 60), st.integers(-(10**6), 10**6), st.integers(-50, 50))
    @settings(max_examples=300, deadline=None)
    @example(2, -1, 1)
    @example(7, -9, -3)
    def test_canonical_form_properties(self, k, x, coeff):
        c = GroupSpec.cyclic(k)
        canon = c._reduce((x,))
        assert c._reduce(canon) == canon
        assert c._reduce((x + coeff * k,)) == canon
        # Every coset has its canonical form inside a box of radius k.
        assert len({c._reduce((v,)) for v in range(-k, k + 1)}) == k


class TestEnumeration:
    def test_integer_stream_order(self):
        assert list(itertools.islice(Z.sphere_stream(), 5)) == [(0,), (1,), (-1,), (2,), (-2,)]

    def test_stream_prefix_stable(self):
        prefix = list(itertools.islice(H.sphere_stream(), 20))
        assert prefix == list(itertools.islice(H.sphere_stream(), 25))[:20]


class TestSymmetricGenerators:
    CASES = {
        "Z2": (Z2, ((1, 0), (-1, 0), (0, 1), (0, -1))),
        "H": (H, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))),
        # (1,) is its own inverse in Z/2.
        "Z/2": (GroupSpec.cyclic(2), ((1,),)),
        "Z{1,-1,2}": (
            GroupSpec.free_abelian(1, ((1,), (-1,), (2,))),
            ((1,), (-1,), (2,), (-2,)),
        ),
        "ZxZ/2": (
            GroupSpec.direct_product(Z, GroupSpec.cyclic(2)),
            ((1, 0), (-1, 0), (0, 1)),
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_each_generator_then_its_inverse_once(self, name):
        spec, expected = self.CASES[name]
        assert spec.symmetric_generators() == expected


C3 = GroupSpec.cyclic(3)
ZxC3 = GroupSpec.direct_product(Z, C3)
HxC3 = GroupSpec.direct_product(H, C3)


class TestDirectProduct:
    """Elements are the left factor's coordinates followed by the right's."""

    def test_identity(self):
        assert ZxC3.rank == 2
        assert ZxC3.identity() == (0, 0)
        for g in ZxC3.ball(3):
            assert ZxC3.mul(ZxC3.identity(), g) == g == ZxC3.mul(g, ZxC3.identity())

    def test_check_element(self):
        for g in [(0, 0), (-7, 2), (5, 1)]:
            ZxC3.check_element(g)
        # Nested factors, an unreduced residue, too few and too many ints.
        for g in [((1,), (2,)), (1, 3), (1,), (1, 2, 0)]:
            with pytest.raises(TypeError):
                ZxC3.check_element(g)

    def test_law_is_factorwise_over_a_nonabelian_factor(self):
        assert HxC3.rank == 4
        ball = HxC3.ball(2)
        for g in ball:
            assert HxC3.inv(g) == H.inv(g[:3]) + C3.inv(g[3:])
            for h in ball:
                assert HxC3.mul(g, h) == H.mul(g[:3], h[:3]) + C3.mul(g[3:], h[3:])


def _heisenberg_nodes(c_bound: int) -> list:
    """Heisenberg triples with |a|, |b| <= 8 and |c| <= c_bound."""
    side = range(-8, 9)
    return list(itertools.product(side, side, range(-c_bound, c_bound + 1)))


# Each node set holds the word ball of radius 8, built without spheres():
# a word of length 8 moves a coordinate of Z by at most 8 (by 24 with the
# generators {2, 3}).  On H only b-letters change c, each by the current a,
# so |c| <= (a-letters)(b-letters) <= 16; with the extra generator the
# k-th letter changes c by at most k, so |c| <= 36.
# On Z/k the node set is every residue.
SPHERE_CASES = {
    "Z": (Z, cube(8, 1)),
    "Z-2-3": (GroupSpec.free_abelian(1, ((2,), (3,))), cube(24, 1)),
    "Z2": (Z2, cube(8, 2)),
    "Z/2": (GroupSpec.cyclic(2), residues(2)),
    "Z/7": (GroupSpec.cyclic(7), residues(7)),
    "H": (H, _heisenberg_nodes(16)),
    "H-extra": (
        GroupSpec.heisenberg(((1, 0, 0), (0, 1, 0), (1, 1, 0))),
        _heisenberg_nodes(36),
    ),
    "ZxZ/3": (ZxC3, [a + b for a in cube(8, 1) for b in residues(3)]),
    # Z^2 modulo the lattice 3Z x 5Z.
    "Z2/(3,5)": (
        GroupSpec.direct_product(C3, GroupSpec.cyclic(5)),
        [a + b for a in residues(3) for b in residues(5)],
    ),
}


class TestSpheres:
    @pytest.mark.parametrize("name", list(SPHERE_CASES))
    def test_match_bfs_oracle(self, name):
        spec, nodes = SPHERE_CASES[name]
        dist = bfs_distances(cayley_adjacency(spec, nodes), spec.identity())
        expected = [{g for g, d in dist.items() if d == k} for k in range(9)]
        while not expected[-1]:  # a finite group's stream ends early
            expected.pop()
        got = [set(sphere) for sphere in itertools.islice(spec.spheres(), 9)]
        assert got == expected
        assert sum(map(len, got)) == len(set().union(*got))

    def test_finite_group_stream_ends(self):
        spheres = [sorted(s) for s in GroupSpec.cyclic(7).spheres()]
        assert spheres == [[(0,)], [(1,), (6,)], [(2,), (5,)], [(3,), (4,)]]


def _bfs_spheres(spec):
    """The breadth-first search of the base class, whatever the kind lists."""
    return GroupSpec.spheres(spec)


def _bfs_ball(spec, r: int) -> list:
    return sorted(itertools.chain.from_iterable(itertools.islice(_bfs_spheres(spec), r + 1)))


@functools.cache
def _oracle_distances(name: str) -> dict:
    spec, nodes = SPHERE_CASES[name]
    return bfs_distances(cayley_adjacency(spec, nodes), spec.identity())


C7 = GroupSpec.cyclic(7)


class TestClosedForms:
    """The Heisenberg ball and the spheres of Z, listed without a search,
    against the breadth-first search and the Cayley-graph oracle."""

    @pytest.mark.parametrize("r", range(13))
    def test_heisenberg_ball_is_the_bfs_ball(self, r):
        assert H.ball(r) == _bfs_ball(H, r)

    @pytest.mark.parametrize("r", range(9))
    def test_heisenberg_ball_matches_the_cayley_oracle(self, r):
        dist = _oracle_distances("H")
        assert H.ball(r) == sorted(g for g, d in dist.items() if d <= r)

    # Columns (a, b) in all four sign quadrants, on an axis, at the origin
    # and with |a| == |b|; radii 9 and 10 give both parities of r - |a| - |b|.
    @pytest.mark.parametrize(
        "a, b",
        [(3, 1), (-3, 1), (3, -1), (-3, -1), (1, 3), (-1, -3), (2, 2), (-2, 2), (2, -2), (0, 3), (-4, 0), (0, 0)],
    )
    @pytest.mark.parametrize("r", [9, 10])
    def test_heisenberg_column_is_the_bfs_column(self, a, b, r):
        def column(ball):
            return [c for (x, y, c) in ball if (x, y) == (a, b)]

        got = column(H.ball(r))
        assert got == column(_bfs_ball(H, r))
        assert got == list(range(got[0], got[-1] + 1))

    # Z lists its spheres in closed form and is checked against the search;
    # Z/k's spheres are the search itself, so they are checked against the
    # Cayley-graph oracle of all k residues.
    @pytest.mark.parametrize("modulus", [None, 2, 5, 6, 7, 12])
    def test_line_and_cycle_spheres_are_the_bfs_spheres(self, modulus):
        spec = Z if modulus is None else GroupSpec.cyclic(modulus)
        got = list(itertools.islice(spec.spheres(), 20))
        if modulus is None:
            want = list(itertools.islice(_bfs_spheres(spec), 20))
        else:
            residues = [(r,) for r in range(modulus)]
            dist = bfs_distances(cayley_adjacency(spec, residues), spec.identity())
            want = [[g for g, d in dist.items() if d == r] for r in range(max(dist.values()) + 1)]
        assert [set(s) for s in got] == [set(s) for s in want]
        assert all(len(s) == len(set(s)) for s in got)
        stream = [g for s in want for g in sorted(s, key=groups.shell_key)]
        assert list(itertools.islice(spec.sphere_stream(), len(stream))) == stream

    @pytest.mark.parametrize(
        "spec, ball_searched, stream_searched",
        [
            (Z, False, False),
            (C7, True, True),
            (H, False, True),
            (Z2, True, True),
            (SPHERE_CASES["Z-2-3"][0], True, True),
            (SPHERE_CASES["H-extra"][0], True, True),
            (GroupSpec.cyclic(7, ((2,),)), True, True),
        ],
        ids=["Z", "Z/7", "H", "Z2", "Z-2-3", "H-extra", "Z/7-2"],
    )
    def test_only_the_standard_generators_skip_the_search(self, spec, ball_searched, stream_searched, monkeypatch):
        # The search calls `mul` once per element and generator; a closed
        # form calls it never.  The spheres of Z/k and the Heisenberg group
        # stay a search.
        calls = []
        mul = type(spec).mul

        def counted(self, g, h):
            calls.append(1)
            return mul(self, g, h)

        monkeypatch.setattr(type(spec), "mul", counted)
        ball = spec.ball(3)
        assert bool(calls) == ball_searched
        calls.clear()
        stream = list(itertools.islice(spec.sphere_stream(), len(ball)))
        assert bool(calls) == stream_searched
        monkeypatch.undo()
        assert sorted(stream) == ball == _bfs_ball(spec, 3)


class TestCapBoundary:
    """COARSE_BALL_CAP = |ball(r)| admits radius r; one less refuses it, with
    the one message, on the breadth-first search and the closed forms alike."""

    @pytest.mark.parametrize("spec", [Z2, H, Z, C7], ids=["Z2", "H", "Z", "Z/7"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_cap_fires_at_the_same_radius(self, spec, r, monkeypatch):
        size = len(spec.ball(r))
        norm = WordNorm(spec)
        far = next(g for g in spec.ball(r) if norm(g) == r)
        monkeypatch.setenv("COARSE_BALL_CAP", str(size))
        assert len(spec.ball(r)) == size
        assert len(list(itertools.islice(spec.sphere_stream(), size))) == size
        assert WordNorm(spec)(far) == r
        monkeypatch.setenv("COARSE_BALL_CAP", str(size - 1))
        refused = pytest.raises(BudgetExceededError, match=f"^word ball exceeded size cap {size - 1}$")
        with refused:
            spec.ball(r)
        with refused:
            list(itertools.islice(spec.sphere_stream(), size))
        norm = WordNorm(spec)
        for _ in range(2):  # a retry raises again instead of ending the table
            with refused:
                norm(far)

    def test_huge_heisenberg_radius_raises_before_listing(self):
        # The search would build 10^6 elements before refusing; the closed
        # form sizes each column before listing it.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^word ball exceeded size cap 1000000$"):
                H.ball(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# Each spec with the elements whose coordinates lie in [-2, 2] (every
# residue on Z/k), listed without the package.
HOOK_CASES = {
    "Z": (Z, cube(2, 1)),
    "Z2": (Z2, cube(2, 2)),
    "Z/7": (GroupSpec.cyclic(7), residues(7)),
    "H": (H, cube(2, 3)),
    "HxZ/3": (HxC3, [a + b for a in cube(2, 3) for b in residues(3)]),
}

ABELIAN_CASES = {
    **HOOK_CASES,
    "ZxZ/5": (
        GroupSpec.direct_product(Z, GroupSpec.cyclic(5)),
        [a + b for a in cube(2, 1) for b in residues(5)],
    ),
    "ZxH": (GroupSpec.direct_product(Z, H), cube(2, 4)),
}


class TestSetHooks:
    """`coordinate_rows`, `product_set` and `left_shadow` agree with `mul`
    and `inv` on every kind."""

    @staticmethod
    def inputs(name):
        # The box is reversed so that `coordinate_rows` cannot pass by sorting.
        spec, box = HOOK_CASES[name]
        return spec, spec.ball(2), box[::-1]

    @pytest.mark.parametrize("name", list(HOOK_CASES))
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_translate_coordinates_is_translates_in_order(self, name, data):
        # Each row `coordinate_rows` yields is coordinate i of g*h by `mul`,
        # for every coordinate counted from either end on every kind, so the
        # Heisenberg rows shared by a run of equal g[i] and the law it defers
        # to for c both run.  Six distinct picks hold two with equal g[i]
        # wherever a ball(2) coordinate takes at most five values.  The g's
        # come sorted by g[i], each twice (adjacent repeats, of one element
        # and of distinct ones), as drawn twice over (repeats apart), and
        # empty.
        spec, ball, box = self.inputs(name)
        size = min(6, len(ball))
        picks = data.draw(st.lists(st.sampled_from(ball), min_size=size, max_size=10, unique=True))
        hs = data.draw(st.sampled_from([box, box[: len(box) // 3], []]))
        translates = {g: [spec.mul(g, h) for h in hs] for g in picks}
        for i in range(-spec.rank, spec.rank):
            for gs in (sorted(picks + picks, key=itemgetter(i)), picks + picks, []):
                expected = [[t[i] for t in translates[g]] for g in gs]
                # The g's may come from any iterable, read once, as a map.
                assert list(spec.coordinate_rows(iter(gs), hs, i)) == expected

    @pytest.mark.parametrize("name", list(HOOK_CASES))
    def test_product_set_is_the_mul_comprehension(self, name):
        spec, ball, box = self.inputs(name)
        for a, b in [(ball, box), (box, ball), (frozenset(ball), frozenset(ball))]:
            assert spec.product_set(a, b, set_size_cap()) == {spec.mul(x, y) for x in a for y in b}
        assert spec.product_set([], box, 0) == set()
        assert spec.product_set(ball, [], 0) == set()

    @pytest.mark.parametrize("name", list(HOOK_CASES))
    def test_product_set_raises_exactly_past_the_cap(self, name):
        # Caps at and above len(a) * len(b) take the one comprehension; caps
        # below it take the row-at-a-time loop, which must raise exactly when
        # the whole product would pass the cap.
        spec, ball, box = self.inputs(name)
        full = spec.product_set(ball, box, len(ball) * len(box))
        for cap in (len(full) - 1, len(full), len(full) + 1, len(ball) * len(box)):
            if cap < len(full):
                with pytest.raises(BudgetExceededError):
                    spec.product_set(ball, box, cap)
            else:
                assert spec.product_set(ball, box, cap) == full
        assert spec.product_set([], box, 0) == set()

    @pytest.mark.parametrize("name", list(ABELIAN_CASES))
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_abelian_is_whether_mul_commutes(self, name, data):
        # Some two generators fail to commute exactly on a kind that is not
        # abelian, and no two drawn elements fail on one that is.  The fact
        # belongs to the kind: a spec cannot set it.
        spec, box = ABELIAN_CASES[name]
        gens = spec.generating_set
        assert spec.abelian == all(spec.mul(g, h) == spec.mul(h, g) for g in gens for h in gens)
        x, y = (data.draw(st.sampled_from(box)) for _ in range(2))
        assert spec.abelian <= (spec.mul(x, y) == spec.mul(y, x))
        with pytest.raises(AttributeError):
            spec.abelian = not spec.abelian

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=12))
    @example([])
    @example([(2, 9), (2, 9), (9, 2)])
    def test_z_left_shadow_is_the_base_body(self, xys):
        # Repeated pairs and mirrored ones give one difference each.
        pairs = [((x,), (y,)) for x, y in xys]
        assert Z.left_shadow(pairs) == GroupSpec.left_shadow(Z, pairs)

    @pytest.mark.parametrize("k", [1, 5, 130])
    def test_z_product_set_on_repeated_sums(self, k):
        # The z_quotient_metric shape: a seed {k*i} and its sumset, where
        # most sums repeat (a box barely repeats any).  Under the cap and at
        # every cap past the distinct sums, it is the mul comprehension.
        seed = [(k * i,) for i in range(-12, 13)]
        for a, b in [(seed, seed), (Z.product_set(seed, seed, len(seed) ** 2), seed)]:
            full = {Z.mul(x, y) for x in a for y in b}
            assert len(full) < len(a) * len(b) // 5
            for cap in (len(full), len(full) + 1, len(a) * len(b)):
                assert Z.product_set(a, b, cap) == full
            with pytest.raises(BudgetExceededError):
                Z.product_set(a, b, len(full) - 1)

    @given(
        xs=int_lists,
        ys=int_lists,
        kinds=st.tuples(st.sampled_from([list, frozenset]), st.sampled_from([list, frozenset])),
    )
    @settings(max_examples=300, deadline=None)
    @example(xs=[0, 1, 2], ys=[0, 3], kinds=(list, list))  # width == pairs
    @example(xs=[0, 1, 2], ys=[0, 2], kinds=(list, list))  # width == pairs - 1
    @example(xs=[0, 1, 5, 6], ys=[0, 1, 2], kinds=(list, frozenset))
    @example(xs=[-7], ys=[-3], kinds=(list, list))
    @example(xs=[], ys=[4, 5, 6], kinds=(frozenset, list))
    @example(xs=[5 * i for i in range(-81, 82)], ys=[5 * i for i in range(-81, 82)], kinds=(list, list))
    def test_z_product_set_is_the_mul_comprehension_on_both_paths(self, xs, ys, kinds):
        # Every cap around the distinct sums, the pairs and the span of the
        # sums: the bit mask runs where the width is below both the pairs
        # and the cap, the comprehension or the row loop elsewhere, and all
        # must give the mul comprehension or raise exactly past the cap.
        a, b = kinds[0]((x,) for x in xs), kinds[1]((y,) for y in ys)
        full = {Z.mul(x, y) for x in a for y in b}
        pairs = len(a) * len(b)
        width = max(xs) - min(xs) + max(ys) - min(ys) + 1 if pairs else 0
        for cap in {len(full) - 1, len(full), pairs, width - 1, width, width + 1} - {-1}:
            if len(full) > cap:
                with pytest.raises(BudgetExceededError, match=f"exceeded size cap {cap}$"):
                    Z.product_set(a, b, cap)
            else:
                assert Z.product_set(a, b, cap) == full

    @pytest.mark.parametrize(
        "xs,ys,cap,masked",
        [
            ([0, 1, 2], [0, 3], 100, False),  # width 6 == pairs 6
            ([0, 1, 2], [0, 2], 100, True),  # width 5 == pairs - 1
            ([0, 1, 5, 6], [0, 1, 2], 9, True),  # width 9 == cap
            ([0, 1, 5, 6], [0, 1, 2], 8, False),  # width 9 == cap + 1: the row loop
            ([0, 1, 2, 3], [0, 1, 2], 5, False),  # 6 sums past a cap of 5: raises
            ([10**i for i in range(9)], [10**i for i in range(9)], 10**9, False),
            ([7], [7], 100, False),
            ([], [1, 2], 100, False),
        ],
        ids=["width=pairs", "width=pairs-1", "width=cap", "width=cap+1", "past-cap", "sparse", "singletons", "empty"],
    )
    def test_z_product_set_takes_the_mask_only_below_pairs_and_cap(self, xs, ys, cap, masked, monkeypatch):
        calls = []
        offsets = groups._sum_offsets
        monkeypatch.setattr(groups, "_sum_offsets", lambda *lists: calls.append(lists) or offsets(*lists))
        a, b = [(x,) for x in xs], [(y,) for y in ys]
        full = {Z.mul(x, y) for x in a for y in b}
        if len(full) > cap:
            with pytest.raises(BudgetExceededError):
                Z.product_set(a, b, cap)
        else:
            assert Z.product_set(a, b, cap) == full
        assert bool(calls) is masked

    def test_sparse_z_product_set_builds_no_mask(self):
        # {0, 1, 10, ..., 10^8}: 100 pairs whose sums span 2 * 10^8 values,
        # under a cap that would admit that many.  A mask of that span would
        # take hundreds of MiB to build and read; the pair loop takes a few
        # KiB.
        seed = [(0,)] + [(10**i,) for i in range(9)]
        tracemalloc.start()
        try:
            out = Z.product_set(seed, seed, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == {Z.mul(x, y) for x in seed for y in seed}
        assert peak < 2**20

    def test_heisenberg_coordinate_rows_match_matrix_oracle(self):
        # In cube order, rising, and reversed, falling, the g's come in runs
        # of equal g[0] (25 long) and of equal g[1] (5 long).  Every row,
        # shared or not, is the oracle's, on all six indices.
        box = cube(2, 3)
        for gs in (box, box[::-1]):
            products = [
                [heis_from_matrix(matmul3(heis_to_matrix(g), heis_to_matrix(h))) for h in box]
                for g in gs
            ]
            for i in range(-3, 3):
                expected = [[p[i] for p in row] for row in products]
                assert list(H.coordinate_rows(gs, box, i)) == expected

    def test_heisenberg_product_set_matches_matrix_oracle(self):
        a, b = H.ball(2), cube(1, 3)
        expected = {
            heis_from_matrix(matmul3(heis_to_matrix(x), heis_to_matrix(y)))
            for x in a
            for y in b
        }
        assert H.product_set(a, b, len(a) * len(b)) == expected


class TestValueSemantics:
    """Specs, seeds and entourages compare and hash by their fields."""

    def test_cyclic_is_the_lattice_quotient(self):
        # Z/<7>, the quotient that `quotient:7` projects to, is `cyclic(7)`.
        a, b = GroupSpec.cyclic(7), QuotientWordMetric(7).quotient
        assert a == b and hash(a) == hash(b) and a == Cyclic(((1,),), 7)
        assert a.generating_set == ((1,),) and a.modulus == 7 and a.rank == 1
        assert len({a, b, GroupSpec.cyclic(8), GroupSpec.cyclic(7, ((2,),))}) == 3

    def test_every_constructor_gives_equal_values(self):
        for make in (
            lambda: GroupSpec.free_abelian(2),
            lambda: GroupSpec.heisenberg(),
            lambda: GroupSpec.direct_product(H, GroupSpec.cyclic(3)),
            lambda: GroupSpec.cyclic(7),
        ):
            assert make() == make() and hash(make()) == hash(make())
        assert GroupSpec.free_abelian(1) != GroupSpec.free_abelian(1, ((2,), (3,)))
        assert GroupSpec.heisenberg() != GroupSpec.heisenberg(((0, 1, 0), (1, 0, 0)))

    def test_equal_fields_of_different_kinds_differ(self):
        class _Pairs(_Value):
            __slots__ = ("pairs",)

        assert Cyclic(((1,),), 1) != GroupSpec.free_abelian(1)
        assert Cyclic(((1,),), 1)._key() == GroupSpec.free_abelian(1)._key()
        assert Explicit(((1,),)) != _Pairs(((1,),))
        assert Explicit(((1,),))._key() == _Pairs(((1,),))._key()
        assert GroupSpec.free_abelian(1) != "Z"

    def test_records(self):
        assert GeometricSeed(10, 6) == GeometricSeed(10, 6)
        assert hash(GeometricSeed(10, 6)) == hash(GeometricSeed(10, 6))
        assert GeometricSeed(10, 6) != GeometricSeed(10, 5)
        with pytest.raises(ValueError):
            GeometricSeed(1, 3)

    @pytest.mark.parametrize(
        "value, field",
        [
            (GroupSpec.cyclic(7), "generating_set"),
            (GroupSpec.cyclic(7), "modulus"),
            (GroupSpec.heisenberg(), "generating_set"),
            (GeometricSeed(10, 6), "base"),
            (Explicit(((1,),)), "elements"),
            (Explicit(((1, 2), (3, 4))), "elements"),
        ],
        ids=["Z/7-gens", "Z/7-modulus", "H-gens", "geom", "explicit", "explicit-pairs"],
    )
    def test_fields_cannot_change(self, value, field):
        # A value keys sets and `cli.shared_basis`: changing a field would
        # change its hash under the key it was stored with.
        before, h = getattr(value, field), hash(value)
        with pytest.raises(AttributeError):
            setattr(value, field, ())
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = 1
        assert getattr(value, field) is before and hash(value) == h

    @pytest.mark.parametrize(
        "value",
        [
            GroupSpec.direct_product(H, GroupSpec.cyclic(3)),
            GroupSpec.cyclic(7),
            # Z^2 modulo the lattice 3Z x 5Z.
            GroupSpec.direct_product(GroupSpec.cyclic(3), GroupSpec.cyclic(5)),
            GeometricSeed(10, 6),
            Explicit(((1, 2), (3, 4))),
        ],
        ids=["HxZ/3", "Z/7", "Z2/L", "geom", "explicit"],
    )
    def test_copies_and_pickles_are_equal(self, value):
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value) and other == value and hash(other) == hash(value)

    def test_horizon_copies_and_pickles_are_the_marker(self):
        # Every overflow check reads `is HORIZON`: a copy that built a second
        # marker would read as a number.
        assert metrics.HORIZON is groups.HORIZON
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(groups.HORIZON, protocol)) is groups.HORIZON
        assert copy.copy(groups.HORIZON) is groups.HORIZON
        row = copy.deepcopy([1, groups.HORIZON])
        assert row[1] is groups.HORIZON and repr(row) == "[1, HORIZON]"
