"""Bornologies as streamed countable bases.

A bornology is handled through a deterministic stream of finite basis sets
B_1, B_2, ...  Membership of a finite query set is semi-decided: "member"
verdicts come with a verified cover, "not covered at this depth" is never a
proof of non-membership.  Streams are lazy: a set is built the first time it
is drawn, and membership draws only until it has an answer.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .groups import GroupSpec, Integers, _Value, check_set_size, set_size_cap
from .metrics import HORIZON, MetricEvaluator


# -- seed descriptors -------------------------------------------------


class Explicit(_Value):
    """An explicit finite seed set, compared by its `elements` tuple."""

    __slots__ = ("elements",)

    def materialize(self, spec: GroupSpec) -> frozenset:
        for g in self.elements:
            spec.check_element(g)
        return frozenset(self.elements)


class GeometricSeed(_Value):
    """{0, b, b^2, ..., b^L} inside the integers, truncated at length L."""

    __slots__ = ("base", "length_cap")

    def __init__(self, base: int, length_cap: int):
        super().__init__(base, length_cap)
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.length_cap < 1:
            raise ValueError("length cap must be positive")

    def materialize(self, spec: GroupSpec) -> frozenset:
        if not isinstance(spec, Integers):
            raise ValueError("geometric seeds live in the integers Z")
        return frozenset([(0,)] + [(self.base**k,) for k in range(1, self.length_cap + 1)])


# -- basis streams ----------------------------------------------------


def _capped(out, cap: int) -> frozenset:
    """`out` as a frozenset; raises once it passes `cap`, the level's `COARSE_SET_CAP`."""
    check_set_size(len(out), cap)
    return frozenset(out)


def _ordered(sets) -> list[frozenset]:
    """`sets` by (size, sorted encoding); only sets of one size sort their elements."""
    runs = [list(run) for _, run in itertools.groupby(sorted(sets, key=len), key=len)]
    return [s for run in runs for s in (sorted(run, key=sorted) if len(run) > 1 else run)]


class BornologyBasis:
    """Deterministic stream of finite basis sets B_1, B_2, ..."""

    spec: GroupSpec

    def iter_sets(self) -> Iterator[frozenset]:
        """B_1, B_2, ..., built on demand; every call yields the same stream."""
        raise NotImplementedError

    def sets(self, count: int) -> list[frozenset]:
        """The first `count` basis sets (fewer if the stream ends)."""
        return list(itertools.islice(self.iter_sets(), count))


class MinimalBasis(BornologyBasis):
    """Singletons of the fixed group enumeration: the finite-set bornology."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def iter_sets(self) -> Iterator[frozenset]:
        for g in self.spec.sphere_stream():
            yield frozenset([g])


class GeneratedBasis(BornologyBasis):
    """The minimal bornology containing the seed sets, streamed by levels.

    Level 0 holds the materialized seeds and their inverses.  Level n adds
    the n-th singleton of the group enumeration (none past the end of a
    finite group), inverses of the previous level, and unions and products
    of earlier sets whose level indices sum to n - 1: a union once per unordered
    pair of distinct sets (a | b is b | a, a | a is a), a product in both orders,
    or once per unordered pair on an abelian kind, through the group's
    `product_set` hook.  Translates arise as products with singletons.  Within
    a level, sets are ordered by (size, sorted encoding); duplicates never
    reappear.  The stream ends after level `depth_cap`.
    """

    def __init__(self, spec: GroupSpec, seeds, depth_cap: int = 8):
        if depth_cap < 1:
            raise ValueError("depth cap must be positive")
        self.spec = spec
        self.seeds = list(seeds)
        self.depth_cap = depth_cap
        self._levels: list[list[frozenset]] = []
        self._known: set[frozenset] = set()

    def _admit(self, bucket: dict, s: frozenset) -> None:
        if s and s not in self._known and s not in bucket:
            bucket[s] = None

    def _build_level(self) -> None:
        """Build the next level whole, then commit it; a cap error commits nothing."""
        n = len(self._levels)
        inv, cap = self.spec.inv, set_size_cap()
        bucket: dict[frozenset, None] = {}
        if n == 0:
            for seed in self.seeds:
                self._admit(bucket, _capped(seed.materialize(self.spec), cap))
            for seed in list(bucket):
                self._admit(bucket, _capped({inv(x) for x in seed}, cap))
        else:
            for g in itertools.islice(self.spec.sphere_stream(), n - 1, n):
                self._admit(bucket, _capped({g}, cap))
                self._admit(bucket, _capped({inv(g)}, cap))
            for s in self._levels[n - 1]:
                self._admit(bucket, _capped({inv(x) for x in s}, cap))
            product_set, abelian = self.spec.product_set, self.spec.abelian
            for i in range(n):
                j = n - 1 - i
                for ia, a in enumerate(self._levels[i]):
                    for ib, b in enumerate(self._levels[j]):
                        if (i, ia) < (j, ib):
                            self._admit(bucket, _capped(a | b, cap))
                        if (i, ia) <= (j, ib) or not abelian:
                            self._admit(bucket, frozenset(product_set(a, b, cap)))
        level = list(bucket) if n == 0 else _ordered(bucket)
        self._known.update(level)
        self._levels.append(level)

    def iter_sets(self) -> Iterator[frozenset]:
        for n in range(self.depth_cap + 1):
            if n == len(self._levels):
                self._build_level()
            yield from self._levels[n]


# -- membership -------------------------------------------------------


class MembershipVerdict:
    """Constructive cover verdict for a finite query set."""

    def __init__(self, status: str, depth_examined: int, cover=None, via_singleton_axiom=False):
        self.status = status  # "member" or "not-covered-at-depth"
        # Sets drawn: below depth if the stream ended or a cover came first.
        self.depth_examined = depth_examined
        self.cover = [] if cover is None else cover  # 1-based basis indices
        self.via_singleton_axiom = via_singleton_axiom

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def member(basis: BornologyBasis, query, depth: int) -> MembershipVerdict:
    """Semi-decide membership of a finite set at a basis-prefix depth.

    Member when the query is contained in the union of the first `depth`
    basis sets; the cover lists a greedy subfamily that already suffices.
    Singletons are members of every bornology regardless of depth.
    """
    query = frozenset(query)
    if not query:
        return MembershipVerdict(status="member", depth_examined=0)
    remaining = set(query)
    cover = []
    drawn = 0
    for drawn, b in enumerate(itertools.islice(basis.iter_sets(), depth), start=1):
        gained = remaining & b
        if gained:
            cover.append(drawn)
            remaining -= gained
        if not remaining:
            return MembershipVerdict(
                status="member", depth_examined=drawn, cover=cover
            )
    if len(query) == 1:
        return MembershipVerdict(
            status="member", depth_examined=drawn, via_singleton_axiom=True
        )
    return MembershipVerdict(status="not-covered-at-depth", depth_examined=drawn)


def member_depth(basis: BornologyBasis, query, depth_cap: int):
    """Minimal prefix depth covering the query, or HORIZON past the cap.

    Unlike `member`, no singleton axiom applies: this is the raw cover
    depth used as the observed quantity in controlledness probes.
    """
    remaining = set(query)
    for idx, b in enumerate(itertools.islice(basis.iter_sets(), depth_cap), start=1):
        remaining -= remaining & b
        if not remaining:
            return idx
    return HORIZON


# -- metric reconstruction --------------------------------------------


class ChainMetric(MetricEvaluator):
    """Left-invariant metric built from a basis via a nested product chain.

    C_0 = {e}; C_n is the n-fold product of the symmetrized union of the
    first n basis sets together with {e}, each factor taken with the
    group's `product_set` hook.  d(x, y) is the least n with
    x^-1 y in C_n; the chain satisfies C_n * C_m within C_{n+m}, which
    gives the triangle inequality.  Evaluation is truncated at n_cap.
    """

    def __init__(self, basis: BornologyBasis, n_cap: int = 16):
        self.basis = basis
        self.spec = basis.spec
        self.n_cap = n_cap
        self._chain: list[frozenset] = [frozenset([self.spec.identity()])]

    def _level(self, n: int) -> frozenset:
        while len(self._chain) <= n:
            k = len(self._chain)
            inv, cap = self.spec.inv, set_size_cap()
            sym = {self.spec.identity()}
            for b in self.basis.sets(k):
                sym |= b
                sym |= _capped({inv(x) for x in b}, cap)
            sym = frozenset(sym)
            power = sym
            for _ in range(k - 1):
                power = frozenset(self.spec.product_set(power, sym, cap))
            self._chain.append(power)
        return self._chain[n]

    def eval(self, g, h):
        t = self.spec.mul(self.spec.inv(g), h)
        for n in range(self.n_cap + 1):
            if t in self._level(n):
                return n
        return HORIZON


metric_from_basis = ChainMetric
