"""Bornologies as streamed countable bases.

A bornology is handled through a deterministic stream of finite basis sets
B_1, B_2, ...  Membership of a finite query set is semi-decided: "member"
verdicts come with a verified cover, "not covered at this depth" is never a
proof of non-membership.  Streams are lazy: a set is built the first time it
is drawn, and membership draws only until it has an answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .groups import GroupSpec, check_set_size
from .metrics import HORIZON, MetricEvaluator


# -- seed descriptors -------------------------------------------------


@dataclass(frozen=True)
class Explicit:
    """An explicit finite seed set."""

    elements: tuple

    def materialize(self, spec: GroupSpec) -> frozenset:
        for g in self.elements:
            spec.check_element(g)
        return frozenset(self.elements)


@dataclass(frozen=True)
class GeometricSeed:
    """{0, b, b^2, ..., b^L} inside the integers, truncated at length L."""

    base: int
    length_cap: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.length_cap < 1:
            raise ValueError("length cap must be positive")

    def materialize(self, spec: GroupSpec) -> frozenset:
        if spec.kind != "free-abelian" or spec.rank != 1:
            raise ValueError("geometric seeds live in the integers Z")
        return frozenset([(0,)] + [(self.base**k,) for k in range(1, self.length_cap + 1)])


# -- basis streams ----------------------------------------------------


def _capped(out) -> frozenset:
    """`out` as a frozenset; raises once it passes `COARSE_SET_CAP`."""
    check_set_size(len(out))
    return frozenset(out)


def _set_key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


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


class MetricBallsBasis(BornologyBasis):
    """B_n = {g : d(e, g) <= n} for a metric on the group.

    Each ball comes from the metric's `ball(n)`: a closed form where the
    metric has one, a coordinate box scan otherwise.
    """

    def __init__(self, metric: MetricEvaluator):
        self.metric = metric
        self.spec = metric.spec
        self._cache: list[frozenset] = []

    def _materialize(self, n: int) -> frozenset:
        return self.metric.ball(n)

    def iter_sets(self) -> Iterator[frozenset]:
        for n in itertools.count(1):
            if len(self._cache) < n:
                self._cache.append(self._materialize(n))
            yield self._cache[n - 1]


class GeneratedBasis(BornologyBasis):
    """The minimal bornology containing the seed sets, streamed by levels.

    Level 0 holds the materialized seeds and their inverses.  Level n adds
    the n-th singleton of the group enumeration (none past the end of a
    finite group), inverses of the previous level, and unions and products
    of earlier sets whose level indices sum to n - 1.  Products come in
    both orders; a union is tried once per unordered pair of distinct sets,
    since a | b is b | a and a | a is a.  Within a level, sets are ordered
    by (size, sorted encoding); duplicates never reappear.  Translates
    arise as products with singletons.  Every product set comes from the
    group's `product_set` hook.  The stream ends after level `depth_cap`.
    """

    def __init__(self, spec: GroupSpec, seeds, depth_cap: int = 8):
        if depth_cap < 1:
            raise ValueError("depth cap must be positive")
        self.spec = spec
        self.seeds = list(seeds)
        self.depth_cap = depth_cap
        self._levels: list[list[frozenset]] = []
        self._known: set[frozenset] = set()

    def _admit(self, bucket: dict, s) -> None:
        s = _capped(s)
        if s and s not in self._known and s not in bucket:
            bucket[s] = None

    def _build_level(self) -> None:
        """Build the next level whole, then commit it; a cap error commits nothing."""
        n = len(self._levels)
        inv = self.spec.inv
        bucket: dict[frozenset, None] = {}
        if n == 0:
            for seed in self.seeds:
                self._admit(bucket, seed.materialize(self.spec))
            for seed in list(bucket):
                self._admit(bucket, {inv(x) for x in seed})
        else:
            for g in itertools.islice(self.spec.sphere_stream(), n - 1, n):
                self._admit(bucket, {g})
                self._admit(bucket, {inv(g)})
            for s in self._levels[n - 1]:
                self._admit(bucket, {inv(x) for x in s})
            product_set = self.spec.product_set
            for i in range(n):
                j = n - 1 - i
                for ia, a in enumerate(self._levels[i]):
                    for ib, b in enumerate(self._levels[j]):
                        if i < j or (i == j and ia < ib):
                            self._admit(bucket, a | b)
                        self._admit(bucket, product_set(a, b))
        level = list(bucket) if n == 0 else sorted(bucket, key=_set_key)
        self._known.update(level)
        self._levels.append(level)

    def iter_sets(self) -> Iterator[frozenset]:
        for n in range(self.depth_cap + 1):
            if n == len(self._levels):
                self._build_level()
            yield from self._levels[n]


# -- membership -------------------------------------------------------


@dataclass
class MembershipVerdict:
    """Constructive cover verdict for a finite query set."""

    status: str  # "member" or "not-covered-at-depth"
    depth_examined: int  # sets drawn: below depth if the stream ended or a cover came first
    cover: list[int] = field(default_factory=list)  # 1-based basis indices
    via_singleton_axiom: bool = False

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
    """Minimal prefix depth covering the query, or None past the cap.

    Unlike `member`, no singleton axiom applies: this is the raw cover
    depth used as the observed quantity in controlledness probes.
    """
    remaining = set(query)
    for idx, b in enumerate(itertools.islice(basis.iter_sets(), depth_cap), start=1):
        remaining -= remaining & b
        if not remaining:
            return idx
    return None


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
            inv = self.spec.inv
            sym = {self.spec.identity()}
            for b in self.basis.sets(k):
                sym |= b
                sym |= _capped({inv(x) for x in b})
            sym = frozenset(sym)
            power = sym
            for _ in range(k - 1):
                power = _capped(self.spec.product_set(power, sym))
            self._chain.append(power)
        return self._chain[n]

    def eval(self, g, h):
        t = self.spec.mul(self.spec.inv(g), h)
        for n in range(self.n_cap + 1):
            if t in self._level(n):
                return n
        return HORIZON


def metric_from_basis(basis: BornologyBasis, n_cap: int = 16) -> ChainMetric:
    return ChainMetric(basis, n_cap=n_cap)
