"""Bornologies as streamed countable bases.

A bornology is handled through a deterministic stream of finite basis sets
B_1, B_2, ...  Membership of a finite query set is semi-decided: "member"
verdicts come with a verified cover, "not covered at this depth" is never a
proof of non-membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .groups import (
    BudgetExceededError,
    GroupSpec,
    element_key,
    set_size_cap,
)
from .metrics import HORIZON, MetricEvaluator


# -- seed descriptors -------------------------------------------------


@dataclass(frozen=True)
class Explicit:
    """An explicit finite seed set."""

    elements: tuple

    def materialize(self, spec: GroupSpec) -> frozenset:
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
        if spec.rank != 1:
            raise ValueError("geometric seeds live in the rank-1 group")
        return frozenset([(0,)] + [(self.base**k,) for k in range(1, self.length_cap + 1)])


# -- basic set algebra ------------------------------------------------


def basis_ops(spec: GroupSpec, b1, b2=None, op: str = "union"):
    """Exact set operations under the group law.

    op is one of product, union, inverse.
    """
    cap = set_size_cap()
    if op == "product":
        out = {spec.mul(x, y) for x in b1 for y in b2}
    elif op == "union":
        out = set(b1) | set(b2)
    elif op == "inverse":
        out = {spec.inv(x) for x in b1}
    else:
        raise ValueError(f"unknown op {op!r}")
    if len(out) > cap:
        raise BudgetExceededError(f"set operation exceeded size cap {cap}")
    return frozenset(out)


def _set_key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(element_key(x) for x in s)))


# -- basis streams ----------------------------------------------------


class BornologyBasis:
    """Deterministic stream of finite basis sets B_1, B_2, ..."""

    spec: GroupSpec

    def sets(self, count: int) -> list[frozenset]:
        """First `count` basis sets; idempotent, identical prefix per call."""
        raise NotImplementedError


class MinimalBasis(BornologyBasis):
    """Singletons of the fixed group enumeration: the finite-set bornology."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def sets(self, count: int) -> list[frozenset]:
        return [frozenset([g]) for g in self.spec.elements(count)]


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

    def sets(self, count: int) -> list[frozenset]:
        while len(self._cache) < count:
            self._cache.append(self._materialize(len(self._cache) + 1))
        return list(self._cache[:count])


class GeneratedBasis(BornologyBasis):
    """The minimal bornology containing the seed sets, streamed by levels.

    Level 0 holds the materialized seeds and their inverses.  Level n adds
    the n-th singleton of the group enumeration, inverses of the previous
    level, and unions and products of earlier sets whose level indices sum
    to n - 1.  Within a level, sets are ordered by (size, sorted encoding);
    duplicates never reappear.  Translates arise as products with
    singletons.
    """

    def __init__(self, spec: GroupSpec, seeds, depth_cap: int = 8):
        if depth_cap < 1:
            raise ValueError("depth cap must be positive")
        self.spec = spec
        self.seeds = list(seeds)
        self.depth_cap = depth_cap
        self._levels: list[list[frozenset]] = []
        self._known: set[frozenset] = set()
        self._element_stream = spec.sphere_stream()

    def _admit(self, bucket: list, s: frozenset) -> None:
        if len(s) > set_size_cap():
            raise BudgetExceededError("generated basis set exceeded size cap")
        if s and s not in self._known:
            self._known.add(s)
            bucket.append(s)

    def _build_level(self) -> None:
        n = len(self._levels)
        if n > self.depth_cap:
            self._levels.append([])
            return
        bucket: list[frozenset] = []
        if n == 0:
            for seed in self.seeds:
                self._admit(bucket, seed.materialize(self.spec))
            for seed in list(bucket):
                self._admit(bucket, basis_ops(self.spec, seed, op="inverse"))
        else:
            single = frozenset([next(self._element_stream)])
            self._admit(bucket, single)
            self._admit(bucket, basis_ops(self.spec, single, op="inverse"))
            for s in self._levels[n - 1]:
                self._admit(bucket, basis_ops(self.spec, s, op="inverse"))
            for i in range(n):
                j = n - 1 - i
                if j >= len(self._levels):
                    continue
                for a in self._levels[i]:
                    for b in self._levels[j]:
                        self._admit(bucket, basis_ops(self.spec, a, b, op="union"))
                        self._admit(bucket, basis_ops(self.spec, a, b, op="product"))
                        if i != j:
                            self._admit(
                                bucket, basis_ops(self.spec, b, a, op="product")
                            )
        if n > 0:
            bucket.sort(key=_set_key)
        self._levels.append(bucket)

    def sets(self, count: int) -> list[frozenset]:
        out: list[frozenset] = []
        level = 0
        while len(out) < count:
            while level >= len(self._levels):
                try:
                    self._build_level()
                except BudgetExceededError:
                    # Undo the failed level so that a retry rebuilds it whole:
                    # forget the sets it admitted, and restart the element
                    # stream (finished, or past this level's singleton) after
                    # the singletons of levels 1.. already built.
                    self._known = set().union(*self._levels)
                    built = max(len(self._levels) - 1, 0)
                    self._element_stream = itertools.islice(
                        self.spec.sphere_stream(), built, None
                    )
                    raise
            if level > self.depth_cap and not self._levels[level]:
                break
            out.extend(self._levels[level])
            level += 1
        return out[:count]


# -- membership -------------------------------------------------------


@dataclass
class MembershipVerdict:
    """Constructive cover verdict for a finite query set."""

    status: str  # "member" or "not-covered-at-depth"
    depth_examined: int
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
        return MembershipVerdict(status="member", depth_examined=depth)
    prefix = basis.sets(depth)
    remaining = set(query)
    cover = []
    for idx, b in enumerate(prefix, start=1):
        gained = remaining & b
        if gained:
            cover.append(idx)
            remaining -= gained
        if not remaining:
            return MembershipVerdict(
                status="member", depth_examined=depth, cover=cover
            )
    if len(query) == 1:
        return MembershipVerdict(
            status="member", depth_examined=depth, via_singleton_axiom=True
        )
    return MembershipVerdict(status="not-covered-at-depth", depth_examined=depth)


def member_depth(basis: BornologyBasis, query, depth_cap: int):
    """Minimal prefix depth covering the query, or None past the cap.

    Unlike `member`, no singleton axiom applies: this is the raw cover
    depth used as the observed quantity in controlledness probes.
    """
    query = frozenset(query)
    prefix = basis.sets(depth_cap)
    covered: set = set()
    for idx, b in enumerate(prefix, start=1):
        covered |= b
        if query <= covered:
            return idx
    return None


# -- metric reconstruction --------------------------------------------


class ChainMetric(MetricEvaluator):
    """Left-invariant metric built from a basis via a nested product chain.

    C_0 = {e}; C_n is the n-fold product of the symmetrized union of the
    first n basis sets together with {e}.  d(x, y) is the least n with
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
            sym = {self.spec.identity()}
            for b in self.basis.sets(k):
                sym |= b
                sym |= basis_ops(self.spec, b, op="inverse")
            sym = frozenset(sym)
            power = sym
            for _ in range(k - 1):
                power = basis_ops(self.spec, power, sym, op="product")
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
