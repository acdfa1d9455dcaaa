"""Norms, metrics, and pseudometrics on groups, with truncated probes.

Distances are exact integers.  Word-metric evaluation is
truncated at a radius cap: past the cap the evaluator returns the HORIZON
marker instead of a number.  Truncation is the normal operating mode of
the toolkit, never an exception.

Besides `eval`, every metric answers one row-at-a-time hook:
`distances(g, hs)`, the list [d(g, h) for h in hs].  `diameter` takes one
row per point, and the Heisenberg invariance check compares rows.
`Entry12Pseudometric` overrides `distances` with one comprehension; every
other metric inherits the body built on `eval`.  `WordMetric` on Z binds
the closed-form diameter of `GroupSpec.word_distance`, max - min of the
coordinates; every other metric, the word metric of Z/k included, keeps
the row-per-point `diameter`.
"""

from __future__ import annotations

import itertools

from .groups import HORIZON, BudgetExceededError, GroupSpec, shell_key


def classify_trend(values: list) -> str:
    """Conservative trend rule over a ladder of observed values.

    "growing" when the values strictly increase at every step and the last
    increment is at least the first; "bounded" when the last two values are
    equal; "inconclusive" otherwise.  The overflow marker HORIZON counts
    as larger than any number: a ladder holding it is "growing" when it is
    the last value alone and the numbers before it strictly increase.
    """
    if len(values) < 2:
        return "inconclusive"
    if HORIZON in values:
        head = values[:-1]
        ok = values[-1] is HORIZON and HORIZON not in head and head == sorted(set(head))
        return "growing" if ok else "inconclusive"
    if values[-1] == values[-2]:
        return "bounded"
    increments = [b - a for a, b in zip(values, values[1:])]
    if all(d > 0 for d in increments) and increments[-1] >= increments[0]:
        return "growing"
    return "inconclusive"


def ladder_prefixes(items: list) -> list[list]:
    """Up to three nested prefixes of a truncation, small-magnitude-first.

    Successive prefixes behave like growing balls around the identity.  An
    empty truncation has nothing to observe and raises ValueError.
    """
    ordered = sorted(items, key=shell_key)
    n = len(ordered)
    if n == 0:
        raise ValueError("truncation must be nonempty")
    cuts = sorted({max(1, (n * i) // 3) for i in (1, 2, 3)})
    return [ordered[:c] for c in cuts]


# -- norms ------------------------------------------------------------


class WordNorm:
    """Minimal word length in the generating set, truncated at radius_cap.

    The table grows one word sphere of `spec.spheres()` per `_extend`.
    """

    def __init__(self, spec: GroupSpec, radius_cap: int = 64):
        self.spec = spec
        self.radius_cap = radius_cap
        self._spheres = spec.spheres()
        self._norms = dict.fromkeys(next(self._spheres), 0)
        self._level = 0

    def _extend(self) -> bool:
        try:
            sphere = next(self._spheres, ())
        except BudgetExceededError:
            # A generator that raised is finished: restart it past the
            # table so that a retry hits the cap again instead of reading
            # as the end of a finite group (a silent HORIZON).
            self._spheres = itertools.islice(self.spec.spheres(), self._level + 1, None)
            raise
        self._level += 1
        self._norms.update(zip(sphere, itertools.repeat(self._level)))
        return bool(sphere)

    def __call__(self, g):
        while g not in self._norms:
            if self._level >= self.radius_cap or not self._extend():
                return HORIZON
        return self._norms[g]


# -- metric evaluators ------------------------------------------------


class MetricEvaluator:
    """Two-argument exact distance.

    `eval(g, h)` is one distance; the row hook `distances(g, hs)` is the
    list of distances from g to each of hs.  Its base body calls `eval`
    once per point; a subclass overrides it only where a row can skip the
    method call per pair.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def eval(self, g, h):
        raise NotImplementedError

    def distances(self, g, hs) -> list:
        """[d(g, h) for h in hs], in the order of `hs`."""
        return [self.eval(g, h) for h in hs]

    def diameter(self, elements):
        """Max pairwise distance over a finite set; HORIZON-propagating."""
        elements = list(elements)
        best = 0
        # Up to the last point, each row holds at least one distance.
        for i, g in enumerate(elements[:-1]):
            row = self.distances(g, elements[i + 1 :])
            if HORIZON in row:
                return HORIZON
            best = max(best, *row)
        return best


class InducedMetric(MetricEvaluator):
    """Left-invariant metric induced by a norm: d(g, h) = norm(g^-1 h)."""

    def __init__(self, norm):
        self.norm = norm
        self.spec = norm.spec

    def eval(self, g, h):
        return self.norm(self.spec.mul(self.spec.inv(g), h))


class WordMetric(InducedMetric):
    """Cayley-graph distance for a fixed generating set.

    Where the group kind has a closed form for its generating set
    (`GroupSpec.word_distance`), `eval` is that function and no table is
    built; otherwise `InducedMetric` reads the breadth-first `WordNorm` table.
    A closed form that carries a diameter (Z with the generator (1,), max -
    min) is also bound as `diameter`, so a diameter visits each point once.
    """

    def __init__(self, spec: GroupSpec, radius_cap: int = 64):
        closed = spec.word_distance(radius_cap)
        if closed is None:
            super().__init__(WordNorm(spec, radius_cap=radius_cap))
        else:
            self.spec, self.eval = spec, closed
            if hasattr(closed, "diameter"):
                self.diameter = closed.diameter


class MaxEntryMetric(MetricEvaluator):
    """Entrywise max distance on Heisenberg matrices (not left-invariant)."""

    def eval(self, g, h):
        return max_entry_distance(g, h)


class Entry12Pseudometric(MetricEvaluator):
    """|a - a'| on Heisenberg triples (a, b, c): the (1,2) matrix entry."""

    def eval(self, g, h):
        return abs(g[0] - h[0])

    def distances(self, g, hs) -> list:
        a = g[0]
        return [abs(a - h[0]) for h in hs]


class QuotientWordMetric(MetricEvaluator):
    """Pullback of the word metric `word` of Z/|k| along Z -> Z/kZ.

    A pseudometric on the integers: elements of the same coset are at
    distance zero. No distance is HORIZON: the cap of `word` is |k| // 2,
    the largest distance in Z/|k|.
    """

    def __init__(self, k: int):
        self.spec = GroupSpec.free_abelian(1)
        self.quotient = GroupSpec.cyclic(abs(k))
        self.word = WordMetric(self.quotient, radius_cap=abs(k) // 2)

    def project(self, g):
        return self.quotient._reduce(g)

    def eval(self, g, h):
        return self.word.eval(self.project(g), self.project(h))

    def diameter(self, elements):
        # Same-coset points are at distance 0, so one point per coset gives
        # the same maximum (and the same HORIZON) as all pairs.
        return self.word.diameter({self.project(g) for g in elements})


# -- derived operations ----------------------------------------------


def max_entry_distance(g, h):
    return max(abs(x - y) for x, y in zip(g, h))


def rho_plus_truncated(base: MetricEvaluator, x, y, truncation):
    """Max over g in the truncation of d(gx, gy).

    Monotone under truncation enlargement; equals the base distance for
    every left-invariant base.  The truncation must contain the identity.
    """
    truncation = list(truncation)
    if not truncation:
        raise ValueError("truncation must be nonempty")
    spec = base.spec
    if spec.identity() not in truncation:
        raise ValueError("truncation must contain the identity")
    row = [base.eval(spec.mul(g, x), spec.mul(g, y)) for g in truncation]
    return HORIZON if HORIZON in row else max(row)
