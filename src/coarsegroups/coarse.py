"""Finite entourages as pair collections, their shadows, and controlledness probes.

An entourage is any finite collection of ordered element pairs.  Infinite
unions from the source constructions are replaced by indexed families,
functions `n -> list of pairs` probed at n = 1..horizon; controlledness
shows up as a bounded or growing trend of the per-index observed quantities.

A structure observes a whole ladder at once: `values(ladder)` maps a list
of pair collections to one value each, HORIZON on overflow.  Probes map
each point once, refuse empty evidence, and derive every verdict from it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from .bornology import BornologyBasis, member_depth
from .groups import GroupSpec
from .metrics import (
    HORIZON,
    MetricEvaluator,
    classify_trend,
    ladder_prefixes,
)


def right_shadow(spec: GroupSpec, pairs) -> frozenset:
    """{x y^-1} over the pairs."""
    return frozenset(spec.mul(x, spec.inv(y)) for x, y in pairs)


def theta_image(spec: GroupSpec, pairs) -> frozenset:
    """Image of the pairs under elementwise inversion."""
    return frozenset((spec.inv(x), spec.inv(y)) for x, y in pairs)


def translate(spec: GroupSpec, g, pairs) -> frozenset:
    return frozenset((spec.mul(g, x), spec.mul(g, y)) for x, y in pairs)


# -- structures -------------------------------------------------------


class BoundedByMetric:
    """Controlled = uniformly bounded distance; observed = max distance (0
    for no pairs), from one `metric.eval` pass over the whole ladder."""

    def __init__(self, metric: MetricEvaluator):
        self.metric = metric

    def values(self, ladder) -> list:
        row = list(itertools.starmap(self.metric.eval, itertools.chain.from_iterable(ladder)))
        bounds = itertools.pairwise(itertools.accumulate(map(len, ladder), initial=0))
        return [HORIZON if HORIZON in row[i:j] else max(row[i:j], default=0) for i, j in bounds]


class LeftBornological:
    """Controlled = left shadow {x^-1 y} bounded; observed = its cover depth
    among the first 16 basis sets, HORIZON past them."""

    def __init__(self, basis: BornologyBasis):
        self.basis = basis

    def values(self, ladder) -> list:
        shadow = self.basis.spec.left_shadow
        return [member_depth(self.basis, shadow(p), 16) for p in ladder]


class ControlledVerdict:
    def __init__(self, per_index: list):
        self.per_index = per_index  # index n's observed quantity at n - 1, HORIZON on overflow
        self.trend = classify_trend(per_index)


def _ladder(family: Callable, horizon: int) -> list:
    """[family(n) for n = 1..horizon]; raises ValueError on a rung with no pairs."""
    ladder = [family(n) for n in range(1, horizon + 1)]
    if not all(ladder):
        raise ValueError("a family rung holds no pairs")
    return ladder


def controlled_probe(family: Callable, structure, horizon: int) -> ControlledVerdict:
    """Observe the quantity of `family(n)` for indices n = 1..horizon.

    The quantity is the max distance (metric structures) or the minimal
    shadow cover depth (bornological structures), HORIZON on overflow; the
    trend is classified by the shared ladder rule.
    """
    return ControlledVerdict(structure.values(_ladder(family, horizon)))


# -- finite-set boundedness ------------------------------------------


class BoundedSetReport:
    def __init__(self, diam, radii: dict):
        self.diam = diam  # HORIZON, with no radii, when some distance overflowed
        self.radii = radii
        self.two_sided_ok = diam is not HORIZON and all(r <= diam <= 2 * r for r in radii.values())


def bounded_set_check(B, m: MetricEvaluator) -> BoundedSetReport:
    """Quantitative check that diameter and radii bound each other.

    For every x in B: diam(B) <= 2 * max_b d(b, x) and max_b d(b, x)
    <= diam(B).
    """
    B = sorted(set(B))
    if not B:
        raise ValueError("B must be nonempty")
    # One row per point: a metric is symmetric, so the row d(x, B) holds
    # every d(b, x); the radius at x is its max, the diameter the max radius.
    radii = {}
    for x in B:
        row = m.distances(x, B)
        if HORIZON in row:
            return BoundedSetReport(HORIZON, {})
        radii[x] = max(row)
    return BoundedSetReport(max(radii.values()), radii)


# -- map probes -------------------------------------------------------


class CoarseMapReport:
    def __init__(self, witnesses: list):
        self.witnesses = witnesses  # (kind, ...) tuples, kind "bornologous" or "proper"
        kinds = {w[0] for w in witnesses}
        self.bornologous_ok = "bornologous" not in kinds
        self.proper_ok = "proper" not in kinds


def coarse_map_probe(
    f: Callable,
    domain,
    codomain,
    families,
    bounded_samples,
    domain_truncation,
    horizon: int,
) -> CoarseMapReport:
    """Finite-sample probe that a map is bornologous and proper.

    Bornologous: every supplied family controlled in the domain structure
    must map, pairwise, to a family with bounded trend in the codomain.
    Families whose domain trend is not bounded are skipped and counted; a
    probe that checked no family is not bornologous, and its witness
    ("bornologous", "no family checked", skipped) says so.
    Proper: for every bounded sample, its preimage B within the sampled
    domain truncation, measured as the pairs B x {anchor} (B x B is
    controlled exactly when B x {x} is), must not overflow (HORIZON)
    under the domain structure; the preimages of all samples are one ladder,
    and a probe where no sample has a preimage is not proper.
    """
    witnesses = []
    skipped = 0
    for fam in families:
        ladder = _ladder(fam, horizon)
        if classify_trend(domain.values(ladder)) != "bounded":
            skipped += 1
            continue
        images = [[(f(x), f(y)) for x, y in pairs] for pairs in ladder]
        cod_verdict = ControlledVerdict(codomain.values(images))
        if cod_verdict.trend != "bounded":
            witnesses.append(("bornologous", fam, cod_verdict))
    if skipped == len(families):
        witnesses.append(("bornologous", "no family checked", skipped))

    domain_truncation = sorted(set(domain_truncation))
    images = list(map(f, domain_truncation))
    found = [
        (sorted(sample), pre)
        for sample in map(frozenset, bounded_samples)
        if (pre := [x for x, y in zip(domain_truncation, images) if y in sample])
    ]
    values = domain.values([[(x, pre[0]) for x in pre] for _, pre in found])
    witnesses += [("proper", *found[i]) for i, v in enumerate(values) if v is HORIZON]
    if not found:
        witnesses.append(("proper", "no sample checked", len(bounded_samples)))
    return CoarseMapReport(witnesses)


def closeness_probe(
    f: Callable,
    f2: Callable,
    domain_truncation,
    structure,
) -> ControlledVerdict:
    """Probe the pairing {(f(m), f2(m))} on nested prefixes, mapping each point once."""
    prefixes = ladder_prefixes(set(domain_truncation))
    pairs = [(f(m), f2(m)) for m in prefixes[-1]]
    return ControlledVerdict(structure.values([pairs[: len(p)] for p in prefixes]))
