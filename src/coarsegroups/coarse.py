"""Finite entourages as pair collections, their shadows, and exact control rows.

An entourage is any finite collection of ordered element pairs; the
helpers below take any such collection and return a frozenset.

A map's verdicts are read off its upper control function: rho_+(r), the
largest image distance over the pairs at distance <= r (J. Roe, Lectures
on Coarse Geometry, ch. 1).  `upper_control` takes it exactly on nested
windows, the prefixes of `metrics.ladder_prefixes`, and `classify_trend`
reads each row across them: a bounded row is a bornologous map, and the
row of the swapped pairs decides whether it is proper.
"""

from __future__ import annotations

import itertools

from .groups import GroupSpec
from .metrics import HORIZON, MetricEvaluator


def right_shadow(spec: GroupSpec, pairs) -> frozenset:
    """{x y^-1} over the pairs."""
    return frozenset(spec.mul(x, spec.inv(y)) for x, y in pairs)


def theta_image(spec: GroupSpec, pairs) -> frozenset:
    """Image of the pairs under elementwise inversion."""
    return frozenset((spec.inv(x), spec.inv(y)) for x, y in pairs)


def translate(spec: GroupSpec, g, pairs) -> frozenset:
    return frozenset((spec.mul(g, x), spec.mul(g, y)) for x, y in pairs)


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


# -- control functions ------------------------------------------------


def upper_control(windows, radii) -> list[list]:
    """rho_+ on nested windows: one row per r in `radii`, one value per window.

    A window is a list of pairs (a, b): a domain distance and the image
    distance of the same pair.  Its value at r is the largest b among the
    pairs with a <= r, 0 if there are none; a window holding HORIZON in any
    pair reads HORIZON, so no overflow is dropped.  A map is bornologous
    when its row reads `bounded` under `classify_trend`.  Swapping a and b
    reads the inverse relation, so the same rows bound the preimages of
    bounded sets: a map is proper when its swapped row reads `bounded`.

    Radius 1 decides each map read here.  Every metric is a word metric, or
    the pullback of one, so a pair at distance s is joined by s steps of
    distance at most 1; and every map is read through a homomorphism.  So
    rho_+(s) <= s * rho_+(1), and rho_+(1) is bounded exactly when every
    rho_+(s) is.
    """
    rows = [[] for _ in radii]
    for window in windows:
        overflow = HORIZON in itertools.chain.from_iterable(window)
        for r, row in zip(radii, rows):
            row.append(HORIZON if overflow else max((b for a, b in window if a <= r), default=0))
    return rows
