"""Named scenario runners emitting structured, deterministic reports.

Each scenario reproduces one worked construction at desk scale: exact
integer assertions where a closed form exists, and trend evidence where
the underlying statement quantifies over the whole group.
"""

from __future__ import annotations

import itertools
import random
import time
from operator import add, le

from .bornology import (
    GeneratedBasis,
    Explicit,
    GeometricSeed,
    member,
)
from .coarse import (
    BoundedByMetric,
    LeftBornological,
    closeness_probe,
    coarse_map_probe,
    controlled_probe,
)
from .groups import GroupSpec, set_size_cap
from .metrics import (
    MaxEntryMetric,
    Entry12Pseudometric,
    QuotientWordMetric,
    WordMetric,
    ladder_prefixes,
    max_entry_distance,
    rho_plus_truncated,
)

PAPER = "PAPER"
TRIVIAL = "TRIVIAL"
DERIVED = "DERIVED"


class Assertion:
    def __init__(self, description: str, expected, observed, provenance: str):
        self.description = description
        self.expected = expected
        self.observed = observed
        self.provenance = provenance

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


class ScenarioReport:
    def __init__(self, name: str, parameters: dict):
        self.name = name
        self.parameters = parameters
        self.rows: list = []
        self.assertions: list = []
        self.truncations: dict = {}
        self.wall_time = 0.0

    def check(self, description, expected, observed, provenance):
        self.assertions.append(Assertion(description, expected, observed, provenance))

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def heisenberg_pair(n: int) -> tuple:
    """The standard near-diagonal pair: a_n = (n,0,1), b_n = (n+1,1,1)."""
    return (n, 0, 1), (n + 1, 1, 1)


def _identity(x):
    return x


# -- scenarios --------------------------------------------------------


def heisenberg_separation(report: ScenarioReport, N: int = 50) -> None:
    """Close pairs in the max-entry metric whose left shadows grow.

    The indexed family (b_n, a_n) stays at distance 1 while the norm of
    b_n^-1 a_n is n + 1, so it is controlled in the bounded structure of
    the max-entry metric but not in the left bornological structure.
    """
    # One pair reads as an `inconclusive` trend under both structures.
    if N < 2:
        raise ValueError("N must be at least 2")
    spec = GroupSpec.heisenberg()
    maxentry = MaxEntryMetric(spec)

    ok_dist = True
    ok_norm = True
    for n in range(1, N + 1):
        a, b = heisenberg_pair(n)
        d = max_entry_distance(a, b)
        shadow = spec.mul(spec.inv(b), a)
        norm = max(abs(c) for c in shadow)
        report.rows.append({"n": n, "distance": d, "shadow_norm": norm})
        ok_dist = ok_dist and d == 1
        ok_norm = ok_norm and norm == n + 1
    report.check("max-entry distance of every pair equals 1", True, ok_dist, PAPER)
    report.check("shadow norm equals n + 1 for every n", True, ok_norm, PAPER)
    a3, b3 = heisenberg_pair(3)
    report.check(
        "shadow element for n = 3",
        (-1, -1, 4),
        spec.mul(spec.inv(b3), a3),
        DERIVED,
    )

    horizon = min(N, 10)

    def near_diagonal_pairs(n):
        a, b = heisenberg_pair(n)
        return [(b, a)]

    bounded = BoundedByMetric(maxentry)
    metric_verdict = controlled_probe(near_diagonal_pairs, bounded, horizon)
    report.check(
        "trend under the bounded structure of the max-entry metric",
        "bounded",
        metric_verdict.trend,
        PAPER,
    )
    # Left bornological for the metric's bounded sets exactly when the left shadows are bounded.
    e = spec.identity()
    born_verdict = controlled_probe(
        lambda n: [(e, s) for s in spec.left_shadow(near_diagonal_pairs(n))], bounded, horizon
    )
    report.check(
        "trend under the left bornological structure",
        "growing",
        born_verdict.trend,
        PAPER,
    )
    report.truncations = {"probe_horizon": horizon}


# Triples drawn and checked at a time by the pseudometric axiom sample.
BLOCK = 512


def heisenberg_pseudometric(report: ScenarioReport, radius: int = 4, samples: int = 1000) -> None:
    """Left invariance of the (1,2)-entry pseudometric, checked exactly."""
    # Even a non-invariant metric passes every pair of the radius-1 ball.
    if radius < 2:
        raise ValueError("radius must be at least 2")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    spec = GroupSpec.heisenberg()
    rho = Entry12Pseudometric(spec)
    ball = spec.ball(radius)

    # Row g compares rho(e, g^-1 h) = |(g^-1 h)[0]| with rho(g, h) for every
    # h in the ball; the left row needs only coordinate 0 of g^-1 h, the one
    # entry rho reads.  rho(g, h) depends on g only through g[0]: one
    # right-hand row per value.  A kind may yield one row object for a run of
    # g's, never mutated, so the very row last matched for its g[0] skips the
    # abs pass.
    right = {a: rho.distances(g, ball) for a, g in {g[0]: g for g in ball}.items()}
    matched = {}
    invariance_ok = True
    for g, left in zip(ball, spec.coordinate_rows(map(spec.inv, ball), ball, 0)):
        if left is not matched.get(g[0]):
            if list(map(abs, left)) != right[g[0]]:
                invariance_ok = False
                break
            matched[g[0]] = left
    report.check(
        "|entry12 of g^-1 h| equals |entry12(g) - entry12(h)| on the ball",
        True,
        invariance_ok,
        PAPER,
    )

    rng = random.Random(12)
    axioms_ok = True
    for start in range(0, samples, BLOCK):
        # One random() per point, in order: the triples do not depend on BLOCK.
        points = rng.choices(ball, k=3 * min(BLOCK, samples - start))
        xs, ys, zs = points[0::3], points[1::3], points[2::3]
        xy = list(map(rho.eval, xs, ys))
        axioms_ok = (
            xy == list(map(rho.eval, ys, xs))
            and all(map(le, map(rho.eval, xs, zs), map(add, xy, map(rho.eval, ys, zs))))
            and not any(map(rho.eval, xs, xs))
        )
        if not axioms_ok:
            break
    report.check("pseudometric axioms on sampled triples", True, axioms_ok, TRIVIAL)

    a, b = (1, 0, 0), (1, 0, 5)
    report.check("distinct elements at pseudodistance 0", 0, rho.eval(a, b), TRIVIAL)
    report.check("the witnesses differ as group elements", True, a != b, TRIVIAL)
    report.truncations = {"ball_radius": radius}


def z_quotient_metric(report: ScenarioReport, k: int = 5, truncation_radius: int = 50) -> None:
    """The quotient pseudometric on the integers via multiples of k.

    Truncation diameters stay at floor(k/2) while word diameters grow;
    projection and section are both coarse and their composite is close to
    the identity.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    R = truncation_radius
    # Two points of [-R, R] are at most 2R apart, so a smaller R cannot
    # reach the quotient diameter k // 2.
    if 2 * R < k // 2:
        raise ValueError("twice the truncation radius must be at least k // 2")
    zspec = GroupSpec.free_abelian(1)
    qm = QuotientWordMetric(k)
    word = WordMetric(zspec, radius_cap=4 * R)

    truncation = [(i,) for i in range(-R, R + 1)]
    small = [(i,) for i in range(-k, k + 1)]
    report.check(
        "quotient diameter of the truncation",
        k // 2,
        qm.diameter(truncation),
        DERIVED,
    )
    report.check(
        "quotient diameter is already saturated at radius k",
        k // 2,
        qm.diameter(small),
        DERIVED,
    )
    report.check("word diameter of the truncation", 2 * R, word.diameter(truncation), TRIVIAL)
    report.check(
        "same-coset points at quotient distance 0", 0, qm.eval((3,), (3 + 7 * k,)), TRIVIAL
    )

    horizon = 8
    # The seed holds each coset jump k*n, n <= horizon, that the projection
    # probe draws, so that family reads bounded in the domain and is checked.
    m = max((2 * R) // k + 1, horizon)
    seed = Explicit(tuple((k * i,) for i in range(-m, m + 1)))
    domain_basis = GeneratedBasis(zspec, [seed])
    cyclic = qm.quotient
    # The finite sets of Z/k are the bounded sets of its word metric, and a
    # left-invariant metric bounds exactly the pairs with finite left shadows.
    finite = BoundedByMetric(qm.word)

    def coset_jumps(n):
        return [((0,), (k * n,))]

    probe_pi = coarse_map_probe(
        qm.project,
        domain=LeftBornological(domain_basis),
        codomain=finite,
        families=[coset_jumps],
        bounded_samples=[frozenset([(r,)]) for r in range(k)],
        domain_truncation=truncation,
        horizon=horizon,
    )
    report.check("projection is bornologous", True, probe_pi.bornologous_ok, PAPER)
    report.check("projection is proper on the truncation", True, probe_pi.proper_ok, PAPER)

    def adjacent_residues(n):
        return [(cyclic.identity(), (1,))]

    # The section sends the residue (r,) to the integer (r,).
    probe_section = coarse_map_probe(
        _identity,
        domain=finite,
        codomain=LeftBornological(domain_basis),
        families=[adjacent_residues],
        bounded_samples=[frozenset([(i,) for i in range(-k, k + 1)])],
        domain_truncation=[(r,) for r in range(k)],
        horizon=horizon,
    )
    report.check("section is bornologous", True, probe_section.bornologous_ok, PAPER)
    report.check("section is proper on the truncation", True, probe_section.proper_ok, PAPER)

    verdict = closeness_probe(
        qm.project,  # section after projection
        _identity,
        truncation,
        LeftBornological(domain_basis),
    )
    report.check(
        "section-after-projection is close to the identity", "bounded", verdict.trend, PAPER
    )
    report.truncations = {"radius": R, "horizon": horizon}


def powers_of_ten(report: ScenarioReport, depth: int = 3, N: int = 50) -> None:
    """Cover evidence that the powers-of-ten bornology misses the evens."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if N < 10:
        raise ValueError("N must be at least 10")
    zspec = GroupSpec.free_abelian(1)
    basis = GeneratedBasis(zspec, [GeometricSeed(10, 6)])

    seed_subset = frozenset([(0,), (10,), (100,)])
    report.check(
        "prefix of the seed is a member at depth 1",
        "member",
        member(basis, seed_subset, 1).status,
        TRIVIAL,
    )
    evens = frozenset((i,) for i in range(0, N + 1, 2))
    for d in range(1, depth + 1):
        verdict = member(basis, evens, d)
        report.rows.append({"depth": d, "evens_status": verdict.status})
        report.check(
            f"even integers not covered at depth {d}",
            "not-covered-at-depth",
            verdict.status,
            DERIVED,
        )
    interval = frozenset((i,) for i in range(-N, N + 1))
    report.check(
        "the full integer truncation is not covered",
        "not-covered-at-depth",
        member(basis, interval, depth).status,
        DERIVED,
    )
    report.check(
        "singleton membership by the singleton axiom",
        "member",
        member(basis, frozenset([(20,)]), 1).status,
        TRIVIAL,
    )
    report.truncations = {"depth": depth, "N": N, "seed_length": 6}


def aj_family(report: ScenarioReport, J: int = 2, depth: int = 3, seed_length: int = 4) -> None:
    """Pairwise non-coverage evidence across the geometric seed family.

    Each seed's truncation is not covered by the bornology generated from
    the other seeds alone: finite-scale evidence that no single set
    generates the joint structure.  Evidence, never proof.
    """
    if J < 2:
        raise ValueError("J must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    zspec = GroupSpec.free_abelian(1)
    seeds = [GeometricSeed(10 + 10 * j, seed_length) for j in range(J + 1)]

    for j, seed in enumerate(seeds):
        others = [s for i, s in enumerate(seeds) if i != j]
        other_basis = GeneratedBasis(zspec, others)
        own_basis = GeneratedBasis(zspec, [seed])
        query = seed.materialize(zspec)
        statuses = [member(other_basis, query, d).status for d in range(1, depth + 1)]
        report.rows.append({"j": j, "statuses": statuses})
        report.check(
            f"seed {j} not covered by the others at any tested depth",
            ["not-covered-at-depth"] * depth,
            statuses,
            DERIVED,
        )
        report.check(
            f"seed {j} is a member of its own bornology at depth 1",
            "member",
            member(own_basis, query, 1).status,
            TRIVIAL,
        )
    report.check(
        "singleton membership by the singleton axiom",
        "member",
        member(GeneratedBasis(zspec, [seeds[0]]), frozenset([(30,)]), 1).status,
        TRIVIAL,
    )
    report.truncations = {"depth": depth, "seed_length": seed_length}


def smith_uniqueness_probe(report: ScenarioReport, R: int = 24) -> None:
    """Two proper word metrics on the integers probe as coarsely equivalent."""
    if R < 4:
        raise ValueError("R must be at least 4")
    zspec1 = GroupSpec.free_abelian(1)
    zspec2 = GroupSpec.free_abelian(1, generators=((2,), (3,)))
    d1 = WordMetric(zspec1, radius_cap=4 * R)
    d2 = WordMetric(zspec2, radius_cap=4 * R)

    report.check("norm of 1 in the {2, 3} generating set", 2, d2.eval((0,), (1,)), DERIVED)

    truncation = [(i,) for i in range(-R, R + 1)]
    families = [lambda n, c=c: [((n,), (n + c,))] for c in (1, 2, 3)]
    samples = [frozenset((i,) for i in range(-4, 5))]
    for direction, dom, cod in (("forward", d1, d2), ("backward", d2, d1)):
        probe = coarse_map_probe(
            _identity,
            domain=BoundedByMetric(dom),
            codomain=BoundedByMetric(cod),
            families=families,
            bounded_samples=samples,
            domain_truncation=truncation,
            horizon=R,
        )
        report.check(f"identity is bornologous ({direction})", True, probe.bornologous_ok, DERIVED)
        report.check(f"identity is proper ({direction})", True, probe.proper_ok, DERIVED)

    # This needs d1 and d2 left-invariant, as word metrics are: then
    # d(x, y) = d(e, x^-1 y), so the pairs of a prefix P read the distances
    # of its difference set P^-1 P.  best_at is the largest d2 at each d1
    # value 0..C_MAX, and a prefix's per-C row is its running maximum.
    # Neither reads HORIZON here (d1 <= 2R under its cap 4R, d2 <= 2 where
    # d1 <= 4); one that did would raise on the comparison, not be dropped.
    C_MAX = 4
    e, ladder = zspec1.identity(), []
    best_at = [0] * (C_MAX + 1)
    for P in ladder_prefixes(truncation):
        for t in zspec1.product_set([zspec1.inv(x) for x in P], P, set_size_cap()):
            if (a := d1.eval(e, t)) <= C_MAX:
                best_at[a] = max(best_at[a], d2.eval(e, t))
        ladder.append(list(itertools.accumulate(best_at, max)))
    stabilized = True
    for C in range(1, C_MAX + 1):
        values = [row[C] for row in ladder]
        report.rows.append({"C": C, "ladder_max_d2": values})
        stabilized = stabilized and values[-1] == values[-2]
    report.check("per-C max of the second metric stabilizes", True, stabilized, DERIVED)
    report.truncations = {"radius": R}


def rho_plus_demo(report: ScenarioReport, truncation_radius: int = 6) -> None:
    """Left-invariantization by truncated sup over shifts.

    For a left-invariant base the truncated sup never moves; for the
    max-entry metric it strictly exceeds the base and keeps growing as the
    shift truncation absorbs the inverse witnesses.
    """
    if truncation_radius < 2:
        raise ValueError("truncation radius must be at least 2")
    zspec = GroupSpec.free_abelian(1)
    word = WordMetric(zspec, radius_cap=64)
    invariant_ok = True
    for r in range(2, truncation_radius + 1):
        value = rho_plus_truncated(word, (2,), (9,), zspec.ball(r))
        if value != 7:
            invariant_ok = False
    report.check(
        "truncated sup equals the base for a left-invariant metric",
        True,
        invariant_ok,
        TRIVIAL,
    )

    hspec = GroupSpec.heisenberg()
    maxentry = MaxEntryMetric(hspec)
    a1, b1 = heisenberg_pair(1)
    report.check("base max-entry distance of the witness pair", 1, maxentry.eval(a1, b1), PAPER)
    core = hspec.ball(2)
    values = []
    for m in range(1, 5):
        truncation = set(core)
        for n in range(1, m + 1):
            truncation.add(hspec.inv(heisenberg_pair(n)[1]))
        values.append(rho_plus_truncated(maxentry, a1, b1, truncation))
    report.rows.append({"shift_ladder_values": values})
    report.check("value once the first inverse witness is present", 2, values[0], PAPER)
    report.check(
        "values grow strictly along the shift ladder",
        True,
        all(x < y for x, y in zip(values, values[1:])),
        DERIVED,
    )
    report.check("truncated sup vanishes on equal points", 0, rho_plus_truncated(maxentry, a1, a1, core), TRIVIAL)
    report.truncations = {"z_radius": truncation_radius, "heisenberg_core_radius": 2}


# -- registry ---------------------------------------------------------


SCENARIOS = {
    f.__name__: f
    for f in (
        heisenberg_separation,
        heisenberg_pseudometric,
        z_quotient_metric,
        powers_of_ten,
        aj_family,
        smith_uniqueness_probe,
        rho_plus_demo,
    )
}


def scenario_params(name: str) -> dict:
    """Parameter names and defaults of a registered scenario, in order.

    A scenario is a function `(report, **params)` whose parameters after
    the report all have defaults; its signature, read off its code object,
    is the only schema, and each value has the type of its default.
    """
    f = SCENARIOS[name]
    defaults = f.__defaults__ or ()
    names = f.__code__.co_varnames[: f.__code__.co_argcount]
    return dict(zip(names[len(names) - len(defaults) :], defaults))


def run_scenario(name: str, **params) -> ScenarioReport:
    parameters = {**scenario_params(name), **params}
    report = ScenarioReport(name=name, parameters=parameters)
    t0 = time.perf_counter()
    SCENARIOS[name](report, **parameters)
    report.wall_time = time.perf_counter() - t0
    return report
