import inspect
import json
import random
import tracemalloc
from collections import Counter

import pytest

from coarsegroups import scenarios
from coarsegroups.groups import Cyclic, GroupSpec, Heisenberg
from coarsegroups.metrics import (
    HORIZON,
    Entry12Pseudometric,
    MaxEntryMetric,
    MetricEvaluator,
    WordMetric,
    ladder_prefixes,
)
from coarsegroups.reporting import fmt, report_to_json, report_to_tsv
from coarsegroups.scenarios import (
    SCENARIOS,
    heisenberg_pair,
    run_scenario,
    scenario_params,
)
from test_report_hashes import FROZEN, _sha256


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_run_passes(name):
    report = run_scenario(name)
    failed = [a.description for a in report.assertions if not a.passed]
    assert report.all_passed, failed


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_byte_deterministic(name):
    a = run_scenario(name)
    b = run_scenario(name)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_tsv(a) == report_to_tsv(b)


def test_wall_time_not_serialized():
    report = run_scenario("rho_plus_demo")
    assert report.wall_time > 0
    assert "wall_time" not in report_to_json(report)
    assert "wall_time" not in report_to_tsv(report)


def test_json_shape():
    payload = json.loads(report_to_json(run_scenario("powers_of_ten")))
    assert payload["scenario"] == "powers_of_ten"
    assert payload["all_pass"] is True
    assert {"description", "expected", "observed", "provenance", "pass"} <= set(
        payload["assertions"][0]
    )
    assert all(
        a["provenance"] in ("PAPER", "TRIVIAL", "DERIVED")
        for a in payload["assertions"]
    )


def test_tsv_shape():
    text = report_to_tsv(run_scenario("heisenberg_separation", N=5))
    lines = text.splitlines()
    assert lines[0] == "section\tkey\texpected\tobserved\tprovenance\tpass"
    assert all(len(line.split("\t")) == 6 for line in lines)
    assert any(line.startswith("assertion\t") and line.endswith("\tpass") for line in lines)


def test_heisenberg_pair():
    assert heisenberg_pair(7) == ((7, 0, 1), (8, 1, 1))


def test_separation_rows_cover_range():
    report = run_scenario("heisenberg_separation", N=12)
    assert [r["n"] for r in report.rows] == list(range(1, 13))
    assert all(r["distance"] == 1 for r in report.rows)
    assert [r["shadow_norm"] for r in report.rows] == list(range(2, 14))


def test_separation_lists_no_ball(monkeypatch):
    # Both probes read distances: under a ball cap of one element, which
    # every ball of positive radius passes, the report is the frozen one.
    monkeypatch.setenv("COARSE_BALL_CAP", "1")
    report = run_scenario("heisenberg_separation")
    [frozen] = [row[3:] for row in FROZEN if row[:2] == ("heisenberg_separation", {})]
    assert (_sha256(report_to_json(report)), _sha256(report_to_tsv(report))) == frozen


def test_separation_left_structure_reads_left_shadows(monkeypatch):
    # With the right shadow {x y^-1} in place of the left one, (b_n, a_n)
    # reads (1, 1, 0) at every n: exactly the left-structure trend fails.
    assert "left_shadow" not in vars(Heisenberg)

    def right_shadow(self, pairs):
        return {self.mul(x, self.inv(y)) for x, y in pairs}

    monkeypatch.setattr(GroupSpec, "left_shadow", right_shadow)
    report = run_scenario("heisenberg_separation")
    failed = [(a.description, a.observed) for a in report.assertions if not a.passed]
    assert failed == [("trend under the left bornological structure", "bounded")]
    assert len(report.assertions) == 5


# From k = 17 on, the section's preimage, all k residues, would pass the
# 16 singletons a cover depth reads on Z/k; its word metric reads them all.
@pytest.mark.parametrize("k", [2, 3, 10, 16, 17])
def test_quotient_parameterized(k):
    report = run_scenario("z_quotient_metric", k=k, truncation_radius=30)
    assert report.all_passed
    diam = next(
        a for a in report.assertions if a.description.startswith("quotient diameter of")
    )
    assert diam.observed == k // 2


def _invariance_observed(report):
    return next(
        a.observed for a in report.assertions if a.description.startswith("|entry12 of g^-1 h|")
    )


def test_invariance_check_passes_for_rho():
    report = run_scenario("heisenberg_pseudometric", radius=2, samples=10)
    assert _invariance_observed(report) is True


def _count_rows(monkeypatch) -> tuple[list, list, list]:
    """The source g of every `Entry12Pseudometric.distances` row; the (gs, i)
    of every Heisenberg `coordinate_rows` call, with its g's as a list; and
    every row that hook yielded, as yielded."""
    right, calls, rows = [], [], []
    row = Entry12Pseudometric.distances
    hook = Heisenberg.coordinate_rows

    def counting_row(self, g, hs):
        right.append(g)
        return row(self, g, hs)

    def counting_hook(self, gs, hs, i):
        gs = list(gs)
        calls.append((gs, i))
        for left in hook(self, gs, hs, i):
            rows.append(left)
            yield left

    monkeypatch.setattr(Entry12Pseudometric, "distances", counting_row)
    monkeypatch.setattr(Heisenberg, "coordinate_rows", counting_hook)
    return right, calls, rows


@pytest.mark.parametrize("radius,values", [(2, 5), (5, 11), (8, 17)])
def test_invariance_check_builds_one_right_hand_row_per_entry12(monkeypatch, radius, values):
    # The right-hand rows are built once per value of g[0] in the ball.  The
    # left-hand rows come from one hook call on coordinate 0 of g^-1 for
    # every ball element g, in ball order, all of them in this process; the
    # hook yields one row per ball element but builds one list per value of
    # g[0], shared by its run.  `rows` keeps every row alive, so their ids
    # are distinct exactly when the lists are.
    right, calls, rows = _count_rows(monkeypatch)
    report = run_scenario("heisenberg_pseudometric", radius=radius, samples=10)
    assert _invariance_observed(report) is True
    spec = GroupSpec.heisenberg()
    ball = spec.ball(radius)
    assert len({g[0] for g in ball}) == values == len(right) == len({g[0] for g in right})
    assert calls == [([spec.inv(g) for g in ball], 0)]
    assert len(rows) == len(ball)
    assert len({id(left) for left in rows}) == values


def test_invariance_check_fails_for_a_non_invariant_metric(monkeypatch):
    # Max-entry is not left-invariant, but every pair in the radius-1 ball
    # passes the check; radius 2 holds a failing pair.
    monkeypatch.setattr(scenarios, "Entry12Pseudometric", MaxEntryMetric)
    report = run_scenario("heisenberg_pseudometric", radius=2, samples=10)
    assert _invariance_observed(report) is False


INVARIANCE = "|entry12 of g^-1 h| equals |entry12(g) - entry12(h)| on the ball"


def test_invariance_check_fails_for_a_wrong_translates(monkeypatch):
    # A wrong first coordinate of g^-1 h, the a + a' + b * b' of a wrong law,
    # in the row of every g, turns the invariance check, and only it, to
    # FAIL: the ball, the axioms and the witnesses do not use the hook.  Each
    # wrong row is a new list; the hook's shared rows are left as they are.
    hook = Heisenberg.coordinate_rows

    def wrong_coordinate_0(self, gs, hs, i):
        gs = list(gs)
        for g, out in zip(gs, hook(self, gs, hs, i)):
            yield [x + g[1] * h[1] for x, h in zip(out, hs)] if i == 0 else out

    monkeypatch.setattr(Heisenberg, "coordinate_rows", wrong_coordinate_0)
    report = run_scenario("heisenberg_pseudometric", radius=2, samples=10)
    assert _invariance_observed(report) is False
    failed = [a.description for a in report.assertions if not a.passed]
    assert failed == [INVARIANCE]
    assert len(report.assertions) == 4


BALL5 = GroupSpec.heisenberg().ball(5)


def _run_place(g) -> tuple[int, int]:
    """g's place in its g[0] run of the sorted BALL5, and the run's length."""
    run = [h for h in BALL5 if h[0] == g[0]]
    return run.index(g), len(run)


def _patch_one_row(monkeypatch, g, change) -> list:
    """Yield `change` of the hook row of g^-1 in its place, and every other
    row as the hook yields it; the returned list gets one entry each time
    that row is yielded.  `change` builds a new list, so the row it reads,
    which the hook may share with the rest of its run, stays as it is."""
    source = GroupSpec.heisenberg().inv(g)
    hook = Heisenberg.coordinate_rows
    hits = []

    def one_changed_row(self, gs, hs, i):
        gs = list(gs)
        for h, out in zip(gs, hook(self, gs, hs, i)):
            if h == source:
                hits.append(h)
                kept = list(out)
                changed = change(out)
                assert changed is not out and out == kept
                out = changed
            yield out

    monkeypatch.setattr(Heisenberg, "coordinate_rows", one_changed_row)
    return hits


@pytest.mark.parametrize(
    "g,place,run_length",
    [
        (BALL5[0], 0, 1),
        (BALL5[len(BALL5) // 2], 20, 41),
        (BALL5[-1], 0, 1),
        ((0, -5, 0), 0, 41),
    ],
    ids=["first", "middle", "last", "run-start"],
)
def test_one_wrong_left_row_fails_only_the_invariance_check(monkeypatch, g, place, run_length):
    # Coordinate 0 of g^-1 h, off by one on the row of one ball element g:
    # a run of one, a later row of a long g[0] run (which differs from the
    # row matched before it) and the first row of a long run.
    assert _run_place(g) == (place, run_length)
    hits = _patch_one_row(monkeypatch, g, lambda row: [x + 1 for x in row])
    report = run_scenario("heisenberg_pseudometric", radius=5, samples=10)
    assert [a.description for a in report.assertions if not a.passed] == [INVARIANCE]
    assert hits == [GroupSpec.heisenberg().inv(g)]


def test_a_negated_left_row_passes_the_invariance_check(monkeypatch):
    # Positive control: a row in the middle of its g[0] run, negated, differs
    # from the row matched before it but has the same abs, so it passes.  A
    # signed comparison of rows would turn the check to FAIL.
    g = (0, 0, 0)
    assert _run_place(g) == (20, 41)
    [row] = GroupSpec.heisenberg().coordinate_rows([g], BALL5, 0)
    assert [-x for x in row] != row
    hits = _patch_one_row(monkeypatch, g, lambda row: [-x for x in row])
    report = run_scenario("heisenberg_pseudometric", radius=5, samples=10)
    assert all(a.passed for a in report.assertions)
    assert hits == [g]


def _first_row_for_every_g(self, gs, hs, i):
    # Wrong sharing: the row of the first g, for every g.
    row = None
    for g in gs:
        row = row or [g[i] + h[i] for h in hs]
        yield row


def _rows_one_g_late(self, gs, hs, i):
    # Wrong sharing: at each change of g[i] the old row is yielded once more,
    # so the first g of every run after the first gets its predecessor's row.
    x = row = None
    for g in gs:
        if g[i] != x:
            late, x, row = row, g[i], [g[i] + h[i] for h in hs]
            yield late or row
        else:
            yield row


@pytest.mark.parametrize(
    "wrong", [_first_row_for_every_g, _rows_one_g_late], ids=["first-row", "one-g-late"]
)
def test_wrongly_shared_rows_fail_only_the_invariance_check(monkeypatch, wrong):
    # Each left row depends on g only through g[0], so sharing one row
    # across a run of equal g[0] is right; sharing it any further, or
    # switching rows a g late, hands some g the row of another g[0].
    ball = BALL5
    gs = [GroupSpec.heisenberg().inv(g) for g in ball]
    rows = list(wrong(None, gs, ball, 0))
    assert rows != list(GroupSpec.heisenberg().coordinate_rows(gs, ball, 0))
    monkeypatch.setattr(Heisenberg, "coordinate_rows", wrong)
    report = run_scenario("heisenberg_pseudometric", radius=5, samples=10)
    assert [a.description for a in report.assertions if not a.passed] == [INVARIANCE]


@pytest.mark.parametrize("radius", [5, 8])
def test_unshared_rows_give_the_same_report(monkeypatch, radius):
    # Positive control for the two wrong hooks above: the base body, one
    # `mul` per pair and one new list per g, gives the same report bytes.
    shared = report_to_json(run_scenario("heisenberg_pseudometric", radius=radius))
    monkeypatch.setattr(Heisenberg, "coordinate_rows", GroupSpec.coordinate_rows)
    assert report_to_json(run_scenario("heisenberg_pseudometric", radius=radius)) == shared


class _UncomparableRow(list):
    """A row that raises if compared as a whole; its items read as usual."""

    def __eq__(self, other):
        raise AssertionError("a left row was compared as a whole")

    __ne__ = __eq__


@pytest.mark.parametrize("radius", [5, 8])
def test_shared_rows_are_matched_by_identity(monkeypatch, radius):
    # The hook yields one row object for a run of equal g[0]; the invariance
    # check knows that row by identity and never compares it item by item.
    # Each row is rewrapped once, so the sharing stays as the hook made it.
    shared = report_to_json(run_scenario("heisenberg_pseudometric", radius=radius))
    hook = Heisenberg.coordinate_rows

    def uncomparable_rows(self, gs, hs, i):
        last = wrapped = None
        for row in hook(self, gs, hs, i):
            if row is not last:
                last, wrapped = row, _UncomparableRow(row)
            yield wrapped

    monkeypatch.setattr(Heisenberg, "coordinate_rows", uncomparable_rows)
    assert report_to_json(run_scenario("heisenberg_pseudometric", radius=radius)) == shared


AXIOMS = "pseudometric axioms on sampled triples"
WITNESS = "distinct elements at pseudodistance 0"


@pytest.mark.parametrize(
    "broken,failed",
    [
        (lambda g, h: h[0] - g[0], [AXIOMS]),
        (lambda g, h: (g[0] - h[0]) ** 2, [AXIOMS]),
        (lambda g, h: abs(g[0] - h[0]) + (g == h), [AXIOMS]),
        (lambda g, h: abs(g[0] - h[0]) + 1, [AXIOMS, WITNESS]),
    ],
    ids=["symmetry", "triangle", "diagonal", "diagonal-only"],
)
def test_a_broken_pseudometric_fails_the_axioms_check(monkeypatch, broken, failed):
    # At the default radius and samples: a signed entry12 breaks only
    # symmetry, its square only the triangle inequality, and a 1 added on the
    # diagonal the diagonal and, through triples (x, y, x) with y[0] == x[0]
    # and y != x, the triangle inequality.  A 1 added everywhere breaks only
    # the diagonal among the axioms, and the zero-distance witness with it.
    # The invariance check reads `distances` rows and does not see `eval`.
    monkeypatch.setattr(Entry12Pseudometric, "eval", lambda self, g, h: broken(g, h))
    report = run_scenario("heisenberg_pseudometric")
    assert [a.description for a in report.assertions if not a.passed] == failed


@pytest.mark.parametrize(
    "samples", [1, scenarios.BLOCK - 1, scenarios.BLOCK, scenarios.BLOCK + 1, 1000]
)
def test_the_axioms_check_evaluates_every_drawn_triple_once(monkeypatch, samples):
    # The triples are the 3 * samples points of one `choices` stream, in
    # blocks or not; each takes d(x, y), d(y, x), d(x, z), d(y, z) and
    # d(x, x), and the witness takes one more evaluation.
    calls = []
    ev = Entry12Pseudometric.eval

    def counting_eval(self, g, h):
        calls.append((g, h))
        return ev(self, g, h)

    monkeypatch.setattr(Entry12Pseudometric, "eval", counting_eval)
    report = run_scenario("heisenberg_pseudometric", radius=2, samples=samples)
    assert report.all_passed
    assert len(calls) == 5 * samples + 1
    points = random.Random(12).choices(GroupSpec.heisenberg().ball(2), k=3 * samples)
    xs, ys, zs = points[0::3], points[1::3], points[2::3]
    expected = Counter([((1, 0, 0), (1, 0, 5))])
    for pairs in (zip(xs, ys), zip(ys, xs), zip(xs, zs), zip(ys, zs), zip(xs, xs)):
        expected.update(pairs)
    assert Counter(calls) == expected


def test_the_axiom_sample_memory_stays_bounded_in_samples():
    # 150,000 points drawn at once take more than the bound for their list
    # alone; blocks of BLOCK triples stay far below it.
    bound = 256 * 1024
    ball = GroupSpec.heisenberg().ball(2)
    tracemalloc.start()
    try:
        random.Random(12).choices(ball, k=3 * 50_000)
        one_shot = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = run_scenario("heisenberg_pseudometric", radius=2, samples=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert one_shot > bound > peak


def _smith_rows_per_c(R):
    """The per-C rows of `smith_uniqueness_probe`, one pass per C and prefix."""
    Z1 = GroupSpec.free_abelian(1)
    Z23 = GroupSpec.free_abelian(1, generators=((2,), (3,)))
    d1 = WordMetric(Z1, radius_cap=4 * R)
    d2 = WordMetric(Z23, radius_cap=4 * R)
    truncation = [(i,) for i in range(-R, R + 1)]
    rows = []
    for C in range(1, 5):
        values = []
        for prefix in ladder_prefixes(truncation):
            best = 0
            for x in prefix:
                for y in prefix:
                    a = d1.eval(x, y)
                    if a is not HORIZON and a <= C:
                        b = d2.eval(x, y)
                        if b is not HORIZON:
                            best = max(best, b)
            values.append(best)
        rows.append({"C": C, "ladder_max_d2": values})
    return rows


@pytest.mark.parametrize("R", [*range(4, 13), 24, 96])
def test_smith_rows_match_the_per_c_loop(R):
    assert run_scenario("smith_uniqueness_probe", R=R).rows == _smith_rows_per_c(R)


class _SquaresMetric(MetricEvaluator):
    """|x^2 - y^2| on Z: the shift of (2, 9) by g is at |7 * (11 + 2g)|, not 7."""

    def __init__(self, spec, radius_cap=None):
        super().__init__(spec)

    def eval(self, g, h):
        return abs(g[0] ** 2 - h[0] ** 2)


def _smith_with_d2(monkeypatch, metric_class):
    """The Smith scenario and its all-pairs oracle at R=12, with d2 swapped for
    `metric_class` on the {2, 3} generating set and d1 left the word metric."""
    word = WordMetric

    def swap_d2(spec, radius_cap=64):
        if spec.generating_set == ((2,), (3,)):
            return metric_class(spec)
        return word(spec, radius_cap)

    monkeypatch.setattr(scenarios, "WordMetric", swap_d2)
    monkeypatch.setitem(globals(), "WordMetric", swap_d2)
    return run_scenario("smith_uniqueness_probe", R=12), _smith_rows_per_c(12)


def _stabilizes(report):
    verdicts = {a.description: a.passed for a in report.assertions}
    return verdicts["per-C max of the second metric stabilizes"]


def _word_metric_on(*generators):
    """A d2 swap: the word metric of Z on `generators`, in place of {2, 3},
    with the scenario's radius cap 4R at R=12."""
    return lambda spec: WordMetric(GroupSpec.free_abelian(1, generators=generators), 48)


@pytest.mark.parametrize(
    "generators,rows",
    [(((3,), (5,)), [3, 3, 3, 4]), (((2,), (5,)), [3, 3, 3, 3])],
)
def test_smith_ladder_follows_a_left_invariant_second_metric(monkeypatch, generators, rows):
    """Positive control for the d2 read: word metrics of Z on other generators
    are left-invariant too, so the difference-set ladder must equal the pair
    loop, and its rows must move with d2 (the {2, 3} rows all read 2, and a
    ladder that read d1 there would read C).

    One mutation survives every test: reading P*P for P^-1 P.  Each prefix
    is an interval of Z about 0, so its sums and its differences hold the
    same elements of norm at most 4, the only ones a row with C <= 4 reads.
    """
    report, oracle = _smith_with_d2(monkeypatch, _word_metric_on(*generators))
    assert report.rows == oracle
    assert [row["ladder_max_d2"] for row in report.rows] == [[v] * 3 for v in rows]
    assert _stabilizes(report) is True


def test_smith_ladder_needs_a_left_invariant_second_metric(monkeypatch):
    # The precondition of the difference set: |x^2 - y^2| is not
    # left-invariant.  The ladder reads it only from 0, at d(0, t) = t^2, so
    # its C=1 row is 1 where the pair loop finds (3, 4) in the first prefix.
    report, oracle = _smith_with_d2(monkeypatch, _SquaresMetric)
    assert oracle[0] == {"C": 1, "ladder_max_d2": [7, 15, 23]}
    assert report.rows[0] == {"C": 1, "ladder_max_d2": [1, 1, 1]}
    assert _stabilizes(report) is True


class _PeakMetric(MetricEvaluator):
    """|x - y| * (25 - |x| - |y|) on Z: symmetric, largest near 0, and not
    negative while |x|, |y| <= 12."""

    def eval(self, g, h):
        return abs(g[0] - h[0]) * (25 - abs(g[0]) - abs(h[0]))


def test_smith_ladder_agrees_with_the_pair_loop_when_the_maxima_straddle_0(monkeypatch):
    """Not left-invariant either, yet here the ladder agrees with the pair
    loop: at each d1 value a, the largest pair straddles 0, where
    |x| + |y| = a as for (0, t).  The first prefix already holds it.

    No test can catch a ladder that resets `best_at` at each prefix: the
    prefixes are nested, so their difference sets are too, and a reset
    gives the same rows."""
    report, oracle = _smith_with_d2(monkeypatch, _PeakMetric)
    assert report.rows == oracle
    assert report.rows[0] == {"C": 1, "ladder_max_d2": [24, 24, 24]}
    assert _stabilizes(report) is True


def test_rho_plus_base_check_fails_for_a_non_invariant_metric(monkeypatch):
    # Only the first assertion reads the Z metric; the other four use the
    # Heisenberg max-entry metric and still pass.
    monkeypatch.setattr(scenarios, "WordMetric", _SquaresMetric)
    report = run_scenario("rho_plus_demo")
    failed = [a.description for a in report.assertions if not a.passed]
    assert failed == ["truncated sup equals the base for a left-invariant metric"]
    assert len(report.assertions) == 5


@pytest.mark.parametrize("k,R", [(129, 100), (130, 100), (1000, 300)])
def test_z_quotient_metric_passes_past_the_default_radius_cap(k, R):
    # Quotient distances reach k // 2, past the default radius_cap 64 of
    # WordMetric once k >= 130; QuotientWordMetric caps at k // 2.
    report = run_scenario("z_quotient_metric", k=k, truncation_radius=R)
    failed = [a.description for a in report.assertions if not a.passed]
    assert report.all_passed, failed
    diameters = [a.observed for a in report.assertions if a.description.startswith("quotient diameter")]
    assert diameters == [k // 2] * 2


@pytest.mark.parametrize("k", [2, 5, 17])
def test_quotient_side_reads_the_word_metric_of_z_mod_k(monkeypatch, k):
    # With the word metric of Z/k capped at 0, every nonzero distance there
    # reads HORIZON: exactly the two checks that read Z/k's bounded pairs
    # fail.  The projection's images of coset jumps stay at distance 0.
    assert run_scenario("z_quotient_metric", k=k).all_passed
    bounded = scenarios.BoundedByMetric

    def capped(metric):
        if isinstance(metric.spec, Cyclic):
            metric = WordMetric(metric.spec, radius_cap=0)
        return bounded(metric)

    monkeypatch.setattr(scenarios, "BoundedByMetric", capped)
    report = run_scenario("z_quotient_metric", k=k)
    failed = [a.description for a in report.assertions if not a.passed]
    assert failed == ["section is bornologous", "section is proper on the truncation"]
    assert len(report.assertions) == 9


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("no_such_scenario")


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError):
        run_scenario("powers_of_ten", radius=3)


def test_invalid_parameter_value_rejected():
    with pytest.raises(ValueError):
        run_scenario("z_quotient_metric", k=1)
    # Each value below made evidence vacuous or a PAPER assertion FAIL.
    for name, params in [
        ("heisenberg_separation", {"N": 0}),
        ("heisenberg_separation", {"N": 1}),
        ("heisenberg_pseudometric", {"radius": 0}),
        ("heisenberg_pseudometric", {"radius": 1}),
        ("powers_of_ten", {"depth": 0}),
        ("aj_family", {"depth": 0}),
    ]:
        with pytest.raises(ValueError):
            run_scenario(name, **params)


def test_fractions_render_as_p_over_q_in_both_formats():
    from fractions import Fraction

    report = scenarios.ScenarioReport("demo", {"q": Fraction(1, 3)})
    report.rows.append({"r": Fraction(4, 2)})
    report.check("ratio", Fraction(3, 2), Fraction(3, 2), scenarios.TRIVIAL)
    payload = json.loads(report_to_json(report))
    assert payload["parameters"] == {"q": "1/3"}
    assert payload["rows"] == [{"r": "2"}]
    assert payload["assertions"][0]["expected"] == "3/2"
    tsv = report_to_tsv(report)
    assert "param\tq\t\t1/3\t\t\n" in tsv and "row\tr=2\t" in tsv


def test_fmt_values():
    from fractions import Fraction

    assert fmt(3) == "3"
    assert fmt(Fraction(3, 2)) == "3/2"
    assert fmt(Fraction(4, 2)) == "2"
    assert fmt(HORIZON) == "HORIZON"
    assert fmt(True) == "true"
    assert fmt((1, 2)) == "(1, 2)"


def _stdlib_json(report) -> str:
    """The JSON report through the standard library: plain JSON values first,
    HORIZON, tuples and Fractions as their `fmt` text, then json.dumps."""
    from fractions import Fraction

    def convert(value):
        if value is HORIZON or isinstance(value, (tuple, Fraction)):
            return fmt(value)
        if isinstance(value, list):
            return [convert(v) for v in value]
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        return value

    payload = {
        "scenario": report.name,
        "parameters": convert(report.parameters),
        "rows": convert(report.rows),
        "assertions": [
            {
                "description": a.description,
                "expected": convert(a.expected),
                "observed": convert(a.observed),
                "provenance": a.provenance,
                "pass": a.passed,
            }
            for a in report.assertions
        ],
        "truncations": convert(report.truncations),
        "all_pass": report.all_passed,
    }
    return json.dumps(payload, indent=2) + "\n"


# Every scenario at its defaults, and the stress settings of the benchmark.
SETTINGS = [(name, {}) for name in sorted(SCENARIOS)] + [(name, p) for name, p, *_ in FROZEN if p]


@pytest.mark.parametrize(
    "name, params",
    SETTINGS,
    ids=[name + "".join(f"-{k}={v}" for k, v in p.items()) for name, p in SETTINGS],
)
def test_json_report_is_the_stdlib_encoding(name, params):
    report = run_scenario(name, **params)
    assert report_to_json(report) == _stdlib_json(report)


def test_json_report_is_the_stdlib_encoding_of_every_value_kind():
    from fractions import Fraction

    class Wide(int):
        def __repr__(self):
            return "wide"

    report = scenarios.ScenarioReport("synthetic", {})
    report.check('a "quoted" \\ back\tslash\x01 ρ₊ é', HORIZON, [HORIZON, 3], scenarios.TRIVIAL)
    report.check("values", [(1, -2), Fraction(-3, 4), True, 1], [False, 0, -7, 2**70 + 1, -(2**80)], "DERIVED")
    report.check("containers", [], [{"n": 1, "d": HORIZON, 5: [{}, []]}, Wide(9)], scenarios.TRIVIAL)
    assert report_to_json(report) == _stdlib_json(report)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_params_match_the_signature(name):
    params = list(inspect.signature(SCENARIOS[name]).parameters.values())[1:]
    assert scenario_params(name) == {p.name: p.default for p in params}
    assert list(scenario_params(name)) == [p.name for p in params]


def test_scenario_params_skip_locals_and_empty_signatures(monkeypatch):
    def bare(report):
        local = 1
        return local

    def one(report, n: int = 3):
        local = n
        return local

    monkeypatch.setitem(SCENARIOS, "bare", bare)
    monkeypatch.setitem(SCENARIOS, "one", one)
    assert scenario_params("bare") == {}
    assert scenario_params("one") == {"n": 3}
    assert run_scenario("bare").parameters == {}
