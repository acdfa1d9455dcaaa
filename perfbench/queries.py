"""Seeded query stream for the ``queries`` workload, and its independent oracle.

The stream is built in blocks of ``BLOCK`` queries with a fixed make-up:
every block holds the same number of queries of each class, and word
norms are stratified over each class's range, so that blocks cost about
the same and latency percentiles do not depend on the seed.  The seed
picks the elements, the exact norms within each stratum, and the order.

Tiers (per block of 200):

* cheap (80): closed-form metrics (``maxentry``, ``entry12``,
  ``quotient:k``, word metric on ``Z/k``), word distances on ``Z``
  (norms 0..80, so some pass the radius-64 horizon) and ``member`` on the
  ``minimal`` bornology.  These spend most of their time in CLI parsing
  and dispatch.
* middle (100): word distances on ``Z^2`` (norms 0..60), ``Z^3``
  (0..16) and the Heisenberg group (words of length 0..12), and
  ``member`` on ``geom:b,L`` at depths 1..17 (generation levels 0-2).
* heavy (20): ``Z^2`` distances past radius 64 (``HORIZON``), ``Z^3``
  norms 17..21, and ``member`` on ``geom:b,L`` at depths 20..41
  (level 3).  The p95 latency falls inside this tier.

Every query builds its word-norm table or generated basis from scratch,
and most repeat a (group, metric) or (bornology, depth) seen earlier: the
property a cache shared across calls would exploit.

Nothing here imports ``coarsegroups``: answers are checked against closed
forms, a breadth-first search built on ``tests/oracles.py``, and member
verdicts frozen in ``expected.json``.
"""

from __future__ import annotations

import importlib.util
import os
import random
from dataclasses import dataclass

BLOCK = 200
RADIUS_CAP = 64  # the CLI's word-metric radius cap; larger norms answer HORIZON
H_MAX_WORD = 12

GEOM_BORNOLOGIES = ("geom:10,6", "geom:2,8", "geom:3,5", "geom:5,4", "geom:4,6")
MEMBER_SETS = (
    "{0,10,100}",
    "evens:0..50",
    "{1,2,3}",
    "{0,1}",
    "{-3,7}",
    "evens:-20..20",
    "{0,2,4,8,16}",
    "{5}",
)
MIDDLE_DEPTHS = (1, 2, 4, 7, 10, 13, 17)
HEAVY_DEPTHS = (20, 28, 35, 41)
MINIMAL_DEPTHS = MIDDLE_DEPTHS + HEAVY_DEPTHS


@dataclass(frozen=True)
class Query:
    argv: tuple
    key: tuple  # (group, metric) or (bornology, depth): what a shared cache would key on
    check: tuple  # how the oracle computes the expected answer


def _fmt(payload) -> str:
    if isinstance(payload, int):
        return str(payload)
    return "(" + ",".join(str(x) for x in payload) + ")"


def _stratum(rng: random.Random, lo: int, hi: int, slot: int, slots: int) -> int:
    """A value in the slot-th of `slots` equal sub-ranges of [lo, hi]."""
    span = hi - lo + 1
    a = lo + (span * slot) // slots
    b = lo + (span * (slot + 1)) // slots - 1
    return rng.randint(a, max(a, b))


def _vector_of_norm(rng: random.Random, rank: int, norm: int) -> tuple:
    """A random integer vector with the given L1 norm."""
    cuts = sorted(rng.randint(0, norm) for _ in range(rank - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
    return tuple(p if rng.random() < 0.5 else -p for p in parts)


def _heis_mul(g, h):
    a, b, c = g
    a2, b2, c2 = h
    return (a + a2, b + b2, c + c2 + a * b2)


H_GENERATORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def _word_distance(rng, group, rank, norm):
    g = tuple(rng.randint(-100, 100) for _ in range(rank))
    t = _vector_of_norm(rng, rank, norm)
    h = tuple(x + y for x, y in zip(g, t))
    if rank == 1:
        args = (str(g[0]), str(h[0]))
    else:
        args = (_fmt(g), _fmt(h))
    return Query(
        ("distance", "--group", group, "--metric", "word") + args,
        (group, "word"),
        ("l1", sum(abs(x) for x in t)),
    )


def _heisenberg_word(rng, length):
    g = (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-200, 200))
    h = g
    for _ in range(length):
        h = _heis_mul(h, rng.choice(H_GENERATORS))
    return Query(
        ("distance", "--group", "H", "--metric", "word", _fmt(g), _fmt(h)),
        ("H", "word"),
        ("heis_word", g, h),
    )


def _heisenberg_closed(rng, metric):
    g, h = (
        (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(2)
    )
    return Query(
        ("distance", "--group", "H", "--metric", metric, _fmt(g), _fmt(h)),
        ("H", metric),
        (metric, g, h),
    )


def _quotient(rng):
    k = rng.randint(2, 60)
    g, h = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    return Query(
        ("distance", "--group", "Z", "--metric", f"quotient:{k}", str(g), str(h)),
        ("Z", f"quotient:{k}"),
        ("mod", k, h - g),
    )


def _cyclic(rng):
    k = rng.randint(2, 100)
    g, h = rng.randint(0, k - 1), rng.randint(-500, 500)
    return Query(
        ("distance", "--group", f"Z/{k}", "--metric", "word", str(g), str(h)),
        (f"Z/{k}", "word"),
        ("mod", k, h - g),
    )


def _member(rng, bornology, depth):
    text = rng.choice(MEMBER_SETS)
    return Query(
        ("member", "--bornology", bornology, "--set", text, "--depth", str(depth)),
        (bornology, depth),
        ("member", bornology, text, depth),
    )


def block(seed: int, index: int) -> list[Query]:
    """The index-th block of the stream for this seed."""
    rng = random.Random(seed * 1_000_003 + index)
    out: list[Query] = []

    def each(count, make):
        for slot in range(count):
            out.append(make(slot, count))

    # cheap tier: 80
    each(16, lambda s, n: _heisenberg_closed(rng, "maxentry"))
    each(16, lambda s, n: _heisenberg_closed(rng, "entry12"))
    each(16, lambda s, n: _quotient(rng))
    each(16, lambda s, n: _cyclic(rng))
    each(8, lambda s, n: _word_distance(rng, "Z", 1, _stratum(rng, 0, 80, s, n)))
    each(8, lambda s, n: _member(rng, "minimal", rng.choice(MINIMAL_DEPTHS)))
    # middle tier: 100
    each(28, lambda s, n: _word_distance(rng, "Z^2", 2, _stratum(rng, 0, 60, s, n)))
    each(20, lambda s, n: _word_distance(rng, "Z^3", 3, _stratum(rng, 0, 16, s, n)))
    each(24, lambda s, n: _heisenberg_word(rng, _stratum(rng, 0, H_MAX_WORD, s, n)))
    each(28, lambda s, n: _member(rng, rng.choice(GEOM_BORNOLOGIES), MIDDLE_DEPTHS[s % 7]))
    # heavy tier: 20
    each(6, lambda s, n: _word_distance(rng, "Z^2", 2, _stratum(rng, 65, 90, s, n)))
    each(6, lambda s, n: _word_distance(rng, "Z^3", 3, _stratum(rng, 17, 21, s, n)))
    each(8, lambda s, n: _member(rng, rng.choice(GEOM_BORNOLOGIES), HEAVY_DEPTHS[s % 4]))
    assert len(out) == BLOCK
    rng.shuffle(out)
    return out


def member_catalogue() -> list[tuple]:
    """Every (bornology, set, depth) the stream can ask, for freezing verdicts."""
    out = []
    for bornology in GEOM_BORNOLOGIES:
        for depth in MIDDLE_DEPTHS + HEAVY_DEPTHS:
            out.extend((bornology, text, depth) for text in MEMBER_SETS)
    out.extend(("minimal", text, depth) for depth in MINIMAL_DEPTHS for text in MEMBER_SETS)
    return out


def member_key(bornology: str, text: str, depth: int) -> str:
    return f"{bornology} {text} {depth}"


def repeat_share(queries: list[Query]) -> float:
    """Share of queries whose cache key already appeared earlier in the stream."""
    seen: set = set()
    repeats = 0
    for q in queries:
        repeats += q.key in seen
        seen.add(q.key)
    return repeats / len(queries) if queries else 0.0


# -- oracle ------------------------------------------------------------


def _load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("coarsegroups_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    """Expected CLI output for each query, computed without the program."""

    def __init__(self, root: str, frozen_members: dict):
        self._oracles = _load_oracles(root)
        self._members = frozen_members
        self._heis_norms = None

    def _heisenberg_norms(self) -> dict:
        """Word norms on H of every element within distance H_MAX_WORD.

        Breadth-first search over the Cayley graph restricted to
        |a| + |b| <= R, |c| <= R^2 / 4, which holds every word of length at
        most R (c moves by at most |a| <= k per b-step, over at most R - k
        b-steps), so distances up to R are exact.  Products use the
        oracle's 3x3 matrices, not the program's group law.
        """
        if self._heis_norms is None:
            o = self._oracles
            r = H_MAX_WORD
            gens = [o.heis_to_matrix(s) for s in H_GENERATORS]
            nodes = {
                (a, b, c)
                for a in range(-r, r + 1)
                for b in range(-(r - abs(a)), r - abs(a) + 1)
                for c in range(-(r * r) // 4, (r * r) // 4 + 1)
            }
            adjacency = {}
            for u in nodes:
                m = o.heis_to_matrix(u)
                adjacency[u] = [
                    v
                    for v in (o.heis_from_matrix(o.matmul3(m, s)) for s in gens)
                    if v in nodes
                ]
            self._heis_norms = o.bfs_distances(adjacency, (0, 0, 0))
        return self._heis_norms

    def expected(self, q: Query) -> str:
        kind = q.check[0]
        if kind == "l1":
            norm = q.check[1]
            return "HORIZON" if norm > RADIUS_CAP else str(norm)
        if kind == "mod":
            k, diff = q.check[1], q.check[2]
            r = diff % k
            return str(min(r, k - r))
        if kind == "maxentry":
            return str(max(abs(x - y) for x, y in zip(q.check[1], q.check[2])))
        if kind == "entry12":
            return str(abs(q.check[1][0] - q.check[2][0]))
        if kind == "heis_word":
            o = self._oracles
            g, h = q.check[1], q.check[2]
            t = o.heis_from_matrix(
                o.matmul3(o.matinv_unitriangular(o.heis_to_matrix(g)), o.heis_to_matrix(h))
            )
            return str(self._heisenberg_norms()[t])
        if kind == "member":
            return self._members[member_key(*q.check[1:])]
        raise ValueError(f"unknown check {kind!r}")
