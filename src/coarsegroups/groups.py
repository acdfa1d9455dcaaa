"""Exact arithmetic and canonical forms for the concrete groups in the toolkit.

Every element of every kind is a flat tuple of `rank` ints.  `GroupSpec`
holds the generating set, word balls, the element stream, and the identity
and element check shared by all kinds; each kind is one subclass with its
own group law: `FreeAbelian` (Z^n), `Heisenberg` (upper unitriangular 3x3
matrices encoded as (a, b, c) with (1,2)=a, (2,3)=b, (1,3)=c),
`DirectProduct` (the left factor's coordinates followed by the right
factor's) and `Cyclic` (Z/k, with elements (0,), ..., (k-1,)).  A rank-1
`FreeAbelian` is always `Integers` (Z), which holds the rank-1 code.
Build them with the `GroupSpec` constructors.  All arithmetic is
arbitrary-precision and all encodings are canonical: equal group elements
have identical payloads, so natural tuple order is the one element order.

Besides `mul`, every kind answers three set-at-a-time hooks:
`coordinate_rows(gs, hs, i)`, which yields [(g*h)[i] for h in hs] for each g
in `gs`; `product_set(a, b, cap)`, the set {x*y : x in a, y in b}, which raises
once it holds more than `cap` elements; and `left_shadow(pairs)`, the set
{x^-1 y}.  Generated bornologies, chain metrics and the Smith ladder (the
difference set P^-1 P of each prefix) build their sets through `product_set`,
left bornological structures their shadows through `left_shadow`, and the
Heisenberg invariance check reads coordinate 0 through `coordinate_rows`.
`Heisenberg` overrides `coordinate_rows` on its additive coordinates 0 and 1
with one row of sums per run of equal g[i]; `Integers` overrides `left_shadow`
with int differences and `product_set` with int sums: a big-int bit mask, one
shift-or per element, when the sums span fewer values than there are pairs and
no more than the cap, plain sums per pair otherwise.  Every other kind inherits
the bodies built on `mul` and `inv`.  `abelian` holds where `mul` commutes.

Word spheres come from a breadth-first search, except on Z with the
generator (1,), which lists them directly; the Heisenberg ball of
(1,0,0), (0,1,0) is listed column by column from Blachère's formula.

Specs are values (base `_Value`): equal, and hashing alike, when of one
kind with equal fields, as two `cyclic(7)`, and never changed once built.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Iterator


class BudgetExceededError(RuntimeError):
    """A ball or set materialization passed the configured size cap."""


def _env_cap(name: str) -> int:
    raw = os.environ.get(name, "1000000")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def ball_size_cap() -> int:
    return _env_cap("COARSE_BALL_CAP")


def set_size_cap() -> int:
    return _env_cap("COARSE_SET_CAP")


def check_set_size(size: int, cap: int) -> None:
    """Raise BudgetExceededError when a set of `size` elements passes `cap`,
    a `COARSE_SET_CAP` its caller read."""
    if size > cap:
        raise BudgetExceededError(f"set of {size} elements exceeded size cap {cap}")


def _ball_cap_error(cap: int) -> BudgetExceededError:
    return BudgetExceededError(f"word ball exceeded size cap {cap}")


def _union_rows(rows, cap: int) -> set:
    """The union of the lists `rows`, checked against `cap` after each row."""
    out = set()
    for row in rows:
        out.update(row)
        check_set_size(len(out), cap)
    return out


class _Value:
    """A record equal to one of its own class with equal fields, hashed as the
    tuple of its fields: the `__slots__` of its classes, base first, which
    the constructor takes in that order.  A record never changes: setting or
    deleting a field raises AttributeError, so a record that keys a set or a
    cache keeps its hash."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} field {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, not setattr.
        return type(self), self._key()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())


def shell_key(g) -> tuple:
    """Ordering used by element streams: small magnitudes, positives first."""
    return tuple((abs(c), c < 0) for c in g)


_UNIT_VECTORS: dict = {}  # rank -> unit vectors, at most COARSE_SET_CAP ints in all


def _units(rank: int) -> tuple:
    """The unit vectors of Z^rank, kept unless that would pass the cap."""
    units = _UNIT_VECTORS.get(rank)
    if units is None:
        units = tuple((0,) * i + (1,) + (0,) * (rank - 1 - i) for i in range(rank))
        if rank * rank + sum(r * r for r in _UNIT_VECTORS) <= set_size_cap():
            _UNIT_VECTORS[rank] = units
    return units


class _Horizon:
    """Marker returned when a truncated evaluation passes its radius cap."""

    def __repr__(self):
        return "HORIZON"

    def __reduce__(self):
        return "HORIZON"


HORIZON = _Horizon()


class GroupSpec(_Value):
    """A concrete finitely generated group with a fixed generating set.

    A spec is a value: specs of one kind with equal fields (generating set,
    and the rank, factors or modulus of the kind) are equal and hash alike,
    and setting a field raises AttributeError.

    Every element is a tuple of `rank` ints, on every kind.  The base class
    defines identity() and check_element(g) (TypeError unless g is an
    element).  Each kind subclass defines mul(g, h) and inv(g); Z/k and a
    direct product also narrow check_element.

    The set-at-a-time law has three hooks: coordinate_rows(gs, hs, i),
    product_set(a, b, cap) and left_shadow(pairs), built on `mul` and
    `inv`; `Heisenberg` overrides coordinate_rows on coordinates 0 and 1,
    and `Integers` (Z) the other two with int arithmetic.  The class fact
    `abelian` is True exactly when `mul` commutes.

    Word balls, the element stream and word-norm tables come from
    `spheres()`, a breadth-first search that `Integers` with (1,) replaces
    by a closed form, or, for the Heisenberg ball, from
    `word_ball(radius)`.  `COARSE_BALL_CAP` is the only size cap of balls
    and streams, and every path refuses the same radius with the same
    message.  Closed-form word distances, and the diameter kernel of Z in
    `Integers`, come from `word_distance(cap)`.
    """

    __slots__ = ("generating_set",)
    # The number of integer coordinates of an element; each kind sets it.
    rank: int
    abelian = False

    # -- constructors -------------------------------------------------

    @staticmethod
    def free_abelian(rank: int, generators: tuple | None = None) -> "GroupSpec":
        if rank < 1:
            raise ValueError("rank must be positive")
        gens = generators if generators is not None else _units(rank)
        return FreeAbelian(tuple(gens), rank)

    @staticmethod
    def cyclic(modulus: int, generators: tuple | None = None) -> "GroupSpec":
        """Z/k; generators are 1-tuples."""
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        gens = generators if generators is not None else ((1,),)
        return Cyclic(tuple(gens), modulus)

    @staticmethod
    def heisenberg(generators: tuple | None = None) -> "GroupSpec":
        gens = generators if generators is not None else ((1, 0, 0), (0, 1, 0))
        return Heisenberg(tuple(gens))

    @staticmethod
    def direct_product(left: "GroupSpec", right: "GroupSpec") -> "GroupSpec":
        le, re = left.identity(), right.identity()
        gens = tuple(g + re for g in left.generating_set) + tuple(
            le + g for g in right.generating_set
        )
        return DirectProduct(gens, (left, right), left.rank + right.rank)

    def word_distance(self, cap: int):
        """The word distance as one closed-form function of (g, h), or None.

        The function returns HORIZON for distances past `cap`.  Only the
        standard generators have one: the unit vectors of Z^n, the
        generator (1,) of Z/k, and (1,0,0), (0,1,0) on the Heisenberg
        group.  Every other kind and generating set reads word distances
        off `spheres()`.
        """
        return None

    def word_ball(self, radius: int) -> list | None:
        """The sorted word ball of `radius` from a closed form, or None: only
        the Heisenberg generators (1,0,0), (0,1,0) have one.  It raises
        exactly where `spheres()` would, past `COARSE_BALL_CAP` elements."""
        return None

    # -- elements and enumeration, shared by every kind ---------------

    def identity(self) -> tuple:
        return (0,) * self.rank

    def check_element(self, g) -> None:
        if not (
            isinstance(g, tuple)
            and len(g) == self.rank
            and all(isinstance(c, int) for c in g)
        ):
            raise TypeError(f"{g!r} is not an element of {self.kind} group")

    def coordinate_rows(self, gs, hs, i: int) -> Iterator[list]:
        """Yield [(g*h)[i] for h in hs] for each g in `gs`, in order.  A kind
        may yield one list for several g's: never mutate a yielded row."""
        mul = self.mul
        for g in gs:
            yield [mul(g, h)[i] for h in hs]

    def product_set(self, a, b, cap: int) -> set:
        """{x*y : x in a, y in b}; past `cap` elements, raises after one row x*b."""
        mul = self.mul
        if len(a) * len(b) <= cap:
            return {mul(x, y) for x in a for y in b}
        return _union_rows(([mul(x, y) for y in b] for x in a), cap)

    def left_shadow(self, pairs) -> set:
        """{x^-1 y : (x, y) in pairs}."""
        return {self.mul(self.inv(x), y) for x, y in pairs}

    def symmetric_generators(self) -> tuple:
        """Each generator followed by its inverse, first occurrences only."""
        return tuple(dict.fromkeys(h for g in self.generating_set for h in (g, self.inv(g))))

    def spheres(self) -> Iterator[list]:
        """The word spheres S_0 = [e], S_1, S_2, ... as lists.

        S_k holds the elements of word length exactly k, in no fixed
        order.  The stream ends after the last sphere of a finite group.
        Raises BudgetExceededError as soon as the ball built so far holds
        more than `COARSE_BALL_CAP` elements; S_0 alone never does.
        """
        cap = ball_size_cap()
        gens = self.symmetric_generators()
        # The generators are symmetric, so the neighbours of S_k lie in
        # S_{k-1}, S_k and S_{k+1}.  Only the last two spheres are kept; the
        # set that dedups against them is rebuilt per sphere and dropped
        # before each yield.
        prev, sphere, size = [], [self.identity()], 1
        while sphere:
            yield sphere
            seen = {*prev, *sphere}
            nxt = []
            for g in sphere:
                for s in gens:
                    h = self.mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                        size += 1
                        if size > cap:
                            raise _ball_cap_error(cap)
            prev, sphere, seen = sphere, nxt, None

    def ball(self, radius: int) -> list:
        """All products of at most `radius` generators-or-inverses.

        Returned in lexicographic order on canonical encodings.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        out = self.word_ball(radius)
        if out is None:
            out = sorted(itertools.chain.from_iterable(itertools.islice(self.spheres(), radius + 1)))
        return out

    def sphere_stream(self) -> Iterator:
        """Stream group elements shell by shell in the word metric.

        Each shell is ordered small-magnitude-first with positive entries
        before negative ones, giving the fixed enumeration 0, 1, -1, 2, -2,
        ... on the integers.
        """
        for sphere in self.spheres():
            yield from sorted(sphere, key=shell_key)


class FreeAbelian(GroupSpec):
    __slots__ = ("rank",)
    kind = "free-abelian"
    abelian = True

    def __new__(cls, generating_set, rank):
        # The one rank-1 dispatch point (constructors, copies, pickles); sets the fields.
        self = object.__new__(Integers if rank == 1 else FreeAbelian)
        object.__setattr__(self, "generating_set", generating_set)
        object.__setattr__(self, "rank", rank)
        return self

    def __init__(self, generating_set, rank):
        """The fields are set in `__new__`."""

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def inv(self, g):
        return tuple(map(operator.neg, g))

    def word_distance(self, cap: int):
        if self.generating_set != _units(self.rank):
            return None

        def dist(g, h):
            d = sum(map(abs, map(operator.sub, h, g)))
            return d if d <= cap else HORIZON

        return dist


class Integers(FreeAbelian):
    """Z: one int operation per `mul` and `inv`; for the generator (1,),
    closed-form spheres and word distance |h - g| with a max - min diameter."""

    __slots__ = ()

    def mul(self, g, h):
        return (g[0] + h[0],)

    def inv(self, g):
        return (-g[0],)

    def product_set(self, a, b, cap: int) -> set:
        xs, ys = [x for (x,) in a], [y for (y,) in b]
        pairs = len(xs) * len(ys)
        if pairs:
            lo = min(xs) + min(ys)
            width = max(xs) + max(ys) - lo + 1
            if width < pairs and width <= cap:
                # Fewer possible sums than pairs, and no more than the cap
                # allows elements, so this product cannot raise.
                return {(lo + i,) for i in _sum_offsets(xs, ys)}
        if pairs <= cap:
            # Sums repeat on progressions: wrap each distinct sum once.
            return {(s,) for s in {x + y for x in xs for y in ys}}
        return _union_rows(([(x + y,) for y in ys] for x in xs), cap)

    def left_shadow(self, pairs) -> set:
        return {(y - x,) for (x,), (y,) in pairs}

    def word_distance(self, cap: int):
        if self.generating_set != ((1,),):
            return None

        def dist(g, h):
            d = abs(h[0] - g[0])
            return d if d <= cap else HORIZON

        def diameter(elements):
            xs = [x for (x,) in elements]
            d = max(xs, default=0) - min(xs, default=0)
            return d if d <= cap else HORIZON

        dist.diameter = diameter
        return dist

    def spheres(self) -> Iterator[list]:
        if self.generating_set != ((1,),):
            yield from super().spheres()
            return
        # The cap check of `GroupSpec.spheres`: S_k = [(k,), (-k,)] takes the
        # ball to 2k + 1 elements, and the first S_k past the cap raises.
        cap = ball_size_cap()
        yield [(0,)]
        for k in itertools.count(1):
            if 2 * k + 1 > cap:
                raise _ball_cap_error(cap)
            yield [(k,), (-k,)]


def _sum_offsets(xs: list, ys: list) -> Iterator[int]:
    """Yield s - min(xs) - min(ys) for each distinct sum s = x + y, rising:
    the set bits of the longer list's bit mask OR-ed in once per element of
    the shorter, shifted by that element's offset from the shorter list's
    minimum, and read back with one `str.find` per sum, not a step per bit."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    x0, x1, y0 = min(xs), max(xs), min(ys)
    row = bytearray(b"0") * (x1 - x0 + 1)
    for x in xs:
        row[x1 - x] = 49  # "1" at the bit x - x0, counted from the right
    mask, acc = int(row, 2), 0
    for y in ys:
        acc |= mask << (y - y0)
    bits = bin(acc)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class Heisenberg(GroupSpec):
    __slots__ = ()
    rank = 3
    kind = "heisenberg"

    def mul(self, g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    def inv(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def coordinate_rows(self, gs, hs, i: int) -> Iterator[list]:
        # Coordinates 0 and 1 add, so a row depends on g[i] alone: one row
        # per run of equal g[i].  Coordinate 2 goes through the law.
        if i not in (0, 1, -3, -2):
            yield from super().coordinate_rows(gs, hs, i)
            return
        col = [h[i] for h in hs]
        for x, run in itertools.groupby(gs, operator.itemgetter(i)):
            row = [x + y for y in col]
            for _ in run:
                yield row

    def word_distance(self, cap: int):
        if self.generating_set == ((1, 0, 0), (0, 1, 0)):
            return _heisenberg_word_distance(cap)
        return None

    def word_ball(self, radius: int) -> list | None:
        if self.generating_set == ((1, 0, 0), (0, 1, 0)):
            return _heisenberg_ball(radius)
        return None


def _heisenberg_word_distance(cap: int):
    """The word distance of the generators (1,0,0), (0,1,0) on Heisenberg
    triples, HORIZON past `cap` (S. Blachère, "Word distance on the discrete
    Heisenberg group", Colloq. Math. 95 (2003)).

    A word for (a, b, c) = g^-1 h is a lattice path from (0, 0) to (a, b)
    with c the integral of x dy along it.  After the reflections
    (a, b, c) -> (-a, b, -c) and (a, -b, -c), a >= 0 and b >= 0, and a
    monotone path reaches exactly the c in [0, ab].  Otherwise, with c
    replaced by ab - c when c < 0 so that c > ab, the distance is
    a + b + 2k for the least k >= 1 with M(k) >= c, where M(k) is the
    largest area of a rectangle of semi-perimeter a + b + k holding
    [0, a] x [0, b]; M increases with k.
    """

    def dist(g, h):
        # (a, b, c) = g^-1 h.
        a, b = h[0] - g[0], h[1] - g[1]
        c = h[2] - g[2] - g[0] * b
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b, c = -b, -c
        n = a + b
        if not 0 <= c <= a * b:
            if c < 0:
                c = a * b - c
            lo, hi = sorted((a, b))
            # While k < hi - lo the rectangle is hi by lo + k, of area
            # hi * (lo + k); from there on it is as square as its
            # semi-perimeter s = n + k allows, of area floor(s^2 / 4) >= c
            # exactly when s^2 >= 4c.
            k = -(-c // hi) - lo if hi > lo else 0
            if k >= hi - lo:
                k = math.isqrt(4 * c - 1) + 1 - n
            n += 2 * k
        return n if n <= cap else HORIZON

    return dist


def _heisenberg_ball(r: int) -> list:
    """The word ball of radius r of (1,0,0), (0,1,0), sorted, one (a, b)
    column at a time.  By `_heisenberg_word_distance`, with x = |a|,
    y = |b|, n = x + y <= r and k = (r - n) // 2 (word lengths keep the
    parity of n), the column is c in [xy - M(k), M(k)] for a, b of one sign
    and [-M(k), M(k) - xy] otherwise.  A column is sized before it is
    listed, and the first that takes the ball past `COARSE_BALL_CAP` raises."""
    cap = ball_size_cap()
    out = []
    for a in range(-r, r + 1):
        x = abs(a)
        for b in range(x - r, r - x + 1):
            y = abs(b)
            k = (r - x - y) // 2
            lo, hi = (x, y) if x < y else (y, x)
            # top = M(k), the area bound of `_heisenberg_word_distance`.
            top = hi * (lo + k) if k < hi - lo else (x + y + k) ** 2 // 4
            first, last = (x * y - top, top) if (a < 0) == (b < 0) else (-top, top - x * y)
            size = last - first + 1
            if len(out) + size > cap:
                raise _ball_cap_error(cap)
            out += zip(itertools.repeat(a, size), itertools.repeat(b, size), range(first, last + 1))
    return out


class DirectProduct(GroupSpec):
    """The left factor's coordinates followed by the right factor's."""

    __slots__ = ("factors", "rank")
    kind = "direct-product"

    @property
    def abelian(self) -> bool:
        return all(f.abelian for f in self.factors)

    def check_element(self, g) -> None:
        super().check_element(g)
        left, right = self.factors
        left.check_element(g[: left.rank])
        right.check_element(g[left.rank :])

    def mul(self, g, h):
        left, right = self.factors
        w = left.rank
        return left.mul(g[:w], h[:w]) + right.mul(g[w:], h[w:])

    def inv(self, g):
        left, right = self.factors
        w = left.rank
        return left.inv(g[:w]) + right.inv(g[w:])


class Cyclic(GroupSpec):
    """Z/k, k = `modulus` >= 2, with elements (0,), ..., (k-1,)."""

    __slots__ = ("modulus",)
    rank = 1
    kind = "cyclic"
    abelian = True

    def _reduce(self, g) -> tuple:
        """The residue of the integer (x,) as an element."""
        return (g[0] % self.modulus,)

    def check_element(self, g) -> None:
        super().check_element(g)
        if not 0 <= g[0] < self.modulus:
            raise TypeError(f"{g!r} is not an element of {self.kind} group")

    def mul(self, g, h):
        return ((g[0] + h[0]) % self.modulus,)

    def inv(self, g):
        return (-g[0] % self.modulus,)

    def word_distance(self, cap: int):
        if self.generating_set != ((1,),):
            return None
        k = self.modulus

        def dist(g, h):
            r = (h[0] - g[0]) % k
            d = min(r, k - r)
            return d if d <= cap else HORIZON

        return dist
