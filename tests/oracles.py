"""Independent brute-force oracles used to freeze expected test values."""

import itertools
from collections import deque


def heis_to_matrix(t):
    a, b, c = t
    return [[1, a, c], [0, 1, b], [0, 0, 1]]


def heis_max_entry_norm(t):
    """Largest |entry| of the matrix of t minus the identity matrix."""
    m = heis_to_matrix(t)
    return max(abs(m[i][j] - (i == j)) for i in range(3) for j in range(3))


def matmul3(m, n):
    return [
        [sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def matinv_unitriangular(m):
    # Gauss elimination specialized to 3x3 upper unitriangular integer input.
    a, c, b = m[0][1], m[0][2], m[1][2]
    return [[1, -a, a * b - c], [0, 1, -b], [0, 0, 1]]


def heis_from_matrix(m):
    return (m[0][1], m[1][2], m[0][2])


def bfs_distances(adjacency, source):
    """Plain queue-based breadth-first search over an explicit graph."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def cayley_adjacency(spec, nodes):
    """Explicit adjacency lists of the Cayley graph restricted to `nodes`."""
    nodes = set(nodes)
    gens = spec.symmetric_generators()
    return {
        u: [spec.mul(u, s) for s in gens if spec.mul(u, s) in nodes]
        for u in nodes
    }


def cube(radius, rank):
    """The integer points of [-radius, radius]^rank, in lexicographic order."""
    return list(itertools.product(range(-radius, radius + 1), repeat=rank))


def scan_ball(metric, n, radius_cap=None):
    """{g : d(e, g) <= n}, by scanning coordinate cubes of the rank of
    `metric.spec`: every element on Z^n and the Heisenberg triples.

    The cube radius doubles until one doubling adds nothing.  A distance
    that is not an int is a HORIZON marker, past `radius_cap`: outside the
    ball when n <= radius_cap; otherwise (or with no cap given) its
    membership is unknown and the scan raises ValueError.
    """
    spec = metric.spec
    e = spec.identity()
    radius = max(4, n + 1)
    prev = None
    while True:
        current = set()
        for g in cube(radius, spec.rank):
            d = metric.eval(e, g)
            if isinstance(d, int):
                if d <= n:
                    current.add(g)
            elif radius_cap is None or n > radius_cap:
                raise ValueError(f"ball({n}) needs a distance past radius cap {radius_cap} at {g}")
        current = frozenset(current)
        if current == prev:
            return current
        prev = current
        radius *= 2
