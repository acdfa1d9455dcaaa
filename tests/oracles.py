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

