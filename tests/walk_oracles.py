"""A breadth-first walk that keeps every state of its ball, and its word
read-back, as independent oracles for the walks in crystpres.  The
element bound is crystpres.bfs.DEFAULT_MAX_ELEMENTS, read at the call,
so tests that patch it patch this walk too."""

from crystpres import bfs


def _expand(neighbours, entries, radius):
    """Yields spheres 1..radius of a walk that needs words or order.

    `neighbours(g)` lists (letter, h) for the edges leaving state g.
    `entries` starts as {start: (0, 0)}, maps every state seen so far to
    (distance, last letter) and grows in place.  Discovery order is
    frontier order, then the order of `neighbours`.  Past
    DEFAULT_MAX_ELEMENTS entries: BallBoundExceeded.
    """
    bound = bfs.DEFAULT_MAX_ELEMENTS
    sphere = list(entries)
    for r in range(1, radius + 1):
        frontier, sphere = sphere, []
        for g in frontier:
            for x, h in neighbours(g):
                if h in entries:
                    continue
                if len(entries) >= bound:
                    raise bfs.BallBoundExceeded(
                        f"ball exceeded {bound} elements at radius {r}")
                entries[h] = (r, x)
                sphere.append(h)
        yield sphere


def _word(move, entries, h):
    """The first-discovered shortest word reaching state h."""
    letters = []
    while True:
        dist, x = entries[h]
        if dist == 0:
            return tuple(reversed(letters))
        letters.append(x)
        h = move[-x](h)
