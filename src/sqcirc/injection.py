"""The injection from nonempty squares to small circuits.

Each square class maps into circuits of its own root, at orders computed from
the member coordinates (index at least 2) or from the members' lexicographic
ranks (index 1). Images across classes stay distinct because a circuit
determines its root class and its order.

One core, class_images, maps the rows of squares.class_rows to plain
(square, circuit root, order) images; inject_class, audit_injection and
build_injection wrap it, and missing_images looks each image up in the
circuit order ranges.
"""
from __future__ import annotations

from typing import NamedTuple

from .circuits import SmallCircuit, _canonical_circuit, circuit_order_ranges
from .squares import Square, SquareClass, class_rows, distinct_squares, period_runs


class InjectionReport(NamedTuple):
    assignments: tuple[tuple[Square, SmallCircuit], ...]
    injective: bool
    all_images_exist: bool
    square_count: int
    circuit_count: int


def class_images(rows) -> list[tuple[Square, str, int]]:
    """The image (square, circuit root, order) of every member of every row
    of squares.class_rows, row by row and in each row in member order.

    Index >= 2: the member with coordinates (i, j) goes to C(v, j*l + i - 1),
    l = |v|. Index 1: the members, sorted by word, receive ranks i = 1..t and
    go to C(v, l + i - 1); the rank pairing is a convention, any bijection
    onto those circuits preserves the counting argument. The circuit root is
    the row's least rotation of v; v is primitive, so every order is >= l.
    """
    images = []
    for v, index, canon, members in rows:
        l = len(v)
        if index >= 2:
            images += [(sq, canon, j * l + i - 1) for sq, i, j in members]
        else:
            images += [(sq, canon, l + rank) for rank, (sq, _, _) in enumerate(members)]
    return images


def inject_class(cls: SquareClass) -> list[tuple[Square, SmallCircuit]]:
    """Map the members of one square class to small circuits, in square order:
    class_images over the class's one row."""
    return [(sq, _canonical_circuit(root, r))
            for sq, root, r in class_images(class_rows(cls.members))]


def build_injection(w: str) -> InjectionReport:
    """The full map over every class, with its health flags, from one scan."""
    runs = period_runs(w)
    return audit_injection(class_images(class_rows(distinct_squares(w, runs))),
                           circuit_order_ranges(w, runs))


def missing_images(images: list[tuple[Square, str, int]],
                   ranges: dict[str, tuple[int, int]]) -> set[tuple[str, int]]:
    """The (circuit root, order) images of class_images that name no circuit
    of ranges, w's circuit_order_ranges: one lookup per image."""
    return {(root, r) for _, root, r in images
            for lo, hi in [ranges.get(root, (1, 0))] if not lo <= r <= hi}


def audit_injection(images: list[tuple[Square, str, int]],
                    ranges: dict[str, tuple[int, int]]) -> InjectionReport:
    """Audit the images of class_images against the circuits of ranges, w's
    circuit_order_ranges.

    Assignments come in square order: shortest square first, then
    lexicographic. A missing image or a collision would falsify the bound,
    so both are reported rather than raised.
    """
    pairs = [(root, r) for _, root, r in images]
    return InjectionReport(
        assignments=tuple((sq, _canonical_circuit(root, r)) for sq, root, r
                          in sorted(images, key=lambda m: (len(m[0].word), m[0].word))),
        injective=len(set(pairs)) == len(pairs),
        all_images_exist=not missing_images(images, ranges),
        square_count=len(images),
        circuit_count=sum(hi - lo + 1 for lo, hi in ranges.values()),
    )
