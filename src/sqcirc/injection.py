"""The injection from nonempty squares to small circuits.

Each square class maps into circuits of its own root, at orders computed from
the member coordinates (index at least 2) or from the members' lexicographic
ranks (index 1). Images across classes stay distinct because a circuit
determines its root class and its order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import (SmallCircuit, _canonical_circuit, circuit_order_ranges,
                       circuit_pairs)
from .squares import (Square, SquareClass, distinct_squares, group_classes,
                      period_runs, square_coordinates)
from .words import least_rotation


@dataclass(frozen=True)
class InjectionReport:
    assignments: tuple[tuple[Square, SmallCircuit], ...]
    injective: bool
    all_images_exist: bool
    square_count: int
    circuit_count: int


def inject_class(w: str, cls: SquareClass) -> list[tuple[Square, SmallCircuit]]:
    """Map the members of one class to small circuits.

    Index >= 2: the member with coordinates (i, j) goes to C(v, j*l + i - 1).
    Index 1: members sorted lexicographically receive ranks i = 1..t and go
    to C(v, l + i - 1); the rank pairing is a convention, any bijection onto
    those circuits preserves the counting argument.
    """
    l, canon = len(cls.root), least_rotation(cls.root)  # primitive, orders >= l
    if cls.index >= 2:
        return [(sq, _canonical_circuit(canon, co.j * l + co.i - 1))
                for sq in sorted(cls.members) for co in [square_coordinates(sq, cls)]]
    return [(sq, _canonical_circuit(canon, l + i - 1))
            for i, sq in enumerate(sorted(cls.members, key=lambda s: s.word), 1)]


def build_injection(w: str) -> InjectionReport:
    """The full map over every class, with its health flags, from one scan."""
    runs = period_runs(w)
    return audit_injection(w, group_classes(distinct_squares(w, runs)),
                           circuit_pairs(circuit_order_ranges(w, runs)))


def audit_injection(w: str, classes: list[SquareClass],
                    existing: frozenset[tuple[str, int]]) -> InjectionReport:
    """Map every class and audit the images against the existing circuits.

    existing holds the small circuits of w as (root, order) pairs.
    Assignments come in square order: shortest square first, then
    lexicographic. A missing image or a collision would falsify the bound,
    so both are reported rather than raised.
    """
    assignments = sorted((pair for cls in classes for pair in inject_class(w, cls)),
                         key=lambda p: (len(p[0].word), p[0].word))
    images = [c for _, c in assignments]
    return InjectionReport(
        assignments=tuple(assignments),
        injective=len(set(images)) == len(images),
        all_images_exist=all((c.root, c.order) in existing for c in images),
        square_count=len(assignments),
        circuit_count=len(existing),
    )
