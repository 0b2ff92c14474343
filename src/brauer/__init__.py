"""Brauer monoid diagrams, the idempotent presentation of the singular
part, constructive atom factorization, geodesic lengths, and the related
counting results, all cross-checked against brute-force enumeration."""

from brauer.diagram import (
    BrauerDiagram,
    DomainError,
    atom,
    count_all,
    enumerate_all,
    green_related,
    identity,
    make_diagram,
    multiply,
    parse_diagram,
    random_diagram,
)

__all__ = [
    "BrauerDiagram",
    "DomainError",
    "atom",
    "count_all",
    "enumerate_all",
    "green_related",
    "identity",
    "make_diagram",
    "multiply",
    "parse_diagram",
    "random_diagram",
]
