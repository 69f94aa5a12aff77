"""Catalog of the named forms the computations consume.

Every entry resolves to a QSeries with fully populated metadata.  The
weight-6 level-4 newform is realized as eta(2z)^12; its Hecke
multiplicativity is a library-level sanity check, not a proof.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from .qseries import (
    CharacterMod4,
    FormMeta,
    QSeries,
    make_eisenstein,
    make_eta_product,
    make_theta,
)


def _delta(precision: int) -> QSeries:
    meta = FormMeta(24, 1, CharacterMod4.TRIVIAL)
    return make_eta_product([(1, 24)], precision, meta)


def _delta_4_6(precision: int) -> QSeries:
    meta = FormMeta(12, 4, CharacterMod4.TRIVIAL)
    return make_eta_product([(2, 12)], precision, meta)


_CATALOG: Dict[str, Callable[[int], QSeries]] = {
    "theta": make_theta,
    "delta": _delta,
    "delta_4_6": _delta_4_6,
    "E4": lambda p: make_eisenstein(4, p),
    "E6": lambda p: make_eisenstein(6, p),
}


def catalog_names() -> List[str]:
    return sorted(_CATALOG)


def catalog_get(name: str, precision: int) -> QSeries:
    """Build a named form at the requested precision."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown form {name!r}; known: {', '.join(catalog_names())}"
        ) from None
    return builder(precision)


def check_hecke_multiplicativity(
    f: QSeries, pairs: Sequence[Tuple[int, int]]
) -> List[bool]:
    """For each coprime (m, n), does a(m) a(n) = a(mn) exactly?

    Requires a(1) = 1 (normalized eigenform candidate) and all tested
    indices within the known precision.
    """
    if f.coeff(1) != 1:
        raise ValueError("not normalized: a(1) != 1")
    results = []
    for m, n in pairs:
        if math.gcd(m, n) != 1:
            raise ValueError(f"pair ({m},{n}) is not coprime")
        results.append(f.coeff(m) * f.coeff(n) == f.coeff(m * n))
    return results
