"""Finite probability tables.

``DistTable`` is the universal return type for exact queries: a mapping from
hashable outcomes to probabilities, validated to be nonnegative and (unless
explicitly flagged) normalized to 1 within ``NORM_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Mapping

from .errors import InputError

NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DistTable:
    """Outcome -> probability mapping over a finite support.

    Entries may include explicit zeros; ``support`` is the positive part,
    and equality compares probabilities over the union of keys (explicit
    zeros do not distinguish tables). Instances are immutable values.
    """

    entries: Mapping[Hashable, float]
    unnormalized: bool = field(default=False, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistTable):
            return NotImplemented
        keys = set(self.entries) | set(other.entries)
        return all(self.prob(k) == other.prob(k) for k in keys)

    def __hash__(self) -> int:
        return hash(frozenset((o, p) for o, p in self.entries.items() if p != 0.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))
        total = 0.0
        for outcome, p in self.entries.items():
            if p < -1e-15:
                raise InputError(f"negative probability {p!r} for outcome {outcome!r}")
            total += p
        # negative entries are rejected above, so this one check catches NaN and inf
        if not math.isfinite(total):
            raise InputError(f"probabilities sum to {total!r}, not a finite number")
        if not self.unnormalized and abs(total - 1.0) > NORM_TOL:
            raise InputError(f"probabilities sum to {total!r}, expected 1 within {NORM_TOL}")

    @classmethod
    def point(cls, outcome: Hashable) -> "DistTable":
        return cls({outcome: 1.0})

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "DistTable":
        n = sum(counts.values())
        if n <= 0:
            raise InputError("cannot normalize empty counts")
        return cls({o: c / n for o, c in counts.items()})

    def prob(self, outcome: Hashable) -> float:
        return self.entries.get(outcome, 0.0)

    @property
    def support(self) -> tuple[Hashable, ...]:
        return tuple(o for o, p in self.entries.items() if p > 0.0)

    @property
    def total(self) -> float:
        return sum(self.entries.values())

    @property
    def is_point_mass(self) -> bool:
        return len(self.support) == 1 and abs(self.total - 1.0) <= 1e-12

    def items(self) -> Iterator[tuple[Hashable, float]]:
        return iter(self.entries.items())

    def sorted_items(self) -> list[tuple[Hashable, float]]:
        """Entries in a deterministic (repr-based) order, for stable output."""
        return sorted(self.entries.items(), key=lambda kv: repr(kv[0]))

    def project(self, fn: Callable[[Hashable], Hashable]) -> "DistTable":
        """Push the table through ``fn``, accumulating probabilities."""
        acc: dict[Hashable, float] = {}
        for o, p in self.entries.items():
            k = fn(o)
            acc[k] = acc.get(k, 0.0) + p
        return DistTable(acc, unnormalized=self.unnormalized)

    def __len__(self) -> int:
        return len(self.entries)


def tvd(a: DistTable, b: DistTable) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    outcomes = set(a.entries) | set(b.entries)
    return 0.5 * sum(abs(a.prob(o) - b.prob(o)) for o in outcomes)


def max_abs_diff(a: DistTable, b: DistTable) -> float:
    """Largest pointwise probability deviation over the union support."""
    outcomes = set(a.entries) | set(b.entries)
    if not outcomes:
        return 0.0
    return max(abs(a.prob(o) - b.prob(o)) for o in outcomes)


