"""Finite probability tables and the two ways to pick from a row.

``DistTable`` is the universal return type for exact queries: a mapping from
hashable outcomes to probabilities, validated to be nonnegative and
normalized to 1 within ``NORM_TOL``.

``draw`` (inverse CDF) picks an index from a row of probabilities given a
uniform, and ``argmax`` (perturbed argmax) picks one from a row of
log-probabilities (``log_row``) given a Gumbel vector. The samplers and
the noise-reuse replays pick through these two, and ``exogenize``'s
deterministic model responds through ``draw``.

``left_sum`` is the one float sum behind every total that reaches output,
and ``prob_row`` the one check on a probability row read from a model file.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, ModelError

NORM_TOL = 1e-9
_NEG_INF = -math.inf  # one shared float for the zero entries of every log row

if sys.version_info >= (3, 12):

    def left_sum(values: Iterable[float]) -> float:
        """Plain left-to-right float sum. From Python 3.12 the builtin
        ``sum`` compensates float rounding, so seeded bytes would change
        with the interpreter; this keeps them as 3.10 and 3.11 give them."""
        acc = 0
        for v in values:
            acc += v
        return acc

else:
    left_sum = sum  # plain left to right before 3.12


@dataclass(frozen=True, eq=False)
class DistTable:
    """Outcome -> probability mapping over a finite support.

    Entries may include explicit zeros; ``support`` is the positive part,
    and equality compares probabilities over the union of keys (explicit
    zeros do not distinguish tables). Instances are immutable values.
    """

    entries: Mapping[Hashable, float]

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
        if abs(total - 1.0) > NORM_TOL:
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
        return left_sum(self.entries.values())

    @property
    def is_point_mass(self) -> bool:
        return len(self.support) == 1 and abs(self.total - 1.0) <= 1e-12

    def items(self) -> Iterator[tuple[Hashable, float]]:
        return iter(self.entries.items())

    def project(self, fn: Callable[[Hashable], Hashable]) -> "DistTable":
        """Push the table through ``fn``, accumulating probabilities."""
        acc: dict[Hashable, float] = {}
        for o, p in self.entries.items():
            k = fn(o)
            acc[k] = acc.get(k, 0.0) + p
        return DistTable(acc)

    def __len__(self) -> int:
        return len(self.entries)


def prob_row(outcomes: Sequence, probs: list, key: str, owner: str = "") -> DistTable:
    """Row ``key`` of a model file (of variable ``owner``, if named) over ``outcomes``: one
    entry each, a JSON number (not a boolean), none negative, summing to 1 within
    ``NORM_TOL`` (which NaN never does)."""
    if type(probs) is not list or not all(type(p) is float or type(p) is int for p in probs):
        raise ModelError(f"{owner}row {key!r} must be a list of numbers")
    if len(probs) != len(outcomes):
        raise ModelError(f"{owner}row {key!r} has {len(probs)} entries, expected {len(outcomes)}")
    total = left_sum(probs)
    if not abs(total - 1.0) <= NORM_TOL:
        raise ModelError(f"{owner}row {key!r} not normalized (sum={total!r})")
    if any(p < 0 for p in probs):
        raise ModelError(f"{owner}row {key!r} has a negative probability")
    return DistTable(dict(zip(outcomes, probs)))


def tvd(a: DistTable, b: DistTable) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    outcomes = set(a.entries) | set(b.entries)
    return 0.5 * left_sum(abs(a.prob(o) - b.prob(o)) for o in outcomes)


def max_abs_diff(a: DistTable, b: DistTable) -> float:
    """Largest pointwise probability deviation over the union support."""
    mine, theirs = a.entries, b.entries
    get = theirs.get
    worst = 0.0
    for o, p in mine.items():
        d = abs(p - get(o, 0.0))
        if d > worst:
            worst = d
    for o, q in theirs.items():
        if o not in mine and abs(q) > worst:
            worst = abs(q)
    return worst


def draw(probs: Sequence[float], u: float) -> int:
    """Inverse-CDF draw: the first index whose running sum of the positive
    entries exceeds ``u``, or the last positive index if none does."""
    acc = 0.0
    last = -1
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = i
        if acc > u:
            return i
    if last < 0:
        raise ModelError("cannot draw from an all-zero distribution")
    return last


def log_row(probs: Iterable[float]) -> tuple[float, ...]:
    """Log-probabilities, with -inf for the zero entries."""
    log = math.log
    return tuple([log(p) if p > 0.0 else _NEG_INF for p in probs])


def argmax(logs: Sequence[float], gumbels: Sequence[float]) -> int:
    """Perturbed argmax over a ``log_row``: the index maximizing log p + g
    over the positive entries, the lowest index on ties."""
    # a zero entry scores -inf (or NaN against infinite noise), which never
    # beats the starting -inf, so zeros need no test of their own
    best, best_score = -1, _NEG_INF
    for i, lp in enumerate(logs):
        score = lp + gumbels[i]
        if score > best_score:
            best, best_score = i, score
    if best < 0:
        raise ModelError("cannot take an argmax over an all-zero distribution")
    return best
