"""Engines that produce Motzkin numbers exactly and modulo an integer.

The Motzkin sequence starts 1, 1, 2, 4, 9, 21, 51, 127, ...  Three
independent evaluation routes are provided so that each can falsify the
others:

``motzkin_exact``
    Term-by-term evaluation of the defining sum
    ``M(n) = sum_k binom(n, 2k) * catalan(k)``.

``motzkin_exact_stream`` / ``iter_motzkin_exact``
    The three-term recurrence
    ``(n + 2) M(n) = (2n + 1) M(n - 1) + 3 (n - 1) M(n - 2)``
    over exact integers.  Every division must leave remainder zero; a nonzero
    remainder signals an implementation bug and raises
    :class:`ExactDivisionError`.

``motzkin_mod_stream``
    The division-free convolution
    ``M(n + 1) = M(n) + sum_{k < n} M(k) M(n - 1 - k)``
    with all arithmetic reduced modulo ``m``.  Because it never divides, it
    is valid for every modulus, including those where ``n + 2`` has no
    inverse.  One numpy path, on exact float64 limb products, serves them all.

A fourth route, the prime-power digit automaton in
:mod:`motzkinlab.automaton`, reads M(n) mod m off the base-p digits of n; it
serves the moduli whose prime-power factors stay under its state cap.
``iter_motzkin_mod`` yields its residues one index at a time; it is the
residue source of :func:`motzkinlab.checks.verify_classifiers`.

``cross_validate_engines`` compares the modular stream, and the automaton
where the modulus is within its cap, against the exact recurrence reduced
modulo ``m`` and reports the first disagreement, if any.

Quadratic-cost requests (single large indices, stream lengths) are capped by
a ceiling: the environment variable ``MOTZKINLAB_CEILING``, else 10**5.
"""

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .automaton import StateCapError, motzkin_mod_array

DEFAULT_CEILING = 100_000
CEILING_ENV_VAR = "MOTZKINLAB_CEILING"


class ResourceLimitError(Exception):
    """A request exceeds the configured index/length ceiling."""


class ExactDivisionError(ArithmeticError):
    """The exact recurrence produced a nonzero remainder (an engine bug)."""


def resolve_ceiling() -> int:
    """Effective ceiling: the environment variable, else the default."""
    raw = os.environ.get(CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{CEILING_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{CEILING_ENV_VAR} must be non-negative, got {value}")
    return value


def ensure_within_ceiling(requested: int, what: str = "index") -> None:
    """Raise :class:`ResourceLimitError` when ``requested`` exceeds the ceiling."""
    limit = resolve_ceiling()
    if requested > limit:
        raise ResourceLimitError(
            f"{what} {requested} exceeds the ceiling {limit} (raise it via {CEILING_ENV_VAR})"
        )


def motzkin_exact(n: int) -> int:
    """Return the n-th Motzkin number as an exact integer.

    Evaluates the defining sum ``sum_k binom(n, 2k) * catalan(k)`` term by
    term, advancing the binomial and Catalan factors by exact integer ratios.
    Both ratio updates divide evenly, so no rounding can occur anywhere.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    ensure_within_ceiling(n, "index")
    total = 0
    binomial = 1  # binom(n, 2k)
    catalan = 1   # binom(2k, k) // (k + 1)
    for k in range(n // 2 + 1):
        total += binomial * catalan
        even = 2 * k
        binomial = binomial * (n - even) * (n - even - 1) // ((even + 1) * (even + 2))
        catalan = catalan * (2 * (even + 1)) // (k + 2)
    return total


def iter_motzkin_exact() -> Iterator[int]:
    """Yield M(0), M(1), M(2), ... indefinitely via the exact recurrence.

    Needs O(1) state, so it suits long sweeps where materialising the whole
    prefix (hundreds of megabytes at length 10**5) would be wasteful.
    """
    yield 1
    yield 1
    older, newer = 1, 1  # M(n - 2), M(n - 1)
    n = 2
    while True:
        numerator = (2 * n + 1) * newer + 3 * (n - 1) * older
        value, remainder = divmod(numerator, n + 2)
        if remainder:
            raise ExactDivisionError(
                f"recurrence division left remainder {remainder} at index {n}"
            )
        yield value
        older, newer = newer, value
        n += 1


def motzkin_exact_stream(count: int) -> "list[int]":
    """Return ``[M(0), ..., M(count - 1)]`` via the exact recurrence."""
    if count < 1:
        raise ValueError(f"stream length must be at least 1, got {count}")
    ensure_within_ceiling(count, "stream length")
    gen = iter_motzkin_exact()
    return [next(gen) for _ in range(count)]


def iter_motzkin_mod(modulus: int, count: int) -> Iterator[int]:
    """Yield M(0), ..., M(count - 1) mod ``modulus``, read off the digit automaton.

    The whole stream is computed on the first ``next``, in O(count log count)
    work; a modulus over the automaton's cap raises
    :class:`~motzkinlab.automaton.StateCapError` there.
    """
    yield from motzkin_mod_array(modulus, count).tolist()


@dataclass(frozen=True)
class ResidueStream:
    """Residues ``M(0) mod m, ..., M(limit - 1) mod m`` for a fixed modulus."""

    modulus: int
    values: "tuple[int, ...]"

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        if any(not 0 <= v < self.modulus for v in self.values):
            raise ValueError("residues must lie in [0, modulus)")

    @property
    def limit(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]


def motzkin_mod_stream(modulus: int, count: int) -> ResidueStream:
    """Residues of M(0..count-1) modulo ``modulus`` by the convolution recurrence.

    O(count) memory and O(count**2) exact float64 limb multiply-adds, for
    small and arbitrarily large moduli alike.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if count < 1:
        raise ValueError(f"stream length must be at least 1, got {count}")
    ensure_within_ceiling(count, "stream length")
    return ResidueStream(modulus=modulus, values=tuple(_convolution(modulus, count)))


# OpenBLAS hands dot products over more than 10**4 terms to worker threads,
# which stall when other processes keep the cores busy (two concurrent streams
# of length 3*10**4 ran over 20x slower on two cores), so no BLAS call is longer.
_BLOCK = 8192


def _convolution(modulus: int, count: int) -> "list[int]":
    # Residues are stored as base-2**bits limbs in float64, bits being the
    # widest limb with count * 4**bits <= 2**53.  Each product entry sums
    # fewer than count limb products below 4**bits, so every partial sum is an
    # integer below 2**53, exact in float64 in any order, with or without FMA.
    # Step n needs sum_k M(k) M(n - 2 - k), symmetric in k: it takes the pairs
    # with k < half twice (the extra shift bit), plus M(half)**2 if n is even.
    bits = (((1 << 53) // count).bit_length() - 1) // 2
    limbs = -(-(modulus - 1).bit_length() // bits)
    mask = (1 << bits) - 1
    shifts = [bits * (p + q) + 1 for p in range(limbs) for q in range(limbs)]
    forward = np.zeros((limbs, count))   # forward[:, k]: the limbs of M(k)
    backward = np.zeros((count, limbs))  # backward[count - 1 - k]: the same
    forward[0, 0] = backward[-1, 0] = 1
    values = [1]
    for n in range(1, count):
        half = (n - 1) // 2
        head, tail = forward[:, :half], backward[count - n + 1 : count - n + 1 + half]
        products = head[:, :_BLOCK] @ tail[:_BLOCK]
        for k in range(_BLOCK, half, _BLOCK):
            products += head[:, k : k + _BLOCK] @ tail[k : k + _BLOCK]
        middle = values[half] ** 2 if n % 2 == 0 else 0
        pairs = sum(int(c) << s for c, s in zip(products.ravel().tolist(), shifts))
        value = (values[-1] + pairs + middle) % modulus
        values.append(value)
        digits = [(value >> bits * p) & mask for p in range(limbs)]
        forward[:, n] = digits
        backward[count - 1 - n] = digits
    return values


@dataclass(frozen=True)
class CrossValidationReport:
    """Outcome of comparing the modular engine with the exact one."""

    modulus: int
    checked: int
    first_mismatch: "int | None"

    @property
    def consistent(self) -> bool:
        return self.first_mismatch is None


def cross_validate_engines(modulus: int, count: int) -> CrossValidationReport:
    """Compare the convolution stream, and the automaton where the modulus is
    within its cap, with the exact recurrence reduced mod m.

    Disagreements are reported, not raised: a mismatch means one of the
    engines is wrong, which is exactly what the report exists to surface.
    ``first_mismatch`` is the smallest index where any engine disagrees with
    the recurrence.
    """
    streams = [motzkin_mod_stream(modulus, count).values]
    try:
        streams.append(motzkin_mod_array(modulus, count).tolist())
    except StateCapError:
        pass
    gen = iter_motzkin_exact()
    first = None
    for n in range(count):
        expected = next(gen) % modulus
        if any(stream[n] != expected for stream in streams):
            first = n
            break
    return CrossValidationReport(modulus=modulus, checked=count, first_mismatch=first)
