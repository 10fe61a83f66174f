"""Engines that produce Motzkin numbers exactly and modulo an integer.

The Motzkin sequence starts 1, 1, 2, 4, 9, 21, 51, 127, ...  Three
independent evaluation routes are provided so that each can falsify the
others:

``motzkin_exact``
    The defining sum ``M(n) = sum_k binom(n, 2k) * catalan(k)``, each term
    from the last by a small-integer ratio: O(n**2) bit operations per value.

``motzkin_exact_stream`` / ``iter_motzkin_exact``
    The three-term recurrence
    ``(n + 2) M(n) = (2n + 1) M(n - 1) + 3 (n - 1) M(n - 2)``
    over exact integers.  Every division must leave remainder zero; a nonzero
    remainder signals an implementation bug and raises
    :class:`ExactDivisionError`.

``motzkin_mod_stream``
    Newton iteration on F(M) = x**2 M**2 + (x - 1) M + 1 = 0 over
    (Z/m)[[x]], the generating-function form of the division-free
    convolution ``M(n + 1) = M(n) + sum_{k < n} M(k) M(n - 1 - k)``.
    F'(M) has constant term -1, a unit for every modulus, so the iteration
    never divides and serves every modulus, including those where ``n + 2``
    has no inverse.  Products are float64 FFTs on b-bit limbs; b is the
    largest width with limbs * N * 4**b * delta <= 1/8, where delta (about
    13 log2(N) * 2**-53) is Percival's bound on the relative FFT error, so
    every product output is an exact integer below 2**53 with a rounding
    error under 1/8.  A guard raises :class:`FFTRoundingError` for any output
    1/4 or more from an integer.  Product rows are reduced mod m by Horner's
    rule from the top row, ``value = ((value << bits) + row) % m``; each step
    stays below m * 2**bits + 2**52, so it runs in int64 while that is below
    2**63 (m below 2**43 to 2**50, by limb width) and in Python ints
    otherwise, on the same code.  Cost: O(N log N * limbs**2) for a stream
    of length N; the Python-int steps make those larger moduli roughly twice
    as slow.

A fourth route, the prime-power digit automaton in
:mod:`motzkinlab.automaton`, reads M(n) mod m off the base-p digits of n; it
serves the moduli whose prime-power factors stay under its state cap.
``iter_motzkin_mod`` yields its residues one index at a time; it is the
residue source of :func:`motzkinlab.checks.verify_classifiers`.

``cross_validate_engines`` compares the modular stream, and the automaton
where the modulus is within its cap, against the exact recurrence reduced
modulo ``m`` and reports the first disagreement, if any.

Single large indices and stream lengths are capped by a ceiling, which bounds
the quadratic cost of the exact engines: the environment variable
``MOTZKINLAB_CEILING``, else 10**5.

The exact engines use Python ints only.  The modular stream and the
automaton import numpy when they run, not when this module loads.
"""

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from . import automaton
from .automaton import StateCapError, motzkin_mod_array

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CEILING = 100_000
CEILING_ENV_VAR = "MOTZKINLAB_CEILING"


class ResourceLimitError(Exception):
    """A request exceeds the configured index/length ceiling."""


class ExactDivisionError(ArithmeticError):
    """The exact recurrence produced a nonzero remainder (an engine bug)."""


class FFTRoundingError(ArithmeticError):
    """A float FFT product output lay 1/4 or more from an integer (an engine bug)."""


def resolve_ceiling() -> int:
    """Effective ceiling: the environment variable, else the default."""
    raw = os.environ.get(CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_CEILING
    try:
        value = int(raw)
    except ValueError:
        got = repr(raw) if len(raw) <= 40 else f"{len(raw)} characters"
        raise ValueError(f"{CEILING_ENV_VAR} must be an integer, got {got}") from None
    if value < 0:
        raise ValueError(f"{CEILING_ENV_VAR} must be non-negative, got {value}")
    return value


def ensure_within_ceiling(requested: int, what: str = "index") -> None:
    """Raise :class:`ResourceLimitError` when ``requested`` exceeds the ceiling."""
    limit = resolve_ceiling()
    if requested > limit:
        raise ResourceLimitError(f"{what} {automaton._shown(requested)} exceeds the ceiling "
                                 f"{automaton._shown(limit)} (raise it via {CEILING_ENV_VAR})")


def motzkin_exact(n: int) -> int:
    """Return the n-th Motzkin number as an exact integer.

    Evaluates the defining sum ``sum_k binom(n, 2k) * catalan(k)``, advancing
    the term t_k = n! / ((n - 2k)! k! (k + 1)!) by its ratio
    (n - 2k)(n - 2k - 1) / ((k + 1)(k + 2)).  The division is exact because
    t_(k+1) (k + 1)(k + 2) = t_k (n - 2k)(n - 2k - 1) and t_(k+1) is an
    integer; the last numerator is 0, so no value goes negative.
    """
    n = automaton._integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    ensure_within_ceiling(n, "index")
    total = 0
    term = 1  # binom(n, 2k) * catalan(k)
    for k in range(n // 2 + 1):
        total += term
        term = term * ((n - 2 * k) * (n - 2 * k - 1)) // ((k + 1) * (k + 2))
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
    count = automaton._integer(count, "count")
    if count < 1:
        raise ValueError(f"stream length must be at least 1, got {count}")
    ensure_within_ceiling(count, "stream length")
    gen = iter_motzkin_exact()
    return [next(gen) for _ in range(count)]


def iter_motzkin_mod(modulus: int, count: int) -> Iterator[int]:
    """Yield M(0), ..., M(count - 1) mod ``modulus``, read off the digit automaton.

    The whole stream is read off the window walk on the first ``next``: one
    lookup per index, plus one fold of the high digits per B² indices, B the
    table's base.  A modulus over the automaton's cap raises
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
        if self.values and not 0 <= min(self.values) <= max(self.values) < self.modulus:
            raise ValueError("residues must lie in [0, modulus)")

    @property
    def limit(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]


def motzkin_mod_stream(modulus: int, count: int) -> ResidueStream:
    """Residues of M(0..count-1) modulo ``modulus`` by Newton iteration.

    Solves F(M) = x**2 M**2 + (x - 1) M + 1 = 0 over (Z/m)[[x]], doubling the
    number of known terms at each step.  F'(M) has constant term -1, a unit
    for every modulus, so nothing is ever divided.  Products are float FFTs
    on limbs narrow enough that every product coefficient is exact (see
    :func:`_limb_bits`), so the cost is O(count log count * limbs**2) for
    small and arbitrarily large moduli alike.  A product output 1/4 or more
    from an integer raises :class:`FFTRoundingError`, and no residues are
    returned.
    """
    modulus, count = automaton._integer(modulus, "modulus"), automaton._integer(count, "count")
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if count < 1:
        raise ValueError(f"stream length must be at least 1, got {count}")
    ensure_within_ceiling(count, "stream length")
    return ResidueStream(modulus=modulus, values=tuple(_newton_stream(modulus, count)))


def _newton_stream(modulus: int, count: int) -> "list[int]":
    import numpy as np

    # Brent and Kung's coupled iteration, carrying H = -1/F'(M) =
    # 1/(1 - x - 2 x**2 M) so that no correction needs a negation.  With M
    # known mod x**known and H mod x**half (half >= known / 2), first refine
    # H += H (1 - (1 - x - 2 x**2 M) H) to precision known, then step
    # M += H F(M) to precision target <= 2 * known.  Both corrections start
    # where the old value stops being exact, so only those terms are formed.
    ring = _LimbRing(modulus, count)
    targets = [count]
    while targets[-1] > 2:
        targets.append((targets[-1] + 1) // 2)
    known = targets.pop()
    # Modulo x**2, M = 1 + x and H = 1/(1 - x) = 1 + x.
    series = ring.split([1, 1][:known])
    inverse = series.copy()
    for target in reversed(targets):
        half = inverse.shape[1]
        if half < known:
            # (1 - x - 2 x**2 M) H = 1 - x**half * residual, H having no terms
            # at or past x**half.
            cross = ring.product(series[:, : known - 2], inverse, half - 2, known - 2)
            cross *= 2
            cross[: ring.limbs, 0] += inverse[:, -1]
            residual = ring.reduce(cross)
            update = ring.product(inverse[:, : known - half], residual, 0, known - half)
            inverse = np.concatenate([inverse, ring.reduce(update)], axis=1)
        # F(M) = x**known * defect: the x**2 M**2 and x M terms past x**known.
        square = ring.product(series, series, known - 2, target - 2)
        square[: ring.limbs, 0] += series[:, -1]
        defect = ring.reduce(square)
        step = ring.product(inverse[:, : target - known], defect, 0, target - known)
        series = np.concatenate([series, ring.reduce(step)], axis=1)
        known = target
    return ring.to_ints(series)


def _limb_bits(modulus: int, count: int) -> "tuple[int, int]":
    """(bits, limbs): the widest limb, at most 20 bits, whose products are exact.

    A product row sums at most ``limbs`` cyclic convolutions of two limb rows,
    each of length at most ``count`` with entries below 2**bits, so every
    exact output is below limbs * count * 4**bits.  Percival (Math. Comp.
    2003, Thm. 5.1) bounds the error of a float FFT product of length 2**n by
    ||a|| ||b|| delta_n, delta_n = (1 + e)**(6n) (1 + e sqrt 5)**(3n + 1) - 1,
    where e = 2**-53 bounds both the rounding and the error of the roots of
    unity; here ||a|| ||b|| <= count * 4**bits for each limb pair.  The bits
    are the most for which limbs * count * 4**bits * delta_n <= 1/8: half the
    distance at which the rounding guard raises, and far inside the 2**53 of
    float64 integers.  The 20-bit cap binds only on short streams, where it
    keeps m * 2**bits small and so keeps more moduli on the reduction's int64
    path.
    """
    n = (2 * count).bit_length()  # no transform is longer than 2**n
    e = 2.0 ** -53
    delta = math.expm1(6 * n * math.log1p(e) + (3 * n + 1) * math.log1p(e * math.sqrt(5)))
    width = (modulus - 1).bit_length()
    for bits in range(20, 0, -1):
        limbs = -(-width // bits)
        if limbs * count * 4**bits * delta <= 1 / 8:
            return bits, limbs
    raise ResourceLimitError(f"no limb width keeps FFT products of length {count} exact")


class _LimbRing:
    """Arithmetic modulo m on power series held as rows of limbs.

    A series of n coefficients, each in [0, m), is an (limbs, n) int64 array
    whose row j holds bits [bits*j, bits*(j + 1)) of every coefficient.
    Products come back unreduced, as 2*limbs - 1 rows of exact sums, and
    :meth:`reduce` brings such rows back to residues.
    """

    def __init__(self, modulus: int, count: int) -> None:
        import numpy as np

        self.modulus = modulus
        self.bits, self.limbs = _limb_bits(modulus, count)
        self.mask = (1 << self.bits) - 1
        # Rows handed to _evaluate are below 2**52: product outputs are below
        # 2**50 (the limb bound keeps them under 2**53 / 8), at most doubled,
        # plus at most one limb.  So every Horner step stays below
        # m * 2**bits + 2**52, and int64 holds it when that is below 2**63.
        self.dtype = np.int64 if (modulus << self.bits) + 2**52 < 2**63 else object

    def split(self, values) -> "np.ndarray":
        """Residues (a sequence or an array of ``dtype``) as limb rows."""
        import numpy as np

        shifts = self.bits * np.arange(self.limbs)[:, None]
        return ((np.asarray(values, dtype=self.dtype) >> shifts) & self.mask).astype(np.int64)

    def _evaluate(self, rows: "np.ndarray") -> "np.ndarray":
        # sum_s rows[s] * 2**(bits*s) mod m by Horner's rule from the top row.
        import numpy as np

        value = np.zeros(rows.shape[1], dtype=self.dtype)
        for row in rows[::-1]:
            value = ((value << self.bits) + row) % self.modulus
        return value

    def reduce(self, raw: "np.ndarray") -> "np.ndarray":
        """Residues of sum_s raw[s] * 2**(bits*s), for rows in [0, 2**52)."""
        return self.split(self._evaluate(raw))

    def to_ints(self, series: "np.ndarray") -> "list[int]":
        """The coefficients of ``series`` as Python ints."""
        return self._evaluate(series).tolist()

    def product(self, a: "np.ndarray", b: "np.ndarray", lo: int, hi: int) -> "np.ndarray":
        """Terms [lo, hi) of a*b as rows s = p + q of exact sums of a_p * b_q.

        The cyclic convolution is just long enough that no wrapped-around
        term lands in [lo, hi).  Every output is checked, so a broken
        exactness bound raises instead of rounding to a wrong integer.
        """
        import numpy as np

        la, lb = a.shape[1], b.shape[1]
        size = 1 << (max(hi, la, lb, la + lb - 1 - lo) - 1).bit_length()
        fa = np.fft.rfft(a, size)
        fb = fa if b is a else np.fft.rfft(b, size)
        spectrum = np.zeros((2 * self.limbs - 1, size // 2 + 1), dtype=np.complex128)
        for p in range(self.limbs):
            for q in range(self.limbs):
                spectrum[p + q] += fa[p] * fb[q]
        out = np.fft.irfft(spectrum, size)
        exact = np.rint(out)
        worst = float(np.abs(out - exact).max())
        if not worst < 0.25:
            raise FFTRoundingError(
                f"an FFT product output lay {worst:.3g} from an integer "
                f"({self.bits}-bit limbs, length {size})"
            )
        return exact[:, lo:hi].astype(np.int64)


# Disagreements a CrossValidationReport keeps, in index order.
KEPT_MISMATCHES = 5


@dataclass(frozen=True)
class CrossValidationReport:
    """Outcome of comparing the modular engines with the exact one."""

    modulus: int
    checked: int
    first_mismatch: "int | None"
    # The first KEPT_MISMATCHES disagreements as (n, expected, got): expected
    # from the exact recurrence, got from the engine that disagrees.
    first_mismatches: "tuple[tuple[int, int, int], ...]" = ()

    @property
    def consistent(self) -> bool:
        return self.first_mismatch is None


def cross_validate_engines(modulus: int, count: int) -> CrossValidationReport:
    """Compare the modular stream, and the automaton where the modulus is
    within its cap, with the exact recurrence reduced mod m.

    Disagreements are reported, not raised: a mismatch means one of the
    engines is wrong, which is exactly what the report exists to surface.
    ``first_mismatch`` is the smallest index where any engine disagrees with
    the recurrence; ``first_mismatches`` keeps the first few disagreements,
    one per engine and index, in index order.  The comparison stops once
    it holds that many, and ``checked`` counts the indices it compared.
    """
    modulus, count = automaton._integer(modulus, "modulus"), automaton._integer(count, "count")
    streams = [motzkin_mod_stream(modulus, count).values]
    try:
        streams.append(motzkin_mod_array(modulus, count).tolist())
    except StateCapError:
        pass
    kept, checked = [], count
    for n, value in zip(range(count), iter_motzkin_exact()):
        expected = value % modulus
        kept += [(n, expected, stream[n]) for stream in streams if stream[n] != expected]
        if len(kept) >= KEPT_MISMATCHES:
            checked = n + 1
            break
    kept = tuple(kept[:KEPT_MISMATCHES])
    return CrossValidationReport(modulus=modulus, checked=checked,
                                 first_mismatch=kept[0][0] if kept else None,
                                 first_mismatches=kept)
