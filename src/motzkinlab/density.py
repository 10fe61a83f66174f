"""Densities of Motzkin residue classes: exact limits, exact counts, reports.

Three kinds of answers live here, deliberately kept independent of each
other so they can cross-check:

* closed-form limit densities as exact rationals (:func:`closed_density`,
  :func:`density_table`),
* exact member counts below a finite horizon N, read off the digits of N
  (:func:`count_set_exact`, :func:`count_t01_upto`), with a proved error
  bound (:func:`count_error_bound`) from the top exponent floor(log_b N);
  :func:`empirical_density` reports them for every class.  Layer e of a
  :class:`SetSpec` family holds q_(e+1) + [d_e >= residue] members below
  N, where q_e = (N - shift)//base**e and d_e is the base-b digit e of
  N - shift.  Legendre's identity turns the sum into digit sums: for base 4
  with exp_step 1 (the mod-8 families) popcounts, a fixed number of big-int
  operations; for the div-5 families (base 25) and any other spec whose
  base**exp_step fits MAX_CHUNK_ENTRIES, one lookup per chunk of digits.
  The zero-one count reads base-3**9 chunks the same way.  The tables are
  built on first use; importing the module builds none,
* counts obtained by streaming every index (:func:`count_class_in_range`),
  the O(N) cross-check on the exact counters: each residue class through
  the automaton of M(n) mod m itself, each index family through a digit
  machine of its own; plus residue counts from the modular stream
  (:func:`empirical_residue_distribution`).

Each class label has one entry in an ordered registry that holds its
limit, its per-chunk count, and one call that returns its exact count
together with its error bound; the registry labels are the only
selectors.  Disjoint unions of :class:`SetSpec` families sum their limit and
exact count over their specs; a residue class sweeps M(n) mod m instead.
"""

import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from . import automaton, bulk
from .classify import DIV5_FORM_SPECS, MOD8_CLASS_SPECS, SetSpec, is_t01
from .engines import motzkin_mod_stream

_CHUNK = 1 << 20


def closed_density(base: int, exp_step: int, exp_offset: int,
                   min_j: int = 0) -> Fraction:
    """Natural density of ``{(base*i + residue) * base**(exp_step*j + exp_offset)}``.

    The residue value does not matter as long as it is nonzero mod base: the
    layer at exponent e holds a base**-(e+1) share of all integers, layers
    are disjoint, and summing the geometric series over admissible j gives

        base**exp_step / (base**(start + 1) * (base**exp_step - 1))

    with ``start = exp_offset + exp_step*min_j`` the smallest exponent.
    Additive shifts never change a density, so none appears here.
    """
    return set_density(SetSpec(base, 1, exp_step, exp_offset, min_j=min_j))


def set_density(spec: SetSpec) -> Fraction:
    """Closed-form density of the members of ``spec``."""
    base, step = spec.base, spec.exp_step
    return Fraction(base ** step, base ** (spec.first_exponent + 1) * (base ** step - 1))


def _layer_sizes(bound: int, spec: SetSpec):
    """Members of ``spec`` that are <= bound, per exponent layer, lowest layer first.

    Layer e holds the i >= 0 with (base*i + residue)*base**e <= bound - shift:
    (q_e - residue)//base + 1 of them, where q_e = (bound - shift)//base**e.
    One division reaches the first layer's quotient; each next quotient is
    the last one floor-divided by the small base**exp_step, and the walk
    stops at the first zero quotient, so it takes O(log_b N) small-divisor
    steps and never forms a big power.
    """
    q = (bound - spec.shift) // spec.base ** spec.first_exponent
    step = spec.base ** spec.exp_step
    while q > 0:
        yield (q - spec.residue) // spec.base + 1
        q //= step


# Entries in one digit-chunk lookup table.  A table over base B**K reads K
# base-B digits per lookup, K the largest with B**K within this: 25**3 for
# the div-5 specs, 3**9 for zero-one counts.  Each entry fits an int16 (see
# _legendre_table).  On a shared 2-vCPU Xeon, at 2**15 a table takes about
# 1 ms to build and at most 64 KiB to keep, and one div-5 spec or zero-one
# count below 10**30 takes 1.9-2.1 us; at 2**12 that was 2.4-2.8 us, and at
# 2**20 1.7-1.8 us for 39 ms builds that raised peak memory by 28 MB.
MAX_CHUNK_ENTRIES = 1 << 15


def _chunk_digits(base: int) -> int:
    """The largest K with base**K <= MAX_CHUNK_ENTRIES (at least 1)."""
    digits, size = 1, base
    while size * base <= MAX_CHUNK_ENTRIES:
        digits, size = digits + 1, size * base
    return digits


# Callers may count specs of any base and residue, so at most 64 tables
# (4 MiB) are kept; the registry uses four.
@lru_cache(maxsize=64)
def _legendre_table(base: int, exp_step: int, residue: int):
    """(B**K, B, b**(s - 1), L) for base b, exp_step s and B = b**s, or None.

    L[c] = (B - 1)*#{digit positions p = 0 mod s of c with digit >= residue}
    - sum_p d_p(c)*b**((p - 1) mod s), over the s*K base-b digits d_p of
    each chunk c < B**K.  Both sums lie within K*(B - 1) <= B**K - 1 < 2**15,
    so every entry fits an int16.  None when B exceeds MAX_CHUNK_ENTRIES.
    """
    step = base ** exp_step
    if step > MAX_CHUNK_ENTRIES:
        return None
    digits = exp_step * _chunk_digits(step)
    chunk = np.arange(base ** digits, dtype=np.int64)
    entry = np.zeros_like(chunk)
    for position in range(digits):
        chunk, digit = np.divmod(chunk, base)
        if position % exp_step == 0:
            entry += (step - 1) * (digit >= residue)
        entry -= digit * base ** ((position - 1) % exp_step)
    return (base ** digits, step, base ** (exp_step - 1),
            array("h", entry.astype(np.int16).tobytes()))


def _count_members_at_most(bound: int, spec: SetSpec) -> int:
    """Members of ``spec`` (over all i, j, sign unrestricted) that are <= bound.

    Put x = (bound - shift)//b**first_exponent and B = b**s for base b and
    exp_step s.  Layer t holds the members with exponent first + s*t:
    x//(b*B**t) + [base-b digit s*t of x >= residue] of them.  Legendre's
    identity sum_(t>=1) y//B**t = (y - s_B(y))/(B - 1) with y = x//b turns
    the sum into digit sums of x, read in two routes:

    * base 4 with exp_step 1 (the mod-8 specs): the digit sum s_4 and the
      count of digits >= residue from popcounts of y under the mask
      0b0101...01, a fixed number of big-int operations.  Below 10**30
      this takes 0.7 us against 1.6 us through a table;
    * any other spec with B <= MAX_CHUNK_ENTRIES (the div-5 specs, by
      base 25): (B - 1)*count = B*y + b**(s - 1)*(x mod b) + the sum of
      L[c] over the base-B**K chunks c of x, one lookup per chunk in
      :func:`_legendre_table`.  The b**(s - 1) term puts back digit 0 of x,
      which belongs to x mod b and not to y.

    A spec with B above the cap walks :func:`_layer_sizes`.
    """
    base = spec.base
    if base == 4 and spec.exp_step == 1:
        shifted = bound - spec.shift
        if shifted <= 0:
            return 0
        y = shifted >> 2 * spec.first_exponent
        low = ((1 << ((y.bit_length() + 1) & ~1)) - 1) // 3
        high = low << 1
        digit_sum = (y & low).bit_count() + 2 * (y & high).bit_count()
        if spec.residue == 1:
            at_least = (y | y >> 1) & low
        elif spec.residue == 2:
            at_least = y & high
        else:
            at_least = y & y >> 1 & low
        return (y - digit_sum) // 3 + at_least.bit_count()
    table = _legendre_table(base, spec.exp_step, spec.residue)
    if table is None:
        return sum(_layer_sizes(bound, spec))
    x = (bound - spec.shift) // base ** spec.first_exponent
    if x <= 0:
        return 0
    size, step, weight, entries = table
    y, low = divmod(x, base)
    total = step * y + weight * low
    while x:
        x, chunk = divmod(x, size)
        total += entries[chunk]
    return total // (step - 1)


def count_set_exact(n_max: int, spec: SetSpec) -> int:
    """Exact number of members n of ``spec`` with 0 <= n <= n_max.

    Per admissible exponent e, the members are (base*i + residue)*base**e
    + shift with i >= 0, so each exponent layer contributes a single floor
    count.  Layers never overlap (the unit is nonzero mod base), so the
    layer counts add up exactly.  The layer sum depends only on the base-b
    digits of n_max - shift (:func:`_count_members_at_most`): for base 4
    with exp_step 1 (every mod-8 family) it takes a fixed number of big-int
    operations; for any other spec whose base**exp_step is at most
    MAX_CHUNK_ENTRIES, the div-5 families among them, one table lookup and
    one small division per chunk of digits (six base-5 digits for div-5).
    Larger base**exp_step walk the exponent layers, one small division
    each.  A negative shift can push a few low-i members below zero;
    subtracting the count at -1 removes them.
    """
    if type(n_max) is not int:
        n_max = automaton._integer(n_max, "n_max")
    if n_max < 0:
        return 0
    total = _count_members_at_most(n_max, spec)
    if spec.shift < 0:
        total -= _count_members_at_most(-1, spec)
    return total


def _top_exponent(x: int, base: int) -> int:
    """floor(log_base(x)) for x >= 1; the bit-length estimate d is off by at most one."""
    d = int((x.bit_length() - 1) / math.log2(base))
    if base ** d > x:
        return d - 1
    return d + 1 if base ** (d + 1) <= x else d


def count_error_bound(n_max: int, spec: SetSpec) -> Fraction:
    """Proved bound on ``|count_set_exact(n_max, spec) - n_max * density|``.

    Budget: each of the at most trunc + 2 exponent layers, none above the
    horizon's top exponent D = floor(log_base(n_max - shift)), costs at most
    1 of rounding error, truncating the geometric tail costs less than 1,
    and moving the horizon by the shift costs at most |shift|.  The
    expression below rounds that up; its max(0, ...) term only kicks in for
    shifts at least base**(smallest exponent), so it vanishes for every
    classifier spec.  The tests check the bound against brute-force counts.
    """
    n_max = automaton._integer(n_max, "n_max")
    return Fraction(_bound_numerator(n_max, spec), spec.base)


def _bound_numerator(n_max: int, spec: SetSpec) -> int:
    """``count_error_bound(n_max, spec) * spec.base``, an integer."""
    # Largest t with exp_offset + 1 + exp_step*t <= D, floored at -1.
    top = _top_exponent(max(n_max - spec.shift, 1), spec.base)
    trunc = max(-1, (top - spec.exp_offset - 1) // spec.exp_step)
    smallest = spec.base ** spec.first_exponent
    whole = 2 * (trunc + 2) + smallest + max(0, abs(spec.shift) + 1 - smallest)
    return whole * spec.base + spec.residue * (trunc + 1)


def count_t01_upto(n_max: int) -> int:
    """How many n with 0 <= n <= n_max have only base-3 digits 0 and 1.

    Read in binary, the base-3 digits of the zero-one numbers <= n_max run
    through 0, 1, ..., z, where z reads the largest of them, so the count is
    z + 1.  That largest one keeps the digits of n_max above its most
    significant digit 2 and turns that 2 and every digit below it into 1;
    without a 2 it is n_max.  The walk reads n_max from the bottom, one
    base-3**9 chunk per lookup in :func:`_t01_table`: a chunk without a 2
    puts its 9 bits of z in place, and a chunk with a 2 puts its bits there
    and sets every bit below them.  So a 4300-digit n_max costs about
    1000 lookups and divisions by 3**9.
    """
    if type(n_max) is not int:
        n_max = automaton._integer(n_max, "n_max")
    if n_max < 0:
        return 0
    size, bits, entries = _t01_table()
    z = offset = 0
    while n_max:
        n_max, chunk = divmod(n_max, size)
        entry = entries[chunk]
        if entry < 0:
            z = (~entry << offset) | ((1 << offset) - 1)
        else:
            z |= entry << offset
        offset += bits
    return z + 1


@cache
def _t01_table():
    """(3**K, K, T) for the base-3**K chunks of :func:`count_t01_upto`.

    T[c] is the binary reading of the largest zero-one number <= c, stored
    complemented (~T[c] < 0) when c has a digit 2.
    """
    bits = _chunk_digits(3)
    chunk = np.arange(3 ** bits, dtype=np.int64)
    largest = np.zeros_like(chunk)
    has_two = np.zeros(chunk.size, dtype=bool)
    for position in range(bits):
        chunk, digit = np.divmod(chunk, 3)
        largest = np.where(digit == 2, (2 << position) - 1, largest | digit << position)
        has_two |= digit == 2
    entries = np.where(has_two, ~largest, largest)
    return 3 ** bits, bits, array("h", entries.astype(np.int16).tobytes())


def _t01_ceiling(n_max: int) -> int:
    """2**(floor(log3(n_max)) + 1), the classic cap on count_t01_upto."""
    return 2 << _top_exponent(max(n_max, 1), 3)


class _ClassEntry(NamedTuple):
    """Everything the density lab knows about one residue class.

    ``count`` counts the members in one int64 chunk of indices through a
    digit machine (:func:`_swept`): the automaton of M(n) mod m for the nine
    residue classes, a machine of its own for each index family
    (``eps*_delta*``, ``div5_form*``, ``t01``); ``exact(n_max)`` is one call
    for (members in [0, n_max], a bound on |that count - n_max * limit|), in
    O(log n_max) steps and for any n_max >= -1.  ``count`` shares no code
    with ``exact``, so the sweep checks it.
    """

    limit: Fraction
    count: "Callable[[np.ndarray], int]"
    exact: "Callable[[int], tuple[int, Fraction]]"


def _union_bound(specs) -> "tuple[int, Callable[[int], int]]":
    """The specs' shared base, and n_max -> the sum of their bounds times that base.

    Unions add their :func:`count_error_bound` values as these integers and
    build one Fraction: Fraction arithmetic, not the layer count, is a
    bound's main cost.  Specs of different bases raise ValueError.
    """
    specs = tuple(specs)
    (base,) = {spec.base for spec in specs}
    return base, lambda n_max: sum(_bound_numerator(n_max, spec) for spec in specs)


def _spec_union(specs, count: "Callable[[np.ndarray], int]") -> _ClassEntry:
    """Entry for a disjoint union of SetSpec families, with the chunk count ``count``.

    The limit sums :func:`set_density` over the specs; the pair sums
    :func:`count_set_exact` and takes the bound from :func:`_union_bound`.
    """
    specs = tuple(specs)
    base, bound_numerator = _union_bound(specs)

    def exact(n_max):
        return (sum(count_set_exact(n_max, spec) for spec in specs),
                Fraction(bound_numerator(n_max), base))

    return _ClassEntry(limit=sum(map(set_density, specs), Fraction(0)), count=count, exact=exact)


def _swept(accepted: int, machine, *args) -> "Callable[[np.ndarray], int]":
    """Counts the indices where ``machine(*args)``, built on first use, outputs ``accepted``."""
    return lambda arr: int(np.count_nonzero(machine(*args).residues(arr) == accepted))


def _family(spec: SetSpec) -> _ClassEntry:
    """Entry for one SetSpec index family, its chunks swept by its digit machine."""
    return _spec_union([spec], _swept(1, automaton._spec_machine, spec))


def _residue_count(modulus: int, value: int) -> "Callable[[np.ndarray], int]":
    """Chunk counter for the indices n with M(n) = value mod ``modulus``, a prime power."""
    return _swept(value, automaton._automaton, *automaton._prime_powers(modulus)[0])


def _even_popcounts_below(k: int) -> int:
    """How many i in [0, k) have an even number of one bits.

    Each pair 2m, 2m + 1 holds one of each parity; an odd k leaves k - 1 over.
    """
    return k // 2 + (k % 2 == 1 and (k - 1).bit_count() % 2 == 0)


def _mod3_counts(n_max: int) -> "tuple[int, int, int]":
    """How many n in [0, n_max] have M(n) = 0, 1 and 2 mod 3.

    M(3k) = 1 and M(3k + 1) = 1 mod 3 where k, respectively k + 1, is a
    zero-one number, M(3k + 2) = 2 where k + 1 is, and M(n) = 0 otherwise.
    With n_max = 3k + s, the counts need T(k) and T(k + 1) zero-one numbers,
    and T(k + 1) = T(k) + [k + 1 is zero-one]: one digit walk.  Floor
    division keeps every term right down to n_max = -1.
    """
    k, s = divmod(n_max, 3)
    upto_k = count_t01_upto(k)
    upto_next = upto_k + is_t01(k + 1)
    one = upto_k + (upto_next if s else upto_k) - 1
    two = (upto_next if s == 2 else upto_k) - 1
    return n_max + 1 - one - two, one, two


def _build_registry() -> "dict[str, _ClassEntry]":
    """Every class label, in table order, with its entry.

    Limits and (count, bound) pairs of spec unions are derived from their
    specs; the mod8=2 and mod8=6 halves, mod 3 and zero-one entries state
    theirs.  Every residue class counts its chunks from M(n) mod m, each
    index family from its own machine.  The test suite checks every limit against
    hand-computed rationals and every exact counter against the sweep.
    """
    mod8 = MOD8_CLASS_SPECS
    registry = {"even": _spec_union(mod8.values(), _residue_count(2, 0))}
    for (eps, delta), spec in mod8.items():
        registry[f"eps{eps}_delta{delta}"] = _family(spec)
    registry["mod8=4"] = _spec_union([mod8[(1, 1)], mod8[(3, 2)]], _residue_count(8, 4))
    two_six_specs = [mod8[(1, 2)], mod8[(3, 1)]]
    two_or_six = _spec_union(two_six_specs, _residue_count(4, 2))
    base, bound_numerator = _union_bound(two_six_specs)

    # n = (4i + eps) * 4**e - delta gives 2 or 6 by the parity of the one
    # bits of 4i + eps - 1: those of i for eps = 1, one more for eps = 3.
    # Every member is at least 4*eps - delta >= 2, so no layer reaches
    # below zero.  Each half holds half the two-or-six population, give or
    # take 1/2 per exponent layer: popcount parity is balanced within 1 on
    # every prefix of i.
    def half_exact(code):
        def exact(n_max):
            total = layers = 0
            for spec in two_six_specs:
                for k in _layer_sizes(n_max, spec):
                    evens = _even_popcounts_below(k)
                    total += evens if (spec.residue == 1) == (code == 2) else k - evens
                    layers += 1
            # Half the union's bound plus 1/2 per layer, over 2 * base.
            return total, Fraction(bound_numerator(n_max) + layers * base, 2 * base)
        return exact

    for code in (2, 6):
        registry[f"mod8={code}"] = _ClassEntry(
            two_or_six.limit / 2, _residue_count(8, code), half_exact(code))
    registry["mod4=2"] = two_or_six
    # M(n) mod 3 is nonzero only where n // 3 or n // 3 + 1 is a zero-one
    # number: at most two zero-one counts per nonzero residue, and for
    # residue 0 both of those plus one.
    for value in range(3):
        registry[f"mod3={value}"] = _ClassEntry(
            Fraction(1 if value == 0 else 0), _residue_count(3, value),
            lambda n_max, value=value: (_mod3_counts(n_max)[value],
                                        (3 if value == 0 else 2) * _t01_ceiling(n_max)))
    registry["div5"] = _spec_union(DIV5_FORM_SPECS, _residue_count(5, 0))
    for form, spec in enumerate(DIV5_FORM_SPECS, start=1):
        registry[f"div5_form{form}"] = _family(spec)
    registry["t01"] = _ClassEntry(
        Fraction(0), _swept(1, automaton._t01_machine),
        lambda n_max: (count_t01_upto(n_max), _t01_ceiling(n_max)))
    return registry


_REGISTRY = _build_registry()

SELECTORS: "tuple[str, ...]" = tuple(_REGISTRY)


def _entry(selector) -> _ClassEntry:
    """Registry entry for a class label; anything else is a ValueError."""
    if isinstance(selector, str) and selector in _REGISTRY:
        return _REGISTRY[selector]
    raise ValueError(f"unknown class selector {selector!r}")


def density_table() -> "list[tuple[str, Fraction]]":
    """All class labels with their exact limit densities."""
    return [(label, entry.limit) for label, entry in _REGISTRY.items()]


def density_limit(selector) -> Fraction:
    """Exact limit density for a class label."""
    return _entry(selector).limit


def count_class_in_range(selector, lo: int, hi: int) -> int:
    """Class members with lo <= n < hi, streamed through the class's digit machine.

    O(hi - lo) and capped at ``bulk.MAX_INDEX``: the independent cross-check
    on the exact counters that :func:`empirical_density` reports.  Each
    chunk goes through one digit machine: M(n) mod m itself for every
    residue class (``even``, ``mod8=*``, ``mod4=2``, ``mod3=*``, ``div5``),
    each index family's own.  ``lo`` and ``hi`` must be integers.
    """
    lo, hi = automaton._integer(lo, "lo"), automaton._integer(hi, "hi")
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > bulk.MAX_INDEX:
        raise ValueError(f"horizon must be at most {bulk.MAX_INDEX}")
    count = _entry(selector).count
    total = 0
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        total += count(np.arange(start, stop, dtype=np.int64))
    return total


@dataclass(frozen=True)
class DensityReport:
    """Observed count of a class below a horizon, against its exact limit."""

    label: str
    limit_value: Fraction
    horizon: int
    observed_count: int
    error_bound: float

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not 0 <= self.observed_count <= self.horizon:
            raise ValueError("observed_count must lie in [0, horizon]")

    @property
    def observed_ratio(self) -> float:
        return self.observed_count / self.horizon

    @property
    def abs_discrepancy(self) -> float:
        return float(abs(Fraction(self.observed_count, self.horizon) - self.limit_value))


def empirical_density(selector, horizon: int) -> DensityReport:
    """Count class members among n < horizon and report against the limit.

    The count comes from the class's exact counter in O(log horizon) steps;
    no Motzkin number is computed and no index is swept, so any horizon is
    fine.  :func:`count_class_in_range` gives the same integer the slow way.
    """
    horizon = automaton._integer(horizon, "horizon")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    entry = _entry(selector)
    count, bound = entry.exact(horizon - 1)
    return DensityReport(
        label=selector,
        limit_value=entry.limit,
        horizon=horizon,
        observed_count=count,
        error_bound=float(Fraction(bound, horizon)),
    )


def empirical_residue_distribution(modulus: int,
                                   horizon: int) -> "list[tuple[int, int, float]]":
    """(residue, count, ratio) for M(n) mod modulus over n < horizon.

    The residues come from the modular stream, so the engine ceiling
    applies.
    """
    horizon = automaton._integer(horizon, "horizon")
    stream = motzkin_mod_stream(modulus, horizon)
    counts = np.bincount(stream.values, minlength=modulus).tolist()
    return [(residue, count, count / horizon) for residue, count in enumerate(counts)]
