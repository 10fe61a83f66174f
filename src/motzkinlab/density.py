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
  N - shift.  For base 4 with exp_step 1 (the mod-8 families) Legendre's
  identity turns the sum into popcounts: a fixed number of big-int
  operations.  Every other base and step walks the quotients in
  O(log_b N) steps that divide by a small integer,
* counts obtained by streaming every index through the digit kernels or
  the residue automaton (:func:`count_class_in_range`), the O(N)
  cross-check on the exact counters, plus residue counts from the
  modular stream (:func:`empirical_residue_distribution`).

Each class label has one entry in an ordered registry that holds its
limit, its per-chunk count, and one call that returns its exact count
together with its error bound; the registry labels are the only
selectors.  Classes that are disjoint unions of :class:`SetSpec` families
derive all three by summing over their specs.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
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
    start = spec.exp_offset + step * spec.min_j
    return Fraction(base ** step, base ** (start + 1) * (base ** step - 1))


def _first_exponent(spec: SetSpec) -> int:
    """The smallest exponent e of a layer (base*i + residue) * base**e of ``spec``."""
    return spec.exp_step * spec.min_j + spec.exp_offset


def _layer_sizes(bound: int, spec: SetSpec):
    """Members of ``spec`` that are <= bound, per exponent layer, lowest layer first.

    Layer e holds the i >= 0 with (base*i + residue)*base**e <= bound - shift:
    (q_e - residue)//base + 1 of them, where q_e = (bound - shift)//base**e.
    One division reaches the first layer's quotient; each next quotient is
    the last one floor-divided by the small base**exp_step, and the walk
    stops at the first zero quotient, so it takes O(log_b N) small-divisor
    steps and never forms a big power.
    """
    q = (bound - spec.shift) // spec.base ** _first_exponent(spec)
    step = spec.base ** spec.exp_step
    while q > 0:
        yield (q - spec.residue) // spec.base + 1
        q //= step


def _count_members_at_most(bound: int, spec: SetSpec) -> int:
    """Members of ``spec`` (over all i, j, sign unrestricted) that are <= bound.

    With q_e = (bound - shift)//base**e and d_e the base-b digit e of
    bound - shift, layer e holds (q_e - residue)//base + 1 = q_(e+1) +
    [d_e >= residue] members.  For base 4 with exp_step 1 every exponent
    from the first one on is a layer, so with y = q_first Legendre's
    identity sum_(k>=1) y//4**k = (y - s_4(y))/3 leaves only y's digits:
    the digit sum s_4 and the count of digits >= residue, read off the bit
    pairs of y by popcounts under the mask 0b0101...01 over an even number
    of bits.  That is a fixed number of big-int operations.  Every other
    base and step walks :func:`_layer_sizes`.
    """
    if spec.base != 4 or spec.exp_step != 1:
        return sum(_layer_sizes(bound, spec))
    shifted = bound - spec.shift
    if shifted <= 0:
        return 0
    y = shifted >> 2 * _first_exponent(spec)
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


def count_set_exact(n_max: int, spec: SetSpec) -> int:
    """Exact number of members n of ``spec`` with 0 <= n <= n_max.

    Per admissible exponent e, the members are (base*i + residue)*base**e
    + shift with i >= 0, so each exponent layer contributes a single floor
    count.  Layers never overlap (the unit is nonzero mod base), so the
    layer counts add up exactly.  The layer sum depends only on the base-b
    digits of n_max - shift: for base 4 with exp_step 1 (every mod-8
    family) it takes a fixed number of big-int operations, for any other
    base or step O(log_b n_max) steps that each divide by a small integer.  A
    negative shift can push a few low-i members below zero; subtracting the
    count at -1 removes them.
    """
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
    return Fraction(_bound_numerator(n_max, spec), spec.base)


def _bound_numerator(n_max: int, spec: SetSpec) -> int:
    """``count_error_bound(n_max, spec) * spec.base``, an integer."""
    # Largest t with exp_offset + 1 + exp_step*t <= D, floored at -1.
    top = _top_exponent(max(n_max - spec.shift, 1), spec.base)
    trunc = max(-1, (top - spec.exp_offset - 1) // spec.exp_step)
    smallest = spec.base ** _first_exponent(spec)
    whole = 2 * (trunc + 2) + smallest + max(0, abs(spec.shift) + 1 - smallest)
    return whole * spec.base + spec.residue * (trunc + 1)


def count_t01_upto(n_max: int) -> int:
    """How many n with 0 <= n <= n_max have only base-3 digits 0 and 1.

    Digit walk from the most significant base-3 digit of n_max: while the
    prefix stays tight, a digit d contributes min(d, 2) free-tail choices
    times 2**position; the walk dies at the first digit 2 (no zero-one
    number can stay tight past it) and otherwise counts n_max itself.
    """
    if n_max < 0:
        return 0
    digits = []
    value = n_max
    while value:
        digits.append(value % 3)
        value //= 3
    count = 0
    for position in range(len(digits) - 1, -1, -1):
        digit = digits[position]
        if digit >= 2:
            count += 2 << position
            return count
        count += digit << position
    return count + 1  # n_max itself is a zero-one number


def _t01_ceiling(n_max: int) -> int:
    """2**(floor(log3(n_max)) + 1), the classic cap on count_t01_upto."""
    return 2 << _top_exponent(max(n_max, 1), 3)


class _ClassEntry(NamedTuple):
    """Everything the density lab knows about one residue class.

    ``count`` counts the members in one int64 chunk of indices through a
    :mod:`motzkinlab.bulk` kernel, or through the automaton's residues for
    an exact residue class, looked up on the module at call time;
    ``exact(n_max)`` is one call for (members in [0, n_max], a bound on
    |that count - n_max * limit|), in O(log n_max) steps and for any
    n_max >= -1.  ``count`` shares no code with ``exact``, so the sweep
    checks it.
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


def _spec_union(specs) -> _ClassEntry:
    """Entry for a disjoint union of SetSpec families: limits, bounds and counts add.

    A chunk's count sums the spec masks of ``bulk.in_set_masks``; with several
    specs, a member of two masks raises AssertionError, which survives ``-O``.
    The pair sums :func:`count_set_exact` over the specs and takes the bound
    from :func:`_union_bound`.
    """
    specs = tuple(specs)
    base, bound_numerator = _union_bound(specs)

    def count(arr):
        masks = bulk.in_set_masks(arr, specs)
        total = int(sum(map(np.count_nonzero, masks)))
        if len(masks) > 1 and total != np.count_nonzero(np.logical_or.reduce(masks)):
            raise AssertionError("overlapping families in a spec union")
        return total

    def exact(n_max):
        return (sum(count_set_exact(n_max, spec) for spec in specs),
                Fraction(bound_numerator(n_max), base))

    return _ClassEntry(limit=sum(map(set_density, specs), Fraction(0)), count=count, exact=exact)


def _residue_count(modulus: int, value: int) -> "Callable[[np.ndarray], int]":
    """Chunk counter for the indices n with M(n) = value mod ``modulus``."""
    return lambda arr: int(np.count_nonzero(
        automaton.motzkin_mod_indices(modulus, arr) == value))


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

    Limits, chunk counts and (count, bound) pairs of spec unions are derived
    from their specs; the mod8=2 and mod8=6 halves, mod 3 and zero-one
    entries state theirs.  The test suite checks every limit against
    hand-computed rationals and every exact counter against the sweep.
    """
    mod8 = MOD8_CLASS_SPECS
    registry = {"even": _spec_union(mod8.values())}
    for (eps, delta), spec in mod8.items():
        registry[f"eps{eps}_delta{delta}"] = _spec_union([spec])
    registry["mod8=4"] = _spec_union([mod8[(1, 1)], mod8[(3, 2)]])
    two_six_specs = [mod8[(1, 2)], mod8[(3, 1)]]
    two_or_six = _spec_union(two_six_specs)
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
    registry["div5"] = _spec_union(DIV5_FORM_SPECS)
    for form, spec in enumerate(DIV5_FORM_SPECS, start=1):
        registry[f"div5_form{form}"] = _spec_union([spec])
    registry["t01"] = _ClassEntry(
        Fraction(0), lambda arr: int(np.count_nonzero(bulk.t01_mask(arr))),
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
    """Class members with lo <= n < hi, streamed through the class's chunk count.

    O(hi - lo) and capped at ``bulk.MAX_INDEX``: the independent cross-check
    on the exact counters that :func:`empirical_density` reports.  It counts
    ``mod8=2``, ``mod8=6`` and ``mod3=*`` from M(n) mod m itself.
    """
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
    stream = motzkin_mod_stream(modulus, horizon)
    counts = np.bincount(stream.values, minlength=modulus).tolist()
    return [(residue, count, count / horizon) for residue, count in enumerate(counts)]
