"""Shared oracles for the test suite.

The oracles are deliberately naive and independent of the package code:
one evaluates the defining binomial-Catalan sum with stdlib combinatorics,
one literally enumerates lattice walks, one runs the modular
convolution recurrence on Python integers, two multiply up the power
of every exponent layer: one counts SetSpec members, one rebuilds the
error bound of a SetSpec count, and one counts zero-one numbers one base-3
digit at a time.  Two build the density lab's digit-chunk lookup tables with
numpy, every digit of every chunk at once.
"""

import math
from array import array
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from motzkinlab.classify import DIV5_FORM_SPECS, MOD8_CLASS_SPECS, SetSpec


def motzkin_defining_sum(n: int) -> int:
    """sum_k binom(n, 2k) * catalan(k), straight off math.comb."""
    return sum(
        math.comb(n, 2 * k) * (math.comb(2 * k, k) // (k + 1))
        for k in range(n // 2 + 1)
    )


def motzkin_path_count(n: int) -> int:
    """Count length-n walks over steps {+1, 0, -1} from 0 to 0 staying >= 0."""

    @lru_cache(maxsize=None)
    def walks(steps: int, height: int) -> int:
        if height < 0:
            return 0
        if steps == 0:
            return 1 if height == 0 else 0
        return (
            walks(steps - 1, height + 1)
            + walks(steps - 1, height)
            + walks(steps - 1, height - 1)
        )

    return walks(n, 0)


def motzkin_convolution_oracle(modulus: int, count: int) -> "list[int]":
    """M(0..count-1) mod modulus by M(n) = M(n-1) + sum_k M(k) M(n-2-k), in O(count**2)."""
    vals = [1 % modulus]
    for n in range(1, count):
        head = vals[: n - 1]
        acc = vals[n - 1] + sum(a * b for a, b in zip(head, reversed(head)))
        vals.append(acc % modulus)
    return vals


def layer_count_oracle(n_max: int, spec: SetSpec) -> int:
    """Members of ``spec`` in [0, n_max], one big division per exponent layer.

    Layer e holds the i >= 0 with (base*i + residue)*base**e + shift <= n_max,
    counted as (q - residue)//base + 1 with q = (n_max - shift)//base**e; the
    members below zero that a negative shift brings are counted at -1 and
    taken off.
    """
    def at_most(bound):
        shifted = bound - spec.shift
        total = 0
        power = spec.base ** (spec.exp_step * spec.min_j + spec.exp_offset)
        while power <= shifted:
            total += max((shifted // power - spec.residue) // spec.base + 1, 0)
            power *= spec.base ** spec.exp_step
        return total

    if n_max < 0:
        return 0
    return at_most(n_max) - at_most(-1)


def error_bound_oracle(n_max: int, spec: SetSpec) -> Fraction:
    """``count_error_bound`` with its layer count taken by multiplying up powers.

    trunc + 1 is the number of t >= 0 with
    base**(exp_offset + 1 + exp_step*t) <= max(n_max - shift, 1).
    """
    limit = max(n_max - spec.shift, 1)
    layers, power = 0, spec.base ** (spec.exp_offset + 1)
    while power <= limit:
        layers += 1
        power *= spec.base ** spec.exp_step
    trunc = layers - 1
    smallest = spec.base ** (spec.exp_step * spec.min_j + spec.exp_offset)
    return (2 * (trunc + 2) + Fraction(spec.residue * (trunc + 1), spec.base) + smallest
            + max(0, abs(spec.shift) + 1 - smallest))


def t01_count_oracle(n_max: int) -> int:
    """How many n in [0, n_max] have only base-3 digits 0 and 1, one digit per step.

    Walk from the most significant base-3 digit of n_max: while the prefix
    stays tight, a digit d adds min(d, 2) free-tail choices times
    2**position; the walk ends at the first digit 2, and otherwise counts
    n_max itself.
    """
    if n_max < 0:
        return 0
    digits = []
    while n_max:
        n_max, digit = divmod(n_max, 3)
        digits.append(digit)
    count = 0
    for position in range(len(digits) - 1, -1, -1):
        if digits[position] == 2:
            return count + (2 << position)
        count += digits[position] << position
    return count + 1


def legendre_table_oracle(base: int, exp_step: int, residue: int, digits: int) -> array:
    """The Legendre table of ``density._legendre_table`` over chunks of ``digits`` base-b digits.

    Entry c is (B - 1)*#{positions p = 0 mod s with digit >= residue}
    - sum_p d_p(c)*b**((p - 1) mod s), B = b**s, from every digit of c.
    """
    step = base ** exp_step
    chunk = np.arange(base ** digits, dtype=np.int64)
    entry = np.zeros_like(chunk)
    for position in range(digits):
        chunk, digit = np.divmod(chunk, base)
        if position % exp_step == 0:
            entry += (step - 1) * (digit >= residue)
        entry -= digit * base ** ((position - 1) % exp_step)
    return array("h", entry.astype(np.int16).tobytes())


def t01_table_oracle(digits: int) -> array:
    """The zero-one table of ``density._t01_table`` over chunks of ``digits`` base-3 digits.

    Entry c is the binary reading of the largest zero-one number <= c: a
    digit 2 turns itself and every digit below it into 1.  It is stored
    complemented when c has a 2.
    """
    chunk = np.arange(3 ** digits, dtype=np.int64)
    largest = np.zeros_like(chunk)
    has_two = np.zeros(chunk.size, dtype=bool)
    for position in range(digits):
        chunk, digit = np.divmod(chunk, 3)
        largest = np.where(digit == 2, (2 << position) - 1, largest | digit << position)
        has_two |= digit == 2
    return array("h", np.where(has_two, ~largest, largest).astype(np.int16).tobytes())


@pytest.fixture(scope="session")
def oracle_prefix():
    """M(0..599) via the literal defining sum."""
    return [motzkin_defining_sum(n) for n in range(600)]


@pytest.fixture(scope="session")
def classifier_specs():
    """The eight index-pattern specs behind the mod-8 and mod-5 classifiers."""
    return list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS)
