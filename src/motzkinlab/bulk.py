"""Vectorized counterparts of the scalar digit classifiers.

These kernels stream int64 index arrays so that density sweeps over tens of
millions of indices stay fast.  Each one mirrors a function in
:mod:`motzkinlab.classify`; ``classify_div5``'s vector form is
:func:`in_set_masks` over ``DIV5_FORM_SPECS``.  The test suite holds
them to exact agreement.
Indices must be integers (any integer dtype), non-negative, and leave
headroom for n + 2 in int64.
"""

import numpy as np

from .classify import SetSpec

MAX_INDEX = int(np.iinfo(np.int64).max) - 2

ODD_CODE = 1  # mod8_kind_codes marker for "M(n) is odd"


def _checked(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size:
        if arr.dtype.kind not in "iu":  # floats would truncate, huge ints arrive as objects
            raise ValueError(f"indices must have an integer dtype, got {arr.dtype}")
        if int(arr.min()) < 0:
            raise ValueError("indices must be non-negative")
        if int(arr.max()) > MAX_INDEX:
            raise ValueError(f"indices must be at most {MAX_INDEX}")
    return arr.astype(np.int64, copy=False)


def factor_out(values: np.ndarray, base: int) -> "tuple[np.ndarray, np.ndarray]":
    """Elementwise (unit, exponent) with unit * base**exponent == value.

    All entries must be >= 1.  Index compaction keeps later passes cheap:
    only a 1/base fraction of entries survives each round.
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    units = values.copy()
    exponents = np.zeros(units.shape, dtype=np.int64)
    live = np.flatnonzero(units % base == 0)
    while live.size:
        units[live] //= base
        exponents[live] += 1
        live = live[units[live] % base == 0]
    return units, exponents


def in_set_masks(values, specs) -> "list[np.ndarray]":
    """One boolean mask per spec, matching classify.is_in_set.

    Specs that share a (base, shift) pair share one :func:`factor_out` pass.
    """
    arr = _checked(values)
    top = int(arr.max()) if arr.size else 0
    factored = {}
    masks = []
    for spec in specs:
        key = spec.base, spec.shift
        if key not in factored:
            if arr.size and spec.shift < 0 and top - spec.shift > MAX_INDEX + 2:
                raise ValueError("shifted indices would overflow int64")
            shifted = arr - spec.shift
            positive = shifted > 0
            factored[key] = (positive, *factor_out(np.where(positive, shifted, 1), spec.base))
        positive, units, exponents = factored[key]
        ok = positive.copy()
        ok &= units % spec.base == spec.residue
        ok &= exponents >= spec.exp_step * spec.min_j + spec.exp_offset
        ok &= (exponents - spec.exp_offset) % spec.exp_step == 0
        masks.append(ok)
    return masks


def in_set_mask(values, spec: SetSpec) -> np.ndarray:
    """Boolean mask of membership in ``spec``, matching classify.is_in_set."""
    return in_set_masks(values, [spec])[0]


def mod8_kind_codes(values) -> np.ndarray:
    """Codes 1 (odd), 2, 4 or 6 (the exact even residue of M(n) mod 8)."""
    arr = _checked(values)
    out = np.full(arr.shape, ODD_CODE, dtype=np.int64)
    claimed = np.zeros(arr.shape, dtype=bool)
    for delta in (1, 2):
        units, exponents = factor_out(arr + delta, 4)
        hit = (exponents >= 1) & (units % 2 == 1)
        if (hit & claimed).any():
            raise AssertionError("overlapping (eps, delta) witnesses")
        claimed |= hit
        eps = units & 3
        gives_four = eps == (1 if delta == 1 else 3)
        ones = np.bitwise_count((units - 1).astype(np.uint64)).astype(np.int64)
        code = np.where(gives_four, 4, np.where(ones % 2 == 0, 2, 6))
        out = np.where(hit, code, out)
    return out


def t01_mask(values) -> np.ndarray:
    """True where every base-3 digit is 0 or 1."""
    rest = _checked(values).copy()
    ok = np.ones(rest.shape, dtype=bool)
    while rest.any():
        ok &= rest % 3 != 2
        rest //= 3
    return ok


def mod3_values(values) -> np.ndarray:
    """M(n) mod 3 for every index, as an array over {0, 1, 2}."""
    arr = _checked(values)
    rem = arr % 3
    third = (arr + (3 - rem) % 3) // 3  # n/3, (n+2)/3 or (n+1)/3 by residue
    hit = t01_mask(third)
    return np.where(hit, np.where(rem == 2, 2, 1), 0)
