"""Digit-pattern classifiers for Motzkin residues.

Everything here decides residue classes of M(n) from the base-q structure of
the index n alone; no Motzkin number is ever computed.  The classifiers
accept arbitrary-precision indices, and any integer type ``operator.index``
takes (a numpy int is read as an int); anything else, a float included, is a
ValueError.

Each scalar classifier costs one :func:`_split` per distinct additive shift
of its index families (two each for mod 8 and div 5), plus O(1) big-int
operations.  A negative outcome allocates nothing: every odd mod-8 result is
the one shared frozen ``Mod8Classification(Mod8Kind.ODD)`` and every
not-divisible result the one shared ``Div5Classification()``, so compare
results with ``==``; their identity means nothing.
"""

import enum
import operator
from dataclasses import dataclass, field
from typing import NamedTuple


def _integer(value, name: str) -> int:
    """``value`` as an int; a ValueError naming it unless ``operator.index`` takes it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class ValuationDecomposition(NamedTuple):
    """n written as unit * base**exponent with the base fully factored out."""

    unit: int
    exponent: int


def _split(x: int, base: int) -> "tuple[int, int]":
    """``(unit, exponent)`` with ``x = unit * base**exponent`` and base not dividing unit.

    Unchecked: x >= 1 and base >= 2.  Divides while it can, which costs one
    ``%`` when base does not divide x.
    """
    exponent = 0
    while x % base == 0:
        x //= base
        exponent += 1
    return x, exponent


def factor_out_base(n: int, base: int) -> ValuationDecomposition:
    """Write ``n = unit * base**exponent`` with ``unit`` not divisible by ``base``.

    Defined for n >= 1 only; every membership predicate below strips its
    additive shift before factoring.
    """
    if type(n) is not int:
        n = _integer(n, "n")
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if n < 1:
        raise ValueError(f"valuation decomposition needs n >= 1, got {n}")
    return ValuationDecomposition(*_split(n, base))


@dataclass(frozen=True)
class SetSpec:
    """The pattern ``(base*i + residue) * base**(exp_step*j + exp_offset) + shift``.

    Members range over i >= 0 and j >= min_j.  ``residue`` must be a nonzero
    residue mod ``base``: with residue 0 the same number would be reachable
    from several j, breaking both the membership witness and exact counting.
    """

    base: int
    residue: int
    exp_step: int
    exp_offset: int
    shift: int = 0
    min_j: int = 0
    # The smallest exponent e of a layer (base*i + residue) * base**e.  Every
    # witness test and exact count reads it, so it is stored once: a property
    # would cost a call per read, and a cached_property, by adding to the
    # instance dict later, made every attribute read of a spec 2.6 times slower.
    first_exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        if not 1 <= self.residue < self.base:
            raise ValueError(
                f"residue must satisfy 1 <= residue < base, got {self.residue}"
            )
        if self.exp_step < 1:
            raise ValueError(f"exp_step must be at least 1, got {self.exp_step}")
        if self.exp_offset < 0:
            raise ValueError(f"exp_offset must be non-negative, got {self.exp_offset}")
        if self.min_j not in (0, 1):
            raise ValueError(f"min_j must be 0 or 1, got {self.min_j}")
        object.__setattr__(self, "first_exponent", self.exp_step * self.min_j + self.exp_offset)

    def member(self, i: int, j: int) -> int:
        """The member with witness (i, j); inverse of :func:`is_in_set`."""
        if i < 0:
            raise ValueError(f"i must be non-negative, got {i}")
        if j < self.min_j:
            raise ValueError(f"j must be at least {self.min_j}, got {j}")
        scale = self.base ** (self.exp_step * j + self.exp_offset)
        return (self.base * i + self.residue) * scale + self.shift


def _witness(spec: SetSpec, unit: int, exponent: int) -> "tuple[int, int] | None":
    """Witness (i, j) of ``spec`` for the number ``unit * spec.base**exponent + spec.shift``.

    ``(unit, exponent)`` is the :func:`_split` of n - spec.shift by spec.base.
    """
    if exponent < spec.first_exponent:
        return None
    if unit % spec.base != spec.residue:
        return None
    j, off_step = divmod(exponent - spec.exp_offset, spec.exp_step)
    if off_step:
        return None
    return (unit - spec.residue) // spec.base, j


def is_in_set(n: int, spec: SetSpec) -> "tuple[int, int] | None":
    """Witness (i, j) with ``spec.member(i, j) == n``, or None.

    Witnesses are unique: stripping the shift leaves a number whose
    base-power decomposition pins down both i and j.
    """
    if type(n) is not int:
        n = _integer(n, "n")
    shifted = n - spec.shift
    if shifted <= 0:
        return None
    return _witness(spec, *_split(shifted, spec.base))


class Mod8Kind(enum.Enum):
    """Residue class of a Motzkin number mod 8.

    The even residue, when there is one, is known exactly; odd Motzkin
    numbers are reported as ODD without naming the odd residue.
    """

    ODD = "odd"
    RESIDUE_2 = "2"
    RESIDUE_4 = "4"
    RESIDUE_6 = "6"

    def __init__(self, value: str) -> None:
        # Residues mod 2, 4 and 8, fixed per member so lookups stay cheap in
        # per-index loops.
        self._residues = ({2: 1, 4: None, 8: None} if value == "odd"
                          else {modulus: int(value) % modulus for modulus in (2, 4, 8)})

    @property
    def even_residue(self) -> "int | None":
        """2, 4 or 6 for the even kinds, None for ODD."""
        return self._residues[8]

    def residue_mod(self, modulus: int) -> "int | None":
        """M(n) mod 2, 4 or 8 for this kind; None where only oddness is known."""
        try:
            return self._residues[modulus]
        except KeyError:
            raise ValueError(f"modulus must be 2, 4 or 8, got {modulus}") from None


class Mod8Witness(NamedTuple):
    """Solution of ``n + delta = (4*i + eps) * 4**(j + 1)``."""

    eps: int    # 1 or 3, residue mod 4 of the odd unit of n + delta
    delta: int  # 1 or 2
    i: int
    j: int


@dataclass(frozen=True)
class Mod8Classification:
    """Outcome of :func:`classify_mod8` with its witness data."""

    kind: Mod8Kind
    witness: "Mod8Witness | None" = None
    ones_count: "int | None" = None  # one bits of 4*i + eps - 1; parity picks 2 vs 6

    def __post_init__(self) -> None:
        # Read off the kind's residue: Mod8Kind.X lookups cost more than the checks.
        residue = self.kind.even_residue
        if (self.witness is None) != (residue is None):
            raise ValueError("witness must be present exactly for even kinds")
        if (self.ones_count is None) == (residue in (2, 6)):
            raise ValueError("ones_count must be present exactly for kinds 2 and 6")
        if self.ones_count is not None and residue != (6 if self.ones_count % 2 else 2):
            raise ValueError("ones_count parity disagrees with the kind")

    @property
    def is_even(self) -> bool:
        return self.kind is not Mod8Kind.ODD


# The four disjoint index families of even Motzkin numbers, keyed by
# (eps, delta): n = (4*i + eps) * 4**(j + 1) - delta.
MOD8_CLASS_SPECS: "dict[tuple[int, int], SetSpec]" = {
    (eps, delta): SetSpec(base=4, residue=eps, exp_step=1, exp_offset=1, shift=-delta)
    for eps in (1, 3)
    for delta in (1, 2)
}


# Every odd outcome, built and validated once; the even kinds bound once,
# since each Mod8Kind.X is a class attribute lookup.
_ODD = Mod8Classification(Mod8Kind.ODD)
_RESIDUE_2, _RESIDUE_4, _RESIDUE_6 = Mod8Kind.RESIDUE_2, Mod8Kind.RESIDUE_4, Mod8Kind.RESIDUE_6


def classify_mod8(n: int) -> Mod8Classification:
    """Residue class of M(n) mod 8, decided from n alone.

    M(n) is even exactly when ``n + delta = (4*i + eps) * 4**(j + 1)`` for one
    of the four choices eps in {1, 3}, delta in {1, 2}; the four index
    families are pairwise disjoint.  Choices (1, 1) and (3, 2) force
    M(n) = 4 mod 8; the other two give M(n) = 4*y + 2 mod 8, where y counts
    the one bits of ``4*i + eps - 1``, so y's parity separates 2 from 6.

    Costs one base-4 :func:`_split` of n + 1 and one of n + 2.  Every ODD
    outcome is the same shared frozen instance.
    """
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    match = None
    for delta in (1, 2):
        unit, exponent = _split(n + delta, 4)
        if exponent and unit & 1:
            if match is not None:
                raise AssertionError(f"two (eps, delta) witnesses for n={n}")
            match = delta, unit, exponent
    if match is None:
        return _ODD
    delta, unit, exponent = match
    eps = unit & 3
    witness = Mod8Witness(eps, delta, unit >> 2, exponent - 1)
    if (eps == 1) == (delta == 1):  # (eps, delta) is (1, 1) or (3, 2)
        return Mod8Classification(_RESIDUE_4, witness)
    ones = (unit - 1).bit_count()
    kind = _RESIDUE_2 if ones % 2 == 0 else _RESIDUE_6
    return Mod8Classification(kind, witness, ones)


def is_t01(n: int) -> bool:
    """True when every base-3 digit of n is 0 or 1.  0 qualifies."""
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    return _is_t01(n)


def _is_t01(n: int) -> bool:
    """:func:`is_t01` for an int n >= 0, unchecked."""
    while n:
        if n % 3 == 2:
            return False
        n //= 3
    return True


def classify_mod3(n: int) -> int:
    """M(n) mod 3, decided from the base-3 shape of n.

    The residue is 1 when n/3 or (n + 2)/3 is a base-3 zero-one number, 2
    when (n + 1)/3 is one, and 0 otherwise.  The three cases each force a
    distinct value of n mod 3, so they are mutually exclusive by
    construction.
    """
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    rem = n % 3
    if rem == 0:
        return 1 if _is_t01(n // 3) else 0
    if rem == 2:
        return 2 if _is_t01((n + 1) // 3) else 0
    return 1 if _is_t01((n + 2) // 3) else 0


# The four disjoint index families with M(n) divisible by 5.  Forms 2 and 3
# carry exponent 2j - 1 with j >= 1; the specs encode it as 2j' + 1 with
# j' >= 0, so in every form the canonical witness is j = j' + exp_offset.
DIV5_FORM_SPECS: "tuple[SetSpec, ...]" = (
    SetSpec(base=5, residue=1, exp_step=2, exp_offset=0, shift=-2, min_j=1),
    SetSpec(base=5, residue=2, exp_step=2, exp_offset=1, shift=-1, min_j=0),
    SetSpec(base=5, residue=3, exp_step=2, exp_offset=1, shift=-2, min_j=0),
    SetSpec(base=5, residue=4, exp_step=2, exp_offset=0, shift=-1, min_j=1),
)


class Div5Witness(NamedTuple):
    i: int
    j: int  # canonical indexing: exponent 2j (forms 1, 4) or 2j - 1 (forms 2, 3)


@dataclass(frozen=True)
class Div5Classification:
    """Which of the four divisible-by-5 index forms n matches, if any."""

    form: "int | None" = None
    witness: "Div5Witness | None" = None

    def __post_init__(self) -> None:
        if (self.form is None) != (self.witness is None):
            raise ValueError("form and witness must be present together")
        if self.form is not None and self.form not in (1, 2, 3, 4):
            raise ValueError(f"form must be in 1..4, got {self.form}")

    @property
    def divisible(self) -> bool:
        return self.form is not None

    def member(self) -> int:
        """Reconstruct n from the stored form and witness."""
        if self.form is None or self.witness is None:
            raise ValueError("no witness stored")
        spec = DIV5_FORM_SPECS[self.form - 1]
        i, j = self.witness
        return spec.member(i, j - spec.exp_offset)


# Every not-divisible outcome, built and validated once.
_NOT_DIVISIBLE = Div5Classification()


# The (form, spec) pairs of DIV5_FORM_SPECS under each (shift, base), forms
# from 1.  Every shift is negative, so n - shift >= 1 for every index n >= 0.
_DIV5_GROUPS: "dict[tuple[int, int], list[tuple[int, SetSpec]]]" = {
    key: [(form, spec) for form, spec in enumerate(DIV5_FORM_SPECS, start=1)
          if (spec.shift, spec.base) == key]
    for key in dict.fromkeys((spec.shift, spec.base) for spec in DIV5_FORM_SPECS)
}


def classify_div5(n: int) -> Div5Classification:
    """Whether 5 divides M(n), with the matching index form and witness.

    5 | M(n) exactly when n is ``(5i+1)*5**(2j) - 2``, ``(5i+2)*5**(2j-1) - 1``,
    ``(5i+3)*5**(2j-1) - 2`` or ``(5i+4)*5**(2j) - 1`` with i >= 0, j >= 1.
    The four families are pairwise disjoint; witnesses use this indexing.

    The forms share two shifts, so this costs one base-5 :func:`_split` of
    n + 2 and one of n + 1.  Every not-divisible outcome is the same shared
    frozen instance.
    """
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    found = None
    for (shift, base), members in _DIV5_GROUPS.items():
        unit, exponent = _split(n - shift, base)
        for form, spec in members:
            hit = _witness(spec, unit, exponent)
            if hit is not None:
                if found is not None:
                    raise AssertionError(f"two divisibility forms for n={n}")
                i, j = hit
                found = Div5Classification(form, Div5Witness(i, j + spec.exp_offset))
    return found if found is not None else _NOT_DIVISIBLE
