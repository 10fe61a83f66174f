"""Digit-pattern classifiers for Motzkin residues.

Everything here decides residue classes of M(n) from the base-q structure of
the index n alone; no Motzkin number is ever computed.  The classifiers
accept arbitrary-precision indices, and any integer type ``operator.index``
takes (a numpy int is read as an int); anything else, a float included, is a
ValueError.

The mod-8 and div-5 classifiers each look at two shifted indices, n + 1 and
n + 2.  Most fail a first test of one ``&`` (mod 8: 4 must divide it) or
one ``%`` (div 5: 5 must divide it) and cost nothing more.  One that passes
costs a read of its lowest set bit (mod 8), or one base-5 :func:`_split` of
x // 5 and one dict lookup (div 5), plus O(1) big-int operations.  Its
result then costs little more than its checks: the witness is built straight
from a tuple, and the frozen result's own ``__init__`` checks its fields and
writes each once.  A negative outcome
allocates nothing: every odd mod-8 result is the one shared frozen
``Mod8Classification(Mod8Kind.ODD)`` and every not-divisible result the one
shared ``Div5Classification()``, so compare results with ``==``; their
identity means nothing.
"""

import enum
import operator
from dataclasses import dataclass, field
from typing import NamedTuple


# Builds a NamedTuple witness from a tuple of its fields without the Python-level
# ``__new__`` frame, as NamedTuple's ``_make`` does.
_new_tuple = tuple.__new__


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
    # residue * base**first_exponent + shift, the member at i = 0 in the first
    # layer.  Only when it is negative do the exact counts take off members
    # below zero.
    smallest_member: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("base", "residue", "exp_step", "exp_offset", "shift", "min_j"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        object.__setattr__(self, "smallest_member",
                           self.residue * self.base ** self.first_exponent + self.shift)

    def member(self, i: int, j: int) -> int:
        """The member with witness (i, j); inverse of :func:`is_in_set`."""
        if i < 0:
            raise ValueError(f"i must be non-negative, got {i}")
        if j < self.min_j:
            raise ValueError(f"j must be at least {self.min_j}, got {j}")
        scale = self.base ** (self.exp_step * j + self.exp_offset)
        return (self.base * i + self.residue) * scale + self.shift


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
    unit, exponent = _split(shifted, spec.base)
    if exponent < spec.first_exponent or unit % spec.base != spec.residue:
        return None
    j, off_step = divmod(exponent - spec.exp_offset, spec.exp_step)
    if off_step:
        return None
    return (unit - spec.residue) // spec.base, j


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


@dataclass(frozen=True, init=False)
class Mod8Classification:
    """Outcome of :func:`classify_mod8` with its witness data.

    Every construction checks that the kind is a :class:`Mod8Kind`, that the
    witness comes exactly with an even kind, and that the one-bit count comes
    exactly with kinds 2 and 6, as an int whose parity picks the kind.  The
    hand-written ``__init__``, which ``dataclasses.replace`` calls too, runs
    those checks and then writes each field once, so an even result costs
    little more than its checks.
    """

    kind: Mod8Kind
    witness: "Mod8Witness | None" = None
    ones_count: "int | None" = None  # one bits of 4*i + eps - 1; parity picks 2 vs 6

    def __init__(self, kind: Mod8Kind, witness: "Mod8Witness | None" = None,
                 ones_count: "int | None" = None) -> None:
        if type(kind) is not Mod8Kind:
            raise ValueError(f"kind must be a Mod8Kind, got {kind!r}")
        residue = kind._residues[8]
        if (witness is None) != (residue is None):
            raise ValueError("witness must be present exactly for even kinds")
        if (ones_count is None) == (residue in (2, 6)):
            raise ValueError("ones_count must be present exactly for kinds 2 and 6")
        if ones_count is not None:
            if type(ones_count) is not int:
                raise ValueError(f"ones_count must be an int, got {ones_count!r}")
            if residue != (6 if ones_count & 1 else 2):
                raise ValueError("ones_count parity disagrees with the kind")
        # The frozen __setattr__ refuses every write; the instance dict takes
        # them at a fraction of the cost of object.__setattr__.
        fields = self.__dict__
        fields["kind"] = kind
        fields["witness"] = witness
        fields["ones_count"] = ones_count

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
# The shifts delta of the families, each examined by classify_mod8.
_MOD8_DELTAS = (1, 2)


def classify_mod8(n: int) -> Mod8Classification:
    """Residue class of M(n) mod 8, decided from n alone.

    M(n) is even exactly when ``n + delta = (4*i + eps) * 4**(j + 1)`` for one
    of the four choices eps in {1, 3}, delta in {1, 2}; the four index
    families are pairwise disjoint.  Choices (1, 1) and (3, 2) force
    M(n) = 4 mod 8; the other two give M(n) = 4*y + 2 mod 8, where y counts
    the one bits of ``4*i + eps - 1``, so y's parity separates 2 from 6.

    Examines x = n + 1 and x = n + 2: one ``&`` rejects an x not divisible
    by 4, and otherwise x has a witness when its lowest set bit sits at an
    even position 2(j + 1).  Every ODD outcome is the same shared frozen
    instance.
    """
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    match = None
    for delta in _MOD8_DELTAS:
        x = n + delta
        if x & 3:
            continue
        twos = (x & -x).bit_length() - 1
        if twos & 1:
            continue
        if match is not None:
            raise AssertionError(f"two (eps, delta) witnesses for n={n}")
        match = delta, x >> twos, twos >> 1
    if match is None:
        return _ODD
    delta, unit, exponent = match
    eps = unit & 3
    witness = _new_tuple(Mod8Witness, (eps, delta, unit >> 2, exponent - 1))
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


@dataclass(frozen=True, init=False)
class Div5Classification:
    """Which of the four divisible-by-5 index forms n matches, if any.

    Every construction checks that the form and the witness come together and
    that the form is an int in 1..4.  The hand-written ``__init__``, which
    ``dataclasses.replace`` calls too, runs those checks and then writes each
    field once.
    """

    form: "int | None" = None
    witness: "Div5Witness | None" = None

    def __init__(self, form: "int | None" = None, witness: "Div5Witness | None" = None) -> None:
        if (form is None) != (witness is None):
            raise ValueError("form and witness must be present together")
        if form is not None:
            if type(form) is not int:
                raise ValueError(f"form must be an int, got {form!r}")
            if form not in (1, 2, 3, 4):
                raise ValueError(f"form must be in 1..4, got {form}")
        fields = self.__dict__
        fields["form"] = form
        fields["witness"] = witness

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


# The shifts delta in n + delta of the div-5 forms, each examined by classify_div5.
_DIV5_DELTAS = (1, 2)
# Each form keyed by (delta, unit % 5, e % 2) of its members' n + delta = unit * 5**e.
# The key alone decides membership only because every form has exp_step 2 and
# its smallest exponent is the least exponent >= 1 with its parity: the key
# is read only for an x = n + delta that 5 divides, so e >= 1.
_DIV5_FORMS: "dict[tuple[int, int, int], int]" = {
    (-spec.shift, spec.residue, spec.exp_offset % spec.exp_step): form
    for form, spec in enumerate(DIV5_FORM_SPECS, start=1)
}


def classify_div5(n: int) -> Div5Classification:
    """Whether 5 divides M(n), with the matching index form and witness.

    5 | M(n) exactly when n is ``(5i+1)*5**(2j) - 2``, ``(5i+2)*5**(2j-1) - 1``,
    ``(5i+3)*5**(2j-1) - 2`` or ``(5i+4)*5**(2j) - 1`` with i >= 0, j >= 1.
    The four families are pairwise disjoint; witnesses use this indexing.

    Examines x = n + 1 and x = n + 2: one ``%`` rejects an x not divisible
    by 5, and otherwise one base-5 :func:`_split` of x // 5 writes
    x = unit * 5**e, and one dict lookup of (delta, unit % 5, e & 1) names
    the form, if any.  Every not-divisible outcome is the same shared
    frozen instance.
    """
    if type(n) is not int:
        n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    found = None
    for delta in _DIV5_DELTAS:
        x = n + delta
        if x % 5:
            continue
        unit, e = _split(x // 5, 5)
        e += 1
        form = _DIV5_FORMS.get((delta, unit % 5, e & 1))
        if form is None:
            continue
        if found is not None:
            raise AssertionError(f"two divisibility forms for n={n}")
        found = Div5Classification(form, _new_tuple(Div5Witness, (unit // 5, (e + 1) >> 1)))
    return found if found is not None else _NOT_DIVISIBLE
