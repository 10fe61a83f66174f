"""Sweeps that confront the digit classifiers with actual Motzkin residues.

The residues come from the prime-power digit automaton, one index at a time
through :func:`motzkinlab.engines.iter_motzkin_mod`; the engine
cross-validation and the acceptance suite check it against the exact
recurrence.  A single mismatch falsifies a classifier (or the automaton), so
the report keeps the first few offending indices with the predicted and
actual residues.
"""

from dataclasses import dataclass

from .classify import classify_div5, classify_mod3, classify_mod8
from .engines import ensure_within_ceiling, iter_motzkin_mod

# Mismatches a VerificationReport keeps, in index order.
KEPT_MISMATCHES = 10


# The supported moduli, each with its predictor.  Each one looks its classifier
# up in this module when called, so a replaced ``checks.classify_*`` is the one
# that runs.
_PREDICTORS = {
    2: lambda n: classify_mod8(n).kind.residue_mod(2),
    3: lambda n: classify_mod3(n),
    4: lambda n: classify_mod8(n).kind.residue_mod(4),
    5: lambda n: 0 if classify_div5(n).divisible else None,
    8: lambda n: classify_mod8(n).kind.residue_mod(8),
}
SUPPORTED_MODULI = tuple(_PREDICTORS)


def _predictor(modulus: int):
    try:
        return _PREDICTORS[modulus]
    except (KeyError, TypeError):  # TypeError: an unhashable modulus
        raise ValueError(
            f"unsupported modulus {modulus}; expected one of {SUPPORTED_MODULI}"
        ) from None


def predicted_residue(modulus: int, n: int) -> "int | None":
    """The residue the digit classifiers name for M(n) mod modulus.

    None where they name only a class: odd (moduli 2, 4, 8) or nonzero
    (modulus 5).
    """
    return _predictor(modulus)(n)


def prediction_matches(modulus: int, predicted: "int | None", residue: int) -> bool:
    """Does ``residue`` lie in the class that ``predicted`` names?"""
    if predicted is not None:
        return residue == predicted
    return residue != 0 if modulus == 5 else residue % 2 == 1


@dataclass(frozen=True)
class VerificationReport:
    modulus: int
    checked: int
    mismatches: int
    # The first KEPT_MISMATCHES mismatches as (n, predicted, actual).
    first_mismatches: "tuple[tuple[int, int | None, int], ...]"

    @property
    def first_mismatch(self) -> "int | None":
        return self.first_mismatches[0][0] if self.first_mismatches else None

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_classifiers(modulus: int, count: int) -> VerificationReport:
    """Compare digit predictions with automaton residues for all n < count."""
    predict = _predictor(modulus)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    ensure_within_ceiling(count, "sweep length")
    mismatches = 0
    kept = []
    for n, residue in enumerate(iter_motzkin_mod(modulus, count)):
        predicted = predict(n)
        if not prediction_matches(modulus, predicted, residue):
            mismatches += 1
            if len(kept) < KEPT_MISMATCHES:
                kept.append((n, predicted, residue))
    return VerificationReport(modulus=modulus, checked=count,
                              mismatches=mismatches, first_mismatches=tuple(kept))
