"""Sweeps that confront the digit classifiers with actual Motzkin residues.

A single mismatch falsifies a classifier (or an engine), so the report keeps
the first offending index for inspection.
"""

from dataclasses import dataclass

from .classify import classify_div5, classify_mod3, classify_mod8
from .engines import ensure_within_ceiling, iter_motzkin_exact

SUPPORTED_MODULI = (2, 3, 4, 5, 8)


def prediction_matches(modulus: int, n: int, residue: int) -> bool:
    """Does the digit prediction for index n agree with M(n) mod modulus?"""
    if modulus in (2, 4, 8):
        predicted = classify_mod8(n).kind.residue_mod(modulus)
        return residue % 2 == 1 if predicted is None else residue == predicted
    if modulus == 3:
        return classify_mod3(n) == residue
    if modulus == 5:
        return classify_div5(n).divisible == (residue == 0)
    raise ValueError(
        f"unsupported modulus {modulus}; expected one of {SUPPORTED_MODULI}"
    )


@dataclass(frozen=True)
class VerificationReport:
    modulus: int
    checked: int
    mismatches: int
    first_mismatch: "int | None"

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_classifiers(modulus: int, count: int) -> VerificationReport:
    """Compare digit predictions with exact residues for all n < count."""
    if modulus not in SUPPORTED_MODULI:
        raise ValueError(
            f"unsupported modulus {modulus}; expected one of {SUPPORTED_MODULI}"
        )
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    ensure_within_ceiling(count, "sweep length")
    mismatches = 0
    first = None
    gen = iter_motzkin_exact()
    for n in range(count):
        residue = next(gen) % modulus
        if not prediction_matches(modulus, n, residue):
            mismatches += 1
            if first is None:
                first = n
    return VerificationReport(modulus=modulus, checked=count,
                              mismatches=mismatches, first_mismatch=first)
