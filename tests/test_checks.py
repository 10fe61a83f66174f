"""verify_classifiers must be able to fail: a wrong classifier shows up as mismatches."""

import pytest

from motzkinlab import checks, classify
from motzkinlab.classify import Mod8Classification, Mod8Kind

MODULI = (2, 3, 4, 5, 8)
# The classifier that each modulus's predictor reads, by its name in checks.
CLASSIFIER = {2: "classify_mod8", 3: "classify_mod3", 4: "classify_mod8",
              5: "classify_div5", 8: "classify_mod8"}


def swap_2_and_6(n):
    """classify_mod8 with the kinds 2 and 6 exchanged: wrong mod 8 only."""
    outcome = classify.classify_mod8(n)
    swapped = {Mod8Kind.RESIDUE_2: Mod8Kind.RESIDUE_6, Mod8Kind.RESIDUE_6: Mod8Kind.RESIDUE_2}
    if outcome.kind not in swapped:
        return outcome
    return Mod8Classification(swapped[outcome.kind], outcome.witness, outcome.ones_count + 1)


@pytest.mark.parametrize("modulus", MODULI)
def test_a_classifier_one_index_off_is_caught(monkeypatch, modulus):
    name = CLASSIFIER[modulus]
    real = getattr(classify, name)
    monkeypatch.setattr(checks, name, lambda n: real(n + 1))
    report = checks.verify_classifiers(modulus, 500)
    assert report.mismatches > 0 and not report.ok
    for n, predicted, actual in report.first_mismatches:
        assert predicted == checks.predicted_residue(modulus, n)
        assert not checks.prediction_matches(modulus, predicted, actual)


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_swapping_2_and_6_is_caught_mod_8_only(monkeypatch, modulus):
    monkeypatch.setattr(checks, "classify_mod8", swap_2_and_6)
    report = checks.verify_classifiers(modulus, 500)
    assert (report.mismatches > 0) == (modulus == 8)


@pytest.mark.parametrize("modulus", MODULI)
def test_the_sweep_predicts_what_predicted_residue_names(monkeypatch, modulus):
    seen = []

    def record(modulus, predicted, residue):
        seen.append(predicted)
        return True

    monkeypatch.setattr(checks, "prediction_matches", record)
    assert checks.verify_classifiers(modulus, 2000).ok
    assert seen == [checks.predicted_residue(modulus, n) for n in range(2000)]
    assert (None in seen) == (modulus in (4, 5, 8))  # odd or nonzero, unnamed


def test_unsupported_moduli_are_refused():
    for modulus in (0, 6, 7, 16, [2]):
        with pytest.raises(ValueError, match="unsupported modulus"):
            checks.predicted_residue(modulus, 3)
        with pytest.raises(ValueError, match="unsupported modulus"):
            checks.verify_classifiers(modulus, 3)


@pytest.mark.parametrize("modulus, shown", [
    (10**40, "of 41 digits"), (10**5000, "of 5001 digits"), (-10**5000, "of 5001 digits"),
], ids=["10^40", "10^5000", "-10^5000"])
def test_a_long_unsupported_modulus_is_named_by_its_digits(modulus, shown):
    with pytest.raises(ValueError, match=f"^unsupported modulus {shown}; "):
        checks.verify_classifiers(modulus, 5)
    with pytest.raises(ValueError, match=f"^unsupported modulus {shown}; "):
        checks.predicted_residue(modulus, 3)
