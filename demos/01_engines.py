#!/usr/bin/env python3
"""Four independent ways to produce Motzkin numbers, checking each other.

The sequence M(0), M(1), ... = 1, 1, 2, 4, 9, 21, 51, 127, ... can be built
from the defining binomial-Catalan sum, from a three-term recurrence over
exact integers, modulo m from a division-free Newton iteration, or modulo a
prime power (and products of them) from a digit automaton that reads the
base-p digits of n.  Agreement between unrelated methods is the whole
point: a bug in one engine cannot hide in the others.
"""

from motzkinlab import (
    cross_validate_engines,
    motzkin_exact,
    motzkin_exact_stream,
    motzkin_mod_at,
    motzkin_mod_stream,
)

print("The first 15 Motzkin numbers, from the defining sum:")
print("  ", [motzkin_exact(n) for n in range(15)])

print("\nThe same prefix from the exact recurrence (every division exact):")
print("  ", motzkin_exact_stream(15))

print("\nM(100) has", len(str(motzkin_exact(100))), "digits:")
print("  ", motzkin_exact(100))

print("\nResidues mod 8 via the modular stream (note: never 0):")
stream = motzkin_mod_stream(8, 40)
print("  ", list(stream.values))

print("\nResidues mod 5 of the same prefix:")
print("  ", list(motzkin_mod_stream(5, 40).values))

print("\nM(10^30) mod 8 from the digit automaton, far past any stream:")
print("  ", motzkin_mod_at(10**30, 8))

print("\nCross-validating the modular stream and the automaton against the exact recurrence:")
for modulus in (2, 3, 4, 5, 8):
    report = cross_validate_engines(modulus, 3000)
    status = "consistent" if report.consistent else f"MISMATCH at {report.first_mismatch}"
    print(f"   mod {modulus}: {report.checked} values, {status}")
