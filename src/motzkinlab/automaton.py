"""Prime-power digit automata: M(n) mod m read off the base-p digits of n.

The Motzkin numbers are constant terms, M(n) = CT[Q·Pⁿ] with
P = x⁻¹ + 1 + x and Q = 1 − x².  For m = p^a put S = P^(p^(a−1)).  Then
S(x)^p ≡ S(x^p) mod p^a (Rowland–Yassawi, J. Théor. Nombres Bordeaux 2015,
after Rowland–Zeilberger, J. Difference Eq. Appl. 2014), so for any Laurent
polynomial R and q = p·q′ + d,

    CT[R·S^q] ≡ CT[Λ(R·S^d)·S^q′]  (mod p^a),

where Λ keeps the exponents divisible by p and divides them by p.  Write
n = r + p^(a−1)·q with r = n mod p^(a−1).  The automaton starts at
R = Q·P^r mod p^a, reads the base-p digits of q from the least significant
end with R ↦ Λ(R·S^d) mod p^a, and outputs CT[R].  A zero digit maps R to
Λ(R), which has the same constant term, so leading zeros change nothing.
Its states are the polynomials this reaches; there are finitely many.  The
table kept reads k digits per step: the one-digit table composed k times.

Each prime power's table is built on first use and cached; importing the
module builds nothing.  The one-digit tables are capped at
``MAX_TABLE_ENTRIES`` (states × p): a prime power that cannot fit is refused
before its build starts, and a build that outgrows the cap stops and is not
tried again.  Both raise :class:`StateCapError`.  A modulus is served when it is below
2**63 and each of its prime-power factors is; the factors are combined by
the Chinese remainder theorem.

``motzkin_mod_at(n, m)`` answers one index in O(log n) table steps.
``motzkin_mod_indices(m, indices)`` answers an int64 index array, with one
state array and one gather per base-p^k digit of the largest index;
``motzkin_mod_array(m, count)`` runs it on 0, ..., count − 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bulk import checked_indices

# Transition-table entries (states × p) any one prime power may use.  It
# admits every prime power below 64 except 32 and 49.  The start states Q·P^r
# have distinct lowest exponents -r, so a table holds at least p**a entries.
# The pre-check is stricter: it refuses p**(a - 1) * p**a over the cap, for
# the build work grows with the square of the p**(a - 1) start states.  Every
# prime power that fits passes it (27 is the largest, at 243); those it lets
# through that do not fit, such as 64, 81, 125 and the primes above 61,
# outgrow the cap after short builds.
MAX_TABLE_ENTRIES = 4096

# A table over base p**k reads k base-p digits per gather; k is the largest
# with states * p**k within this.  At 2**16 an int16 table is at most 128 KiB.
# On a 2-vCPU Xeon a 2**20-entry one made a gather of 2**20 states 11 ms
# against 6 ms, and a 2**20-index chunk mod 8, 16 or 25 at most 25 % faster.
MAX_GATHER_ENTRIES = 1 << 16

# (p, a) -> why its build outgrew the cap.  ``lru_cache`` keeps no
# exceptions, so without this a refused build would rerun on every call.
_REFUSED: "dict[tuple[int, int], str]" = {}


class StateCapError(ValueError):
    """A modulus whose automaton would exceed the state cap."""


@dataclass(frozen=True)
class _Automaton:
    base: int             # p**k: each step reads k base-p digits of q
    shift: int            # p**(a - 1): n = r + shift*q, r picks the start state
    start: np.ndarray     # start[r], an int16 state index
    table: np.ndarray     # table[state, digit], an int16 state index
    output: np.ndarray    # output[state] = CT[R] mod p**a

    def residue(self, n: int) -> int:
        q, r = divmod(n, self.shift)
        state = int(self.start[r])
        while q:
            q, digit = divmod(q, self.base)
            state = int(self.table[state, digit])
        return int(self.output[state])

    def residues(self, indices: np.ndarray) -> np.ndarray:
        q, r = np.divmod(indices, self.shift)
        states = self.start[r]
        top = int(q.max()) if q.size else 0
        while top:
            top //= self.base
            q, digits = np.divmod(q, self.base)
            states = self.table[states, digits]
        return self.output[states]


def _trimmed(low: int, coeffs: np.ndarray):
    """(low exponent, coefficients) with the zero coefficients at both ends cut."""
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return 0, coeffs[:0]
    first, last = nonzero[0], nonzero[-1]
    return low + int(first), coeffs[first:last + 1]


@lru_cache(maxsize=None)
def _automaton(p: int, a: int) -> _Automaton:
    if (p, a) in _REFUSED:
        raise StateCapError(_REFUSED[p, a])
    modulus, shift = p**a, p ** (a - 1)
    max_states = MAX_TABLE_ENTRIES // p
    index: "dict[tuple[int, bytes], int]" = {}
    states: "list[tuple[int, np.ndarray]]" = []

    def intern(low: int, coeffs: np.ndarray) -> int:
        low, coeffs = _trimmed(low, coeffs % modulus)
        key = (low, coeffs.tobytes())
        found = index.get(key)
        if found is not None:
            return found
        if len(states) == max_states:
            _REFUSED[p, a] = (f"the automaton mod {p}^{a} has more than {max_states} "
                              f"states, over the cap of {MAX_TABLE_ENTRIES} table entries")
            raise StateCapError(_REFUSED[p, a])
        index[key] = len(states)
        states.append((low, coeffs))
        return len(states) - 1

    p_poly = np.ones(3, dtype=np.int64)              # P, lowest exponent -1
    q_poly = np.array([1, 0, -1], dtype=np.int64)    # Q, lowest exponent 0
    power = np.ones(1, dtype=np.int64)               # P^r, lowest exponent -r
    start = np.empty(shift, dtype=np.int16)
    for r in range(shift):
        start[r] = intern(-r, np.convolve(q_poly, power))
        power = np.convolve(power, p_poly) % modulus
    s = power                                        # S = P^shift
    s_powers = [np.ones(1, dtype=np.int64)]          # S^d, lowest exponent -d*shift

    rows = []
    while len(rows) < len(states):
        low, coeffs = states[len(rows)]
        row = []
        for digit in range(p):
            if digit == len(s_powers):
                s_powers.append(np.convolve(s_powers[-1], s) % modulus)
            product = np.convolve(coeffs, s_powers[digit]) if coeffs.size else coeffs
            product_low = low - digit * shift
            first = -product_low % p
            row.append(intern((product_low + first) // p, product[first::p]))
        rows.append(row)
    output = np.array([coeffs[-low] if 0 <= -low < len(coeffs) else 0
                       for low, coeffs in states], dtype=np.int64)
    # Compose the one-digit table with itself: column d + p*D of the next
    # table is column D of the last one, read from the state digit d leads to.
    one_digit = table = np.array(rows, dtype=np.int16)
    while table.size * p <= MAX_GATHER_ENTRIES:
        table = table[one_digit].transpose(0, 2, 1).reshape(len(states), -1)
    automaton = _Automaton(base=table.shape[1], shift=shift,
                           start=start, table=table, output=output)
    for array in (automaton.start, automaton.table, automaton.output):
        array.flags.writeable = False
    return automaton


def _prime_powers(modulus: int) -> "list[tuple[int, int]]":
    """[(p, a), ...] with modulus = the product of the p**a, each past the pre-check."""
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if modulus >= 2**63:
        raise StateCapError(f"modulus {modulus} is not below 2**63")
    factors, rest = [], modulus
    for p in range(2, MAX_TABLE_ENTRIES + 1):
        if rest == 1:
            break
        a = 0
        while rest % p == 0:
            rest //= p
            a += 1
        if a and p ** (2 * a - 1) > MAX_TABLE_ENTRIES:
            raise StateCapError(
                f"modulus {modulus} has the prime-power factor {p}^{a}, "
                f"too large for the cap of {MAX_TABLE_ENTRIES} table entries")
        if a:
            factors.append((p, a))
    if rest > 1:
        raise StateCapError(
            f"modulus {modulus} has a prime-power factor over the cap of "
            f"{MAX_TABLE_ENTRIES} table entries")
    return factors


def _by_crt(modulus: int, residues_of):
    """Combine ``residues_of(automaton)`` over the prime powers of ``modulus``.

    Works on ints and on int64 arrays alike: every intermediate stays below
    the modulus or below the square of one factor, both under 2**63.
    """
    automata = [(p**a, _automaton(p, a)) for p, a in _prime_powers(modulus)]
    residue, combined = 0, 1
    for factor, automaton in automata:
        lift = (residues_of(automaton) - residue % factor) * pow(combined, -1, factor) % factor
        residue = residue + combined * lift
        combined *= factor
    return residue


def motzkin_mod_at(n: int, modulus: int) -> int:
    """M(n) mod ``modulus`` in O(log n) table steps, for any index n >= 0.

    Raises :class:`StateCapError` (a ``ValueError``) when the modulus is over
    the cap: at once for a prime-power factor above it, else during the build
    that outgrows it.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    return int(_by_crt(modulus, lambda automaton: automaton.residue(n)))


def motzkin_mod_indices(modulus: int, indices) -> np.ndarray:
    """M(n) mod ``modulus`` for every n in ``indices``, as an int64 array.

    The indices are checked as :func:`motzkinlab.bulk.checked_indices`
    checks them.  O(len(indices) log max(indices)) work; raises
    :class:`StateCapError` when the modulus is over the cap.
    """
    arr = checked_indices(indices)
    residues = _by_crt(modulus, lambda automaton: automaton.residues(arr))
    return np.asarray(residues, dtype=np.int64)


def motzkin_mod_array(modulus: int, count: int) -> np.ndarray:
    """M(0), ..., M(count - 1) mod ``modulus`` as an int64 array."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return motzkin_mod_indices(modulus, np.arange(count, dtype=np.int64))
