"""Prime-power digit automata: M(n) mod m read off the base-p digits of n.

The Motzkin numbers are constant terms, M(n) = CT[Q·Pⁿ] with
P = x⁻¹ + 1 + x and Q = 1 − x².  For m = p^a put s = p^(a−1) and S = P^s.
Then S(x)^p ≡ S(x^p) mod p^a (Rowland–Yassawi, J. Théor. Nombres Bordeaux
2015, after Rowland–Zeilberger, J. Difference Eq. Appl. 2014), so for any
Laurent polynomial R and q = p·q′ + d,

    CT[R·S^q] ≡ CT[Λ(R·S^d)·S^q′]  (mod p^a),

where Λ keeps the exponents divisible by p and divides them by p.  The
automaton starts in one state and reads the base-p digits of n from the
least significant end.  The low a − 1 digits lead through prefix states
(k, r), "k digits read, and they are worth r", which output M(r) mod p^a;
the next one leads to R = Q·P^r mod p^a, r < s, so that n = r + s·q.  Each
digit d of q then maps R ↦ Λ(R·S^d) mod p^a, and a state R outputs CT[R].
A zero digit keeps the output: it maps R to Λ(R), which has the same
constant term, and a prefix (k, r) to (k + 1, r) or to Q·P^r, so leading
zeros change nothing.  Every such R lies in the exponent window
[−s, s + 1], where the step is linear: digit d is one D×D matrix A_d over
Z/p^a, D = 2s + 2 (a linear representation; Allouche–Shallit 2003).  The
states, finitely many, are the prefixes and the vectors the A_d reach from
the Q·P^r.  The kept table reads k digits a step: the one-digit table composed k times.
One builder, :func:`_digit_machine`, makes these tables and the machines
that sweep the index families and the zero-one numbers for density.

Each table is built on first use and cached; importing the module builds
nothing and does not load numpy, which only the builds and the array walks
import.  The one-digit tables are capped at ``MAX_TABLE_ENTRIES``
(states × p): a prime power that cannot fit is refused before its build
starts (for a prime, when the distinct M(d) mod p, d <= p - 3, already
pass the cap), and a build that outgrows the cap stops and is not tried
again.  Both raise :class:`StateCapError`.  A modulus is served when it is below
2**63 and each of its prime-power factors is; the factors are combined by
the Chinese remainder theorem.

``motzkin_mod_at(n, m)`` answers one index in O(log n) table steps.
``motzkin_mod_indices(m, indices)`` answers an int64 index array, with one
state array and one gather per base-p^k digit of the largest index;
``motzkin_mod_array(m, count)`` runs it on 0, ..., count − 1.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .bulk import checked_indices
# Density and engines call this parser as automaton._integer: the benchmark's
# tracer counts a call by the module that defines the function (classify),
# and parsing an argument is not a classifier call.
from .classify import SetSpec, _integer

if TYPE_CHECKING:
    import numpy as np

# Transition-table entries (states × p) any one prime power may use.  It
# admits every prime power below 64 except 32 and 49.  The states Q·P^r, r < s,
# have distinct lowest exponents -r, so a table holds at least p**a entries.
# The pre-check is stricter: it refuses p**(2a - 1) over the cap.  A build
# costs states · p matvecs of size D², O(s²) for the Q·P^r and O(p**(2a)) for
# the S^d in the matrices; a matvec sums D products below p**(2a), and the
# pre-check keeps p**(2a) · D <= 4096² · 66, far inside int64.  Every prime
# power that fits passes it (27 is the largest, at 243); those it lets through
# that do not fit, 64, 81, 125 and the primes 67 to 79, outgrow the cap during
# their builds (2-vCPU Xeon: 20 ms mod 64).  Every prime from 83 up is refused
# by _one_digit_outputs before any matrix is built (under 5 ms mod 4093).
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
    base: int             # p**k: each step reads k base-p digits of n
    table: "np.ndarray"   # table[state, digit], an int16 state index; state 0 starts
    output: "np.ndarray"  # output[state]: CT[R] or M(r) mod p**a, or 1 on a family's members

    def residue(self, n: int) -> int:
        state = 0
        while n:
            n, digit = divmod(n, self.base)
            state = int(self.table[state, digit])
        return int(self.output[state])

    def residues(self, indices: "np.ndarray") -> "np.ndarray":
        import numpy as np

        n = indices.copy()  # divided in place
        states = np.zeros(n.shape, dtype=np.int16)
        top = int(n.max()) if n.size else 0
        digits = np.empty_like(n)  # reused: two fresh arrays per digit cost a fifth of a chunk
        while top:
            top //= self.base
            np.divmod(n, self.base, out=(n, digits))
            states = self.table[states, digits]
        return self.output[states]


def _digit_matrices(p: int, a: int) -> "tuple[np.ndarray, np.ndarray]":
    """(starts, matrices) mod p**a over the exponent window [-s, s + 1], s = p**(a - 1).

    Row r of ``starts`` holds the coefficients of Q·P^r; ``matrices[d]`` maps
    R to Λ(R·S^d), so its entry [i, j] is S^d's coefficient at p(i − s) − (j − s).
    """
    import numpy as np

    modulus, shift = p**a, p ** (a - 1)
    window = np.arange(2 * shift + 2) - shift
    starts = np.zeros((shift, window.size), dtype=np.int64)
    power = np.ones(1, dtype=np.int64)               # P^r, lowest exponent -r
    for r in range(shift):
        starts[r, shift - r:shift + r + 3] = np.convolve([1, 0, -1], power) % modulus
        power = np.convolve(power, [1, 1, 1]) % modulus
    centre = (p + 1) * shift + 1                    # s_power[centre + e]: S^d at x^e
    read = p * window[:, None] - window + centre
    s_power = np.zeros(read.max() + 1, dtype=np.int64)
    s_power[centre] = 1
    matrices = np.empty((p, window.size, window.size), dtype=np.int64)
    for digit in range(p):
        matrices[digit] = s_power[read]
        low, high = centre - digit * shift, centre + digit * shift + 1  # where S^d is nonzero
        s_power[low - shift:high + shift] = np.convolve(s_power[low:high], power) % modulus
    return starts, matrices


def _digit_machine(base: int, start, successors, output) -> "_Automaton | None":
    """The table of the hashable states ``successors`` reaches from ``start``, in BFS order.

    State 0 is ``start``; ``successors(state)`` lists the states digits
    0, ..., base - 1 lead to, and ``output(state)`` is its answer.  None
    past MAX_TABLE_ENTRIES // base states.
    """
    import numpy as np

    index: "dict[object, int]" = {}
    states: list = []

    def intern(state) -> int:
        if state not in index:
            index[state] = len(states)
            states.append(state)
        return index[state]

    intern(start)
    rows = []
    while len(rows) < len(states) <= MAX_TABLE_ENTRIES // base:
        rows.append([intern(state) for state in successors(states[len(rows)])])
    if len(states) > MAX_TABLE_ENTRIES // base:
        return None
    # Compose the one-digit table with itself: column d + base*D of the next
    # table is column D of the last one, read from the state digit d leads to.
    one_digit = table = np.array(rows, dtype=np.int16)
    while table.size * base <= MAX_GATHER_ENTRIES:
        table = table[one_digit].transpose(0, 2, 1).reshape(len(states), -1)
    machine = _Automaton(table.shape[1], table,
                         np.array([output(state) for state in states], dtype=np.int64))
    for array in (machine.table, machine.output):
        array.flags.writeable = False
    return machine


@lru_cache(maxsize=None)
def _automaton(p: int, a: int) -> _Automaton:
    import numpy as np

    if (p, a) in _REFUSED:
        raise StateCapError(_REFUSED[p, a])
    modulus, shift = p**a, p ** (a - 1)
    machine = None
    if a > 1 or _one_digit_outputs(p) <= MAX_TABLE_ENTRIES // p:
        starts, matrices = _digit_matrices(p, a)

        def state(k: int, r: int):
            """After k low digits worth r: a prefix (k, r) below a - 1 digits, then Q·P^r."""
            return (k, r) if k < a - 1 else starts[r].tobytes()

        def successors(key):
            if isinstance(key, tuple):
                return [state(key[0] + 1, key[1] + d * p ** key[0]) for d in range(p)]
            return [v.tobytes() for v in matrices @ np.frombuffer(key, np.int64) % modulus]

        def output(key):
            vector = starts[key[1]] if isinstance(key, tuple) else np.frombuffer(key, np.int64)
            return vector[shift]

        machine = _digit_machine(p, state(0, 0), successors, output)
    if machine is None:
        _REFUSED[p, a] = (f"the automaton mod {p}^{a} has more than {MAX_TABLE_ENTRIES // p} "
                          f"states, over the cap of {MAX_TABLE_ENTRIES} table entries")
        raise StateCapError(_REFUSED[p, a])
    return machine


def _one_digit_outputs(p: int) -> int:
    """#{M(d) mod p : d <= p - 3}, a lower bound on the states of the table mod p.

    The state digit d leads to from the start outputs M(d) mod p.  The
    recurrence (d + 2)M(d) = (2d + 1)M(d - 1) + 3(d - 1)M(d - 2) runs mod p
    while d + 2 < p is invertible: O(p) steps, no matrix built.
    """
    values, previous, current = {1}, 0, 1
    for d in range(1, p - 2):
        step = (2 * d + 1) * current + 3 * (d - 1) * previous
        previous, current = current, step * pow(d + 2, -1, p) % p
        values.add(current)
    return len(values)


@lru_cache(maxsize=None)
def _spec_machine(spec: SetSpec) -> _Automaton:
    """Outputs 1 on the members n of ``spec``, read off the base-b digits of n.

    It adds -shift to n as it reads: a state is (carry, zeros), zeros the zero
    digits of n - shift so far (capped, but kept mod exp_step), until the first
    nonzero one decides membership for good.  A state outputs its answer if the
    digits left are zeros.  Shifts lie in (-b, 0]: a positive one needs a borrow.
    """
    if not -spec.base < spec.shift <= 0:
        raise ValueError(f"spec machines read shifts in (-base, 0], got {spec.shift}")
    top = spec.first_exponent + spec.exp_step

    def after(state, digit: int):
        if isinstance(state, bool):
            return state
        carry, zeros = state
        carry, digit = divmod(carry + digit, spec.base)
        if digit:
            return (digit == spec.residue and zeros >= spec.first_exponent
                    and (zeros - spec.exp_offset) % spec.exp_step == 0)
        return carry, (zeros + 1 if zeros + 1 < top else zeros + 1 - spec.exp_step)

    return _digit_machine(spec.base, (-spec.shift, 0),
                          lambda state: [after(state, d) for d in range(spec.base)],
                          lambda state: after(state, 0) is True)


@lru_cache(maxsize=None)
def _t01_machine() -> _Automaton:
    """Outputs 1 where every base-3 digit of n is 0 or 1: a digit 2 leaves the start for good."""
    return _digit_machine(3, True, lambda ok: [ok, ok, False], int)


def _prime_powers(modulus: int) -> "list[tuple[int, int]]":
    """[(p, a), ...] with modulus = the product of the p**a, each past the pre-check."""
    modulus = _integer(modulus, "modulus")
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
    n = _integer(n, "index")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    return int(_by_crt(modulus, lambda automaton: automaton.residue(n)))


def motzkin_mod_indices(modulus: int, indices) -> "np.ndarray":
    """M(n) mod ``modulus`` for every n in ``indices``, as an int64 array.

    The indices are checked as :func:`motzkinlab.bulk.checked_indices`
    checks them.  O(len(indices) log max(indices)) work; raises
    :class:`StateCapError` when the modulus is over the cap.
    """
    import numpy as np

    arr = checked_indices(indices)
    residues = _by_crt(modulus, lambda automaton: automaton.residues(arr))
    return np.asarray(residues, dtype=np.int64)


def motzkin_mod_array(modulus: int, count: int) -> "np.ndarray":
    """M(0), ..., M(count - 1) mod ``modulus`` as an int64 array."""
    import numpy as np

    count = _integer(count, "count")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return motzkin_mod_indices(modulus, np.arange(count, dtype=np.int64))
