"""Shared domain types: monitored time series, SLA specifications, the
utility function used by the decision loop, the seed derivation of the
seeded commands and harnesses, and the argument rules.

A seeded command or harness gives each of its parts (a run, a question) a
seed of its own, the first word NumPy's ``SeedSequence([seed, key])``
generates for the part's key. ``subseeds`` computes that hash for all the
keys at once, as uint32 array arithmetic. ``generator_states`` takes the
same hash to the PCG64 state that ``np.random.default_rng(run_seed)``
starts in, for all run seeds at once, so a harness can draw each run's
numbers from one reused generator set to its state.

``check_integer`` (with ``check_size``, its rule for a size, and
``integer_array``, its rule entry by entry), ``check_real`` (finite,
optionally bounded below) and ``check_array`` (finite integer or real
float entries in a stated number of axes; ``real_array`` lets non-finite
ones pass) are the only code that writes the rule for an integer, real or
array argument, and each error they raise starts with the argument's name.
``_csv_lines`` gives the line on which each CSV record starts, for the
trace and history readers' errors.

All types are immutable value objects after construction and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "Direction",
    "SlaSpec",
    "UtilityParams",
    "utility",
    "order_specs_by_reward",
    "subseeds",
    "generator_states",
    "check_integer",
    "check_size",
    "check_real",
    "integer_array",
    "real_array",
    "check_array",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled observations of one monitored quantity.

    ``values`` are in whatever unit the monitored specification uses
    (seconds, joules, ...). The series does not store its sampling period:
    the decision loop's is ``rank_tactics``' ``tick_seconds``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", check_array("values", self.values))

    def __len__(self) -> int:
        return int(self.values.size)

    def tail(self, n: int) -> np.ndarray:
        """The last ``n`` observations (``n`` may be 0)."""
        if not 0 <= n <= len(self):
            raise ValueError(f"cannot take the last {n} of {len(self)} observations")
        return self.values[len(self) - n:]


class Direction(enum.Enum):
    """Which side of the threshold violates the requirement."""

    UPPER_BOUND = "upper"
    LOWER_BOUND = "lower"


@dataclass(frozen=True)
class SlaSpec:
    """One monitored requirement: threshold plus its penalty and reward.

    ``reward`` orders requirements (highest handled first); ``penalty`` is
    carried for callers that account for violations but is not part of the
    utility computation. A zero ``threshold`` is allowed; the decision
    loop's risk band is a fraction of |threshold| wide, so it then has
    width 0 and "at risk" means that a forecast step violates.
    """

    name: str
    threshold: float
    direction: Direction = Direction.UPPER_BOUND
    penalty: float = 0.0
    reward: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec name must be non-empty")
        check_real("threshold", self.threshold)
        check_real("penalty", self.penalty, 0)
        check_real("reward", self.reward, 0)


@dataclass(frozen=True)
class UtilityParams:
    """Inputs to the reward/penalty utility of the hosting-service scenario.

    tau: interval length in seconds.
    rate: average request rate a (requests/second).
    response_time: average response time r (seconds).
    target: target response time T (seconds).
    max_rate: maximum serviceable request rate k (requests/second).
    dimmer: fraction d of responses carrying optional content, in [0, 1].
    reward_optional / reward_mandatory: per-response rewards R_O and R_M.
    cost: execution cost C, strictly positive (utility divides by it).
    """

    tau: float
    rate: float
    response_time: float
    target: float
    max_rate: float
    dimmer: float
    reward_optional: float
    reward_mandatory: float
    cost: float

    def __post_init__(self) -> None:
        for name, least, strict in (
                ("tau", 0, True), ("rate", 0, False), ("response_time", None, False),
                ("target", None, False), ("max_rate", 0, False), ("dimmer", 0, False),
                ("reward_optional", None, False), ("reward_mandatory", None, False),
                ("cost", 0, True)):  # utility divides by cost
            check_real(name, getattr(self, name), least, strict)
        if self.dimmer > 1:
            raise ValueError("dimmer must lie in [0, 1]")


def utility(p: UtilityParams) -> float:
    """Utility accrued over one interval, cost-normalised.

    Within target (r <= T) the system earns tau*a*(d*R_O + (1-d)*R_M)/C;
    past target it forfeits tau*min(0, a-k)*R_O/C, which is 0 whenever the
    request rate is at or above capacity.
    """
    if p.response_time <= p.target:
        earned = p.tau * p.rate * (p.dimmer * p.reward_optional
                                   + (1.0 - p.dimmer) * p.reward_mandatory)
        return earned / p.cost
    return p.tau * min(0.0, p.rate - p.max_rate) * p.reward_optional / p.cost


def order_specs_by_reward(specs: Sequence[SlaSpec]) -> list[SlaSpec]:
    """Specs sorted by descending reward; ties keep their input order."""
    return sorted(specs, key=lambda s: s.reward, reverse=True)


# The constants of NumPy's SeedSequence hash (its mix_entropy and generate_state).
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905) and modulus mask.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MASK = (1 << 128) - 1


def _words(name: str, values: Iterable[int]) -> np.ndarray:
    """``integer_array(name, values, 0)`` as uint32, each entry below 2**32."""
    words = integer_array(name, values, 0)
    if words.size and words.max() > _WORD:
        raise ValueError(f"{name} must be < 2**32")
    return words.astype(np.uint32)


def _seed_hash(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """NumPy's ``SeedSequence(words).generate_state(n_words)`` for each
    column of ``entropy``, the entropy's 32-bit words least significant
    first: ``n_words`` uint32 arrays of the columns' shape, each array one
    output word. Every word wraps as the C hash does; only the hash
    constant is a Python int."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _WORD
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_WORDS] ^ hash_const
        hash_const = hash_const * _MULT_B & _WORD
        value = value * hash_const
        out.append(value ^ value >> 16)
    return out


def subseeds(seed: int, keys: Iterable[int]) -> list[int]:
    """The seed of each of ``keys`` under ``seed``, each independent of any
    other key's: NumPy's ``SeedSequence([seed, key]).generate_state(1)[0]``
    bit for bit, for all keys in one pass of uint32 array arithmetic.
    ``seed`` follows the integer rule, at least 0 and of any size; the keys
    ``integer_array``'s, at least 0 and below 2**32."""
    check_integer("seed", seed, 0)
    key_words = _words("keys", keys)
    seed = int(seed)
    # The entropy: the seed's 32-bit words, least significant first, then
    # the key's one word.
    entropy = [np.full(key_words.shape, seed >> shift & _WORD, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    return _seed_hash(entropy + [key_words], 1)[0].tolist()


def generator_states(seeds: Iterable[int]) -> list[dict]:
    """The ``bit_generator.state`` that ``np.random.default_rng(s)`` starts
    in, for each seed ``s`` of ``seeds``: ``integer_array``'s rule with
    least value 0, each seed below 2**32. A ``Generator`` whose PCG64 is
    set to one of them draws what ``default_rng(s)`` draws, bit for bit.

    ``SeedSequence(s).generate_state(4, uint64)``, all seeds in one pass of
    the ``subseeds`` hash, gives the words (initstate_hi, initstate_lo,
    initseq_hi, initseq_lo), and PCG64's seeding takes them to
    inc = (initseq << 1) | 1 and
    state = ((inc + initstate) * multiplier + inc) mod 2**128."""
    words = [word.astype(np.uint64) for word in _seed_hash([_words("seeds", seeds)], 8)]
    # The four uint64 words: each pair of uint32 words, the first the low half.
    wide = [(words[k] | words[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*wide):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _PCG64_MASK
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _PCG64_MASK
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def check_integer(name: str, value: object, least: int) -> None:
    """The rule for an integer argument: ``value`` must be an ``Integral``
    that is not a bool (else ``TypeError``) and at least ``least`` (else
    ``ValueError``); either error names the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_size(name: str, value: object) -> None:
    """``check_integer``'s rule with least value 1 for a size, which must
    also be below 2**63, as an ``integer_array`` entry (else ``ValueError``
    naming the argument ``name``)."""
    check_integer(name, value, 1)
    if value >= 2**63:
        raise ValueError(f"{name} must be < 2**63")


def check_real(name: str, value: object, least: float | None = None,
               strict: bool = False) -> None:
    """The rule for a real argument: ``value`` must be a ``Real`` that is
    not a bool (else ``TypeError``) and finite (else ``ValueError``). With a
    bound ``least``, it must also be >= ``least`` (> when ``strict``), and a
    NaN, an infinity or a value out of bounds gets one ``ValueError``.
    Either error names the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if least is None:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    elif not (math.isfinite(value) and (value > least if strict else value >= least)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {least}, "
                         f"got {value!r}")


def integer_array(name: str, values: Iterable, least: int) -> np.ndarray:
    """``check_integer``'s rule for each entry of ``values``, an ndarray or
    any iterable, in one axis: an entry must be an integer that is not a
    bool (else ``TypeError``), at least ``least`` and below 2**63 (else
    ``ValueError``). Each error names the argument ``name``. Returns an
    intp copy."""
    try:
        # No entry of an ndarray or a range is a bool unless all are.
        items = None if isinstance(values, (np.ndarray, range)) else list(values)
        if isinstance(values, range) and max(map(abs, (values.start, values.stop,
                                                           values.step))) < 2**63:
            arr = np.arange(values.start, values.stop, values.step)
        else:
            arr = np.array(values if items is None else items)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be a sequence of integers") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got {arr.ndim}-D")
    if not arr.size:
        return arr.astype(np.intp)
    # NumPy holds an integer beyond 64 bits as an object; the bound below rejects it.
    if arr.dtype.kind not in "iu" and not (
            arr.dtype.kind == "O" and all(type(value) is int for value in arr.tolist())):
        raise TypeError(f"{name} must be integers, got an array of {arr.dtype}")
    # NumPy infers integers for a list that mixes ints and bools.
    for value in items or ():
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} must be integers, got {value!r}")
    if arr.min() < least:
        raise ValueError(f"{name} must be >= {least}")
    if arr.max() > np.iinfo(np.intp).max:
        raise ValueError(f"{name} must be < 2**63")
    return arr.astype(np.intp, copy=False)


def real_array(name: str, values: Iterable, ndim: int = 1) -> np.ndarray:
    """``check_array``'s rule without its finite half: a float copy of
    ``values`` that may hold NaN and infinite entries."""
    try:
        arr = np.array(values if isinstance(values, np.ndarray) else list(values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of real numbers: got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got {arr.ndim}-D")
    return arr.astype(float, copy=False)


def check_array(name: str, values: Iterable, ndim: int = 1) -> np.ndarray:
    """The rule for an array argument: ``values``, an ndarray or any
    iterable (a generator too), must hold integers or real floats in
    ``ndim`` axes, all finite, else ``ValueError`` naming the argument
    ``name``. The dtype of an ndarray, or the one NumPy infers for
    ``list(values)``, decides: bool, complex, string, bytes and object
    entries (an integer beyond 64 bits infers object) fail, but NumPy
    infers floats for a list that mixes floats and bools, so each such
    bool reads as 0.0 or 1.0. Returns a read-only float copy."""
    arr = real_array(name, values, ndim)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    arr.flags.writeable = False
    return arr


def _csv_lines(rows: Sequence[Sequence[str]]) -> list[int]:
    """The line, counted from 1 as ``csv.reader`` counts them, on which each
    of ``rows`` starts, where ``rows`` are all of a file's records read with
    ``newline=""``: a record takes one line, plus one per line break (``\\n``,
    ``\\r`` or ``\\r\\n``) inside its quoted fields."""
    line, lines = 1, []
    for row in rows:
        lines.append(line)
        text = "\0".join(row)  # a separator, so no break spans two fields
        line += 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
    return lines
