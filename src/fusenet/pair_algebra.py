"""Pure probability and Pauli-frame algebra over entangled-pair records.

Everything here is a side-effect-free function of its inputs, shared by the
analytic planner and the event-driven simulator. Pairs follow a bit-flip
error model: a pair is either in the canonical correlated state or carries a
single X error, and its fidelity F is the weight of the canonical branch.
Corrections are never applied physically; they accumulate in a Pauli frame
(a pair of classical bits composed by XOR).

The bit algebra of purification and swapping is GF(2), so its kernels
(``purify3_bits``, ``swap_bits``) work on packed ints of any width: bit k
of every argument and of every result belongs to round k. The simulator
folds a whole hop, or a whole chain, per call, and a single round is the
same call on one-bit ints: they are the one implementation of both steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import ConfigurationError, UnsatisfiableError

__all__ = [
    "PauliFrame",
    "FRAMES",
    "IDENTITY_FRAME",
    "Endpoint",
    "PairRecord",
    "LinkModel",
    "check_fidelity",
    "success_probability",
    "failure_prob_multi",
    "min_fusiliers",
    "purify3_analytic",
    "purify3_bits",
    "swap_compose_analytic",
    "swap_bits",
    "chain_fidelity",
]


def check_fidelity(value: float, *, name: str = "fidelity") -> float:
    """Validate a fidelity, warning about the unhelpful F < 0.5 regime.

    Values outside [0, 1] raise; values below 0.5 are legal for every
    operation in this module but purification cannot improve them, so
    validators flag them.
    """
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    if value < 0.5:
        warnings.warn(
            f"{name}={value} is below 0.5; purification cannot improve it",
            stacklevel=4,
        )
    return value


def _check_probability(value: float, *, name: str = "p") -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class PauliFrame:
    """Pending X/Z corrections, tracked classically instead of applied.

    Frames form a group under bitwise XOR: composition is associative,
    every frame is its own inverse, and (0, 0) is the identity.
    """

    x_bit: int = 0
    z_bit: int = 0

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        return FRAMES[self.x_bit ^ other.x_bit][self.z_bit ^ other.z_bit]


# Only four frame values exist, FRAMES[x_bit][z_bit]; interning them keeps
# composition in the simulator's hot loops allocation-free.
FRAMES = tuple(tuple(PauliFrame(x, z) for z in (0, 1)) for x in (0, 1))
IDENTITY_FRAME = FRAMES[0][0]


class Endpoint(NamedTuple):
    """A qubit location: node index plus slot within that node."""

    node: int
    slot: int


@dataclass(slots=True)
class PairRecord:
    """One entangled pair: endpoints, X-error bit, frame, and provenance.

    ``x_error`` is the pair's error relative to the canonical state *after*
    all frame corrections are accounted for; ``frame`` is the pending
    correction that classical messages still have to deliver.
    ``model_fidelity`` is the analytic fidelity the error bit was (or would
    be) sampled from; a run's end-to-end pairs carry the chain's closed
    form, ``network.analytic_end_to_end_fidelity``, the summary's
    ``analytic_end_fidelity``.
    """

    left: Endpoint
    right: Endpoint
    x_error: int
    frame: PauliFrame
    created_at_ns: int
    model_fidelity: float


@dataclass(frozen=True)
class LinkModel:
    """Per-hop link parameters: distance, success probability, raw fidelity.

    The per-signal success probability is either explicit (``p_success``) or
    derived from the attenuation form ``p0 * exp(-length_km / L0_km)``.
    Exactly one of the two parameterizations must be present.
    """

    length_km: float
    p_success: Optional[float] = None
    raw_fidelity: float = 1.0
    p0: Optional[float] = None
    L0_km: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length_km) and self.length_km >= 0):
            raise ConfigurationError(
                f"length_km must be finite and >= 0, got {self.length_km!r}"
            )
        explicit = self.p_success is not None
        attenuated = self.p0 is not None or self.L0_km is not None
        if explicit and attenuated:
            raise ConfigurationError(
                "give either p_success or (p0, L0_km), not both"
            )
        if not explicit:
            if self.p0 is None or self.L0_km is None:
                raise ConfigurationError(
                    "give either p_success or both of (p0, L0_km)"
                )
            _check_probability(self.p0, name="p0")
            if not (math.isfinite(self.L0_km) and self.L0_km > 0):
                raise ConfigurationError(
                    f"L0_km must be finite and > 0, got {self.L0_km!r}"
                )
        else:
            _check_probability(self.p_success, name="p_success")
        check_fidelity(self.raw_fidelity, name="raw_fidelity")


def success_probability(model: LinkModel) -> float:
    """Per-signal entanglement success probability of a link."""
    if model.p_success is not None:
        return model.p_success
    return model.p0 * math.exp(-model.length_km / model.L0_km)


def failure_prob_multi(n: int, m: int, p: float) -> float:
    """Probability that fewer than ``m`` of ``n`` attempts succeed.

    This is the lower binomial tail P[successes <= m-1] for n Bernoulli(p)
    trials, evaluated by direct summation. Double precision is ample at the
    scales used here; the smallest contributing terms are far above
    underflow. At m = 1 it is exactly (1-p)**n, the chance that none succeed.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n!r}")
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m!r}")
    if m > n:
        raise ConfigurationError(
            f"cannot fill m={m} receiver slots with only n={n} signals"
        )
    _check_probability(p)
    q = 1.0 - p
    return math.fsum(
        math.comb(n, k) * p**k * q ** (n - k) for k in range(m)
    )


def min_fusiliers(m: int, p: float, target_pf: float) -> int:
    """Smallest fusillade size n >= m with failure probability below target.

    Uses the strict inequality failure_prob_multi(n, m, p) < target_pf.
    Monotone non-decreasing in m and in 1/target_pf.

    The tail falls as n grows, so the search gallops up from n = m in
    steps 1, 2, 4, ... and then bisects: O(log n) tail evaluations, and
    the same n as scanning n = m, m + 1, ... for the first tail below
    target. A tail that overflows a float marks n as past the answer,
    because comb(n, k) only grows with n; when the answer's own tail
    overflows, where the scan would meet ``OverflowError``, it raises
    ``ConfigurationError`` naming m and p, so no ``OverflowError`` escapes.
    A p at or below the float resolution (1 - p rounds to 1) makes the
    float tail at least 1 at every n and raises ``ConfigurationError``.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m!r}")
    if not 0.0 < target_pf < 1.0:
        raise ConfigurationError(
            f"target_pf must lie in (0, 1), got {target_pf!r}"
        )
    _check_probability(p)
    if p == 0.0:
        raise UnsatisfiableError(
            "p=0 signals never succeed, no fusillade size works"
        )
    if 1.0 - p == 1.0:
        raise ConfigurationError(
            f"p={p!r} is at or below the float resolution 2**-54: 1 - p "
            "rounds to 1, so the float binomial tail never falls below target"
        )
    overflow_from = math.inf  # the smallest n seen whose tail overflows

    def past_answer(n: int) -> bool:
        nonlocal overflow_from
        try:
            return failure_prob_multi(n, m, p) < target_pf
        except OverflowError:
            overflow_from = min(overflow_from, n)
            return True

    # Invariant: the tail at lo is >= target_pf (at m - 1 it is 1 by
    # convention), and hi is past the answer.
    lo, hi = m - 1, m
    while not past_answer(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if past_answer(mid):
            hi = mid
        else:
            lo = mid
    if hi >= overflow_from:
        raise ConfigurationError(
            f"m={m}, p={p}: the float binomial tail overflows; "
            "the planner cannot size this query yet"
        )
    return hi


def purify3_analytic(fidelity: float) -> float:
    """Fidelity after consuming three pairs of fidelity F: F^3 + 3F^2(1-F).

    Fixed points at 0, 0.5, and 1; strictly improving on (0.5, 1).
    """
    return fidelity**3 + 3.0 * fidelity**2 * (1.0 - fidelity)


def purify3_bits(
    x_error: int,
    tx_parity_12: int,
    tx_parity_23: int,
    rx_parity_12: int,
    rx_parity_23: int,
    tx_x2: int,
    tx_x3: int,
    rx_x2: int,
    rx_x3: int,
) -> tuple[int, int, int]:
    """Purification rounds packed one per bit: (kept x_error, frame X, frame Z).

    ``x_error`` holds the kept (first) pair's error bits; the other
    arguments are the measured bits, taken as given: the parities of pairs
    1,2 and 2,3 on the transmitting and the receiving side, then the X
    readouts of the second and third qubit on each side. The syndromes are
    the XOR of transmit- and receive-side parities, and the decoder flips
    the kept pair's error only where it blames pair 1, syndrome (1, 0). The
    four parity bits combine into the round's X frame delta and the four X
    readouts into its Z delta; the convention is internal, only
    self-consistency of the XOR algebra is relied on.
    """
    syndrome_12 = tx_parity_12 ^ rx_parity_12
    syndrome_23 = tx_parity_23 ^ rx_parity_23
    return (
        x_error ^ (syndrome_12 & ~syndrome_23),
        syndrome_12 ^ syndrome_23,
        tx_x2 ^ tx_x3 ^ rx_x2 ^ rx_x3,
    )


def swap_compose_analytic(f1: float, f2: float) -> float:
    """Fidelity after swapping two pairs: independent error bits XOR.

    F12 = F1*F2 + (1-F1)(1-F2); equivalently the biases g = 2F-1 multiply.
    """
    return f1 * f2 + (1.0 - f1) * (1.0 - f2)


def swap_bits(
    left_error: int,
    right_error: int,
    left_x: int,
    left_z: int,
    right_x: int,
    right_z: int,
    parity_outcome: int,
    x_outcome: int,
) -> tuple[int, int, int]:
    """Swaps packed one per bit: (spanning x_error, frame X, frame Z).

    The error bits XOR; the spanning frame composes both frames with the
    parity-gate outcome as its X bit and the X-basis readout as its Z bit.
    """
    return (
        left_error ^ right_error,
        left_x ^ right_x ^ parity_outcome,
        left_z ^ right_z ^ x_outcome,
    )


def chain_fidelity(hop_fidelities: Sequence[float]) -> float:
    """Closed form for iterated swap composition: (1 + prod(2F - 1)) / 2.

    Equals a fold of swap_compose_analytic in any association order.
    """
    if len(hop_fidelities) == 0:
        raise ConfigurationError("chain_fidelity needs at least one hop")
    bias = 1.0
    for f in hop_fidelities:
        bias *= 2.0 * f - 1.0
    return (1.0 + bias) / 2.0
