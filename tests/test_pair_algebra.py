"""Pair algebra: probabilities, purification, swap composition.

Expected values are frozen from independent oracles: 2^n enumeration for
binomial tails, repeated squaring for powers, scipy's binomial CDF as a
cross-check at sizes where enumeration is infeasible, and exhaustive
error-pattern enumeration for the purification decoder.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from fusenet.errors import ConfigurationError, UnsatisfiableError
from fusenet.metrics import PlanRow, plan_table
from fusenet.pair_algebra import (
    IDENTITY_FRAME,
    LinkModel,
    PauliFrame,
    chain_fidelity,
    failure_prob_multi,
    min_fusiliers,
    purify3_analytic,
    purify3_bits,
    purify3_kept_fidelity,
    success_probability,
    swap_bits,
    swap_compose_analytic,
)

from conftest import deadline


def enumerated_failure_prob(n, m, p):
    """Oracle: walk all 2^n outcome strings, weight each by p^k (1-p)^(n-k)."""
    q = 1.0 - p
    counts = [0] * (n + 1)
    for bits in range(2**n):
        counts[bits.bit_count()] += 1
    return math.fsum(counts[k] * p**k * q ** (n - k) for k in range(m))


def linear_scan_row(m, p, target):
    """Oracle: the plan row of the first n = m, m + 1, ... whose tail is below target."""
    n = m
    while failure_prob_multi(n, m, p) >= target:
        n += 1
    pf_prev = failure_prob_multi(n - 1, m, p) if n - 1 >= m else 1.0
    return PlanRow(m, p, target, n, failure_prob_multi(n, m, p), pf_prev, n * p)


# The 38 planner queries of perfbench's plan_grid workload.
PLAN_GRID = [
    (m, p, target)
    for m in (1, 3, 10, 30, 100, 200)
    for p in (0.5, 0.25, 0.1, 0.05)
    for target in (1e-2, 1e-6)
    if p >= {100: 0.25, 200: 0.5}.get(m, 0.0)
]

# Rows whose search passes an n with an overflowing tail before it settles:
# a gallop that stopped at the first overflow would raise on each of them.
# The values are the linear scan's.
OVERSHOOT_ROWS = [
    PlanRow(250, 0.25, 1e-06, 1286, 9.595422240821552e-07, 1.034028459714672e-06, 321.5),
    PlanRow(300, 0.25, 0.01, 1345, 0.009679910127108622, 0.010082644216272384, 336.25),
    PlanRow(350, 0.4, 0.01, 962, 0.009801035800453857, 0.010486763269036359, 384.8),
    PlanRow(400, 0.5, 1e-06, 945, 9.75245202544657e-07, 1.1321116952959399e-06, 472.5),
]


class TestSuccessProbability:
    def test_explicit_passthrough(self):
        assert success_probability(LinkModel(length_km=5, p_success=0.25)) == 0.25

    def test_zero_length_attenuated(self):
        model = LinkModel(length_km=0.0, p0=0.25, L0_km=25.0)
        assert success_probability(model) == 0.25

    def test_one_attenuation_length(self):
        # 0.5 * exp(-1), evaluated independently with a high-precision tool
        model = LinkModel(length_km=25.0, p0=0.5, L0_km=25.0)
        assert success_probability(model) == pytest.approx(
            0.18393972058572117, abs=1e-15
        )

    def test_both_parameterizations_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkModel(length_km=1, p_success=0.5, p0=0.5, L0_km=25.0)

    def test_incomplete_parameterization_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkModel(length_km=1, p0=0.5)
        with pytest.raises(ConfigurationError):
            LinkModel(length_km=1)

    def test_non_finite_lengths_rejected(self):
        for length in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="length_km"):
                LinkModel(length_km=length, p_success=0.5)
        with pytest.raises(ConfigurationError, match="L0_km"):
            LinkModel(length_km=1, p0=0.5, L0_km=math.nan)

    def test_low_fidelity_flagged(self):
        with pytest.warns(UserWarning, match="below 0.5") as caught:
            LinkModel(length_km=1, p_success=0.5, raw_fidelity=0.3)
        # the warning names the line that built the link, not the dataclass
        assert [w.filename for w in caught] == [__file__]


class TestFailureProbSingle:
    """The single-receiver case, m = 1: no signal of n succeeds."""

    def test_sixteen_at_quarter(self):
        # 0.75^16 via repeated squaring: 0.75^2=0.5625, ^4, ^8, ^16
        assert failure_prob_multi(16, 1, 0.25) == pytest.approx(
            0.010022595757618546, abs=1e-15
        )

    def test_certain_success(self):
        assert failure_prob_multi(1, 1, 1.0) == 0.0

    def test_never_succeeds(self):
        assert failure_prob_multi(5, 1, 0.0) == 1.0

    def test_zero_fusiliers_rejected(self):
        with pytest.raises(ConfigurationError):
            failure_prob_multi(0, 1, 0.5)


class TestFailureProbMulti:
    def test_reduces_to_single_at_m1(self):
        for n in range(1, 65):
            for p in [k / 10 for k in range(11)]:
                assert failure_prob_multi(n, 1, p) == (1.0 - p) ** n

    def test_two_term_case(self):
        # 0.75^24 + 24 * 0.25 * 0.75^23
        assert failure_prob_multi(24, 2, 0.25) == pytest.approx(
            0.009030521497980004, abs=1e-15
        )

    def test_matches_enumeration_small(self):
        for n in (1, 3, 6, 10):
            for m in range(1, n + 1):
                for p in (0.1, 0.25, 0.5):
                    assert failure_prob_multi(n, m, p) == pytest.approx(
                        enumerated_failure_prob(n, m, p), abs=1e-12
                    )

    def test_matches_scipy_large(self):
        # independent cross-oracle where 2^n enumeration is infeasible
        for n, m in [(70, 10), (485, 100), (486, 100)]:
            assert failure_prob_multi(n, m, 0.25) == pytest.approx(
                float(binom.cdf(m - 1, n, 0.25)), rel=1e-12
            )

    def test_headline_resource_pairs_in_band(self):
        for n, m in [(16, 1), (24, 2), (70, 10), (485, 100)]:
            pf = failure_prob_multi(n, m, 0.25)
            assert 0.005 <= pf <= 0.0155

    def test_more_receivers_than_signals_rejected(self):
        with pytest.raises(ConfigurationError):
            failure_prob_multi(4, 5, 0.5)

    def test_certain_success_fills_all(self):
        assert failure_prob_multi(8, 8, 1.0) == 0.0


class TestMinFusiliers:
    def test_single_receiver_needs_17(self):
        # 0.75^17 < 0.01 <= 0.75^16 under the strict inequality
        n = min_fusiliers(1, 0.25, 0.01)
        assert n == 17
        assert failure_prob_multi(17, 1, 0.25) < 0.01 <= failure_prob_multi(16, 1, 0.25)

    def test_two_receivers_need_24(self):
        n = min_fusiliers(2, 0.25, 0.01)
        assert n == 24
        assert failure_prob_multi(24, 2, 0.25) < 0.01 <= failure_prob_multi(23, 2, 0.25)

    def test_single_shot_when_certain(self):
        assert min_fusiliers(1, 1.0, 0.5) == 1

    def test_p_zero_unsatisfiable(self):
        with pytest.raises(UnsatisfiableError):
            min_fusiliers(1, 0.0, 0.01)

    def test_target_out_of_range(self):
        with pytest.raises(ConfigurationError):
            min_fusiliers(1, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            min_fusiliers(1, 0.5, 0.0)

    @given(
        m=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.01, max_value=1.0),
        target=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_property(self, m, p, target):
        n = min_fusiliers(m, p, target)
        assert n >= m
        assert failure_prob_multi(n, m, p) < target
        if n - 1 >= m:
            assert failure_prob_multi(n - 1, m, p) >= target
        assert plan_table([m], p, target) == [linear_scan_row(m, p, target)]

    def test_plan_grid_rows_equal_linear_scan(self):
        assert len(PLAN_GRID) == 38
        for m, p, target in PLAN_GRID:
            assert plan_table([m], p, target) == [linear_scan_row(m, p, target)]

    @pytest.mark.parametrize("row", OVERSHOOT_ROWS, ids=lambda row: f"m{row.m}")
    def test_overflow_past_the_answer_is_not_raised(self, row):
        with deadline(1.0):
            assert plan_table([row.m], row.p, row.target_pf) == [row]

    def test_overflowing_answer_raises_at_once(self):
        with deadline(1.0), pytest.raises(OverflowError):
            plan_table([300], 0.25, 1e-4)

    def test_tiny_p_sized_at_once(self):
        with deadline(1.0):
            n = min_fusiliers(1, 1e-9, 0.01)
        assert failure_prob_multi(n, 1, 1e-9) < 0.01 <= failure_prob_multi(n - 1, 1, 1e-9)
        # The float tail (1 - p)**n puts n at 4605170314, 130 above the exact answer.
        exact = math.ceil(math.log(0.01) / math.log1p(-1e-9))
        assert exact == 4605170184
        assert n == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("p", [1e-17, 2.0**-54])
    def test_p_below_float_resolution_rejected(self, m, p):
        with deadline(1.0), pytest.raises(
            ConfigurationError, match=rf"^p={p!r} is at or below the float resolution 2\*\*-54"
        ):
            min_fusiliers(m, p, 0.01)

    def test_p_at_float_resolution_sized(self):
        # 1 - 2**-53 is the float just below 1, so this tail does fall
        with deadline(1.0):
            n = min_fusiliers(1, 2.0**-53, 0.01)
        assert failure_prob_multi(n, 1, 2.0**-53) < 0.01 <= failure_prob_multi(n - 1, 1, 2.0**-53)

    def test_per_receiver_cost_shrinks(self):
        ratios = [min_fusiliers(m, 0.25, 0.01) / m for m in (1, 2, 10, 100)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert all(r >= 1 / 0.25 for r in ratios)


class TestPurifyAnalytic:
    def test_headline_gain(self):
        assert purify3_analytic(0.95) == pytest.approx(0.99275, abs=1e-12)
        assert purify3_analytic(0.95) >= 0.99

    def test_fixed_points(self):
        for f in (0.0, 0.5, 1.0):
            assert purify3_analytic(f) == pytest.approx(f, abs=1e-15)

    @given(f=st.floats(min_value=0.5 + 1e-9, max_value=1.0 - 1e-9))
    @settings(max_examples=80, deadline=None)
    def test_strict_improvement_above_half(self, f):
        # the gain F(2F-1)(1-F) vanishes below float resolution within
        # ~1e-16 of the fixed points, so test outside that neighborhood
        assert purify3_analytic(f) > f

    @given(f=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_only_three_fixed_points(self, f):
        if abs(purify3_analytic(f) - f) < 1e-12:
            assert min(abs(f - 0.0), abs(f - 0.5), abs(f - 1.0)) < 1e-4


# Reference decoder: the pair (1, 2 or 3; None for no error) that the
# minimal-weight explanation of the syndromes (s12, s23) blames.
_DECODE = {(0, 0): None, (1, 0): 1, (1, 1): 2, (0, 1): 3}


class TestPurifyDecode:
    def test_table(self):
        # purify3_bits flips the kept pair's error exactly where the
        # reference blames pair 1
        for (s12, s23), blamed in _DECODE.items():
            assert purify3_bits(0, 0, 0, s12, s23, 0, 0, 0, 0)[0] == (blamed == 1)

    def test_single_error_explanations(self):
        # each single-error pattern maps back to the erroneous pair
        for errors, blamed in [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3), ((0, 0, 0), None)]:
            e1, e2, e3 = errors
            assert _DECODE[(e1 ^ e2, e2 ^ e3)] == blamed


def _measurements_for(errors, coins=(0, 0, 0, 0, 0, 0)):
    """The measured bits of a round on error pattern ``errors``, in
    ``purify3_bits`` order: receive-side parities follow the true syndrome."""
    tx12, tx23, tx_x2, tx_x3, rx_x2, rx_x3 = coins
    e1, e2, e3 = errors
    return (tx12, tx23, tx12 ^ e1 ^ e2, tx23 ^ e2 ^ e3, tx_x2, tx_x3, rx_x2, rx_x3)


def _kept_error(errors, coins=(0, 0, 0, 0, 0, 0)):
    return purify3_bits(errors[0], *_measurements_for(errors, coins))[0]


def _patterns(f1, f2, f3):
    """The 8 error patterns of three pairs, with their probabilities."""
    for k in range(8):
        errors = (k & 1, k >> 1 & 1, k >> 2 & 1)
        weight = math.prod((1.0 - f) if e else f for e, f in zip(errors, (f1, f2, f3)))
        yield errors, weight


class TestPurifyApply:
    """One purification round as the simulator applies it: ``purify3_bits``
    for the bits, ``purify3_kept_fidelity`` for the model fidelity."""

    def test_no_error_keeps_clean_pair(self):
        assert purify3_bits(0, *_measurements_for((0, 0, 0))) == (0, 0, 0)

    def test_error_on_kept_pair_corrected(self):
        assert _kept_error((1, 0, 0)) == 0

    def test_double_error_miscorrects(self):
        # (1,1,0) produces the syndrome of pair 3: a logical error survives
        assert _kept_error((1, 1, 0)) == 1

    def test_residual_over_all_patterns_matches_analytic(self):
        # exhaustive weighting of the 8 patterns reproduces 1 - F', and the
        # kept fidelity of unequal inputs too
        for fids in [(f, f, f) for f in (0.8, 0.9, 0.95)] + [(0.9, 0.8, 0.7), (0.6, 0.99, 0.85)]:
            residual = math.fsum(
                weight * _kept_error(errors) for errors, weight in _patterns(*fids)
            )
            assert residual == pytest.approx(1.0 - purify3_kept_fidelity(*fids), abs=1e-12)
            if len(set(fids)) == 1:
                assert residual == pytest.approx(1.0 - purify3_analytic(fids[0]), abs=1e-12)

    def test_kept_model_fidelity_equal_inputs(self):
        assert purify3_kept_fidelity(0.95, 0.95, 0.95) == pytest.approx(
            purify3_analytic(0.95), abs=1e-12
        )

    def test_frame_composes_measurement_bits(self):
        _, frame_x, frame_z = purify3_bits(0, *_measurements_for((0, 0, 0), coins=(1, 0, 1, 1, 0, 1)))
        # parity bits feed x, the four X readouts feed z
        assert frame_x == 1 ^ 0 ^ 1 ^ 0
        assert frame_z == 1 ^ 1 ^ 0 ^ 1

    def test_monte_carlo_residual_rate(self):
        # smoke-scale, one round per call; the acceptance suite runs 1e6
        # triples packed into one call
        f = 0.9
        n = 100_000
        rng = np.random.default_rng(12)
        errors = (rng.random((n, 3)) < 1.0 - f).astype(int)
        failures = sum(_kept_error(row) for row in errors.tolist())
        expected = 1.0 - purify3_analytic(f)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(failures / n - expected) <= 4 * se


def _columns(inputs, width):
    """Pack input k's bit j into bit k of column j, for ``width`` bits each."""
    return [sum(((k >> j) & 1) << k for k in range(inputs)) for j in range(width)]


class TestPurifyBits:
    """The packed kernel against the reference decode, on every input."""

    @staticmethod
    def reference(e1, meas):
        tx12, tx23, rx12, rx23, tx_x2, tx_x3, rx_x2, rx_x3 = meas
        kept = e1 ^ (_DECODE[(tx12 ^ rx12, tx23 ^ rx23)] == 1)
        return kept, tx12 ^ tx23 ^ rx12 ^ rx23, tx_x2 ^ tx_x3 ^ rx_x2 ^ rx_x3

    def test_all_inputs_packed_and_scalar(self):
        # input k: bits 0-2 are the three error bits, bits 3-10 the eight
        # measured bits in purify3_bits order
        inputs = 2**11
        e1, _, _, *meas_columns = _columns(inputs, 11)
        packed = purify3_bits(e1, *meas_columns)
        for k in range(inputs):
            meas = [(k >> j) & 1 for j in range(3, 11)]
            expected = self.reference(k & 1, meas)
            assert tuple((column >> k) & 1 for column in packed) == expected
            assert purify3_bits(k & 1, *meas) == expected


class TestSwapBits:
    """The packed kernel against frame composition, on every input."""

    def test_all_inputs_packed_and_scalar(self):
        # input k: bits are (left error, right error, left X, left Z,
        # right X, right Z, parity outcome, X outcome)
        inputs = 2**8
        packed = swap_bits(*_columns(inputs, 8))
        for k in range(inputs):
            el, er, lx, lz, rx, rz, parity, x_out = ((k >> j) & 1 for j in range(8))
            frame = PauliFrame(lx, lz).compose(PauliFrame(rx, rz)).compose(PauliFrame(parity, x_out))
            expected = (el ^ er, frame.x_bit, frame.z_bit)
            assert tuple((column >> k) & 1 for column in packed) == expected
            assert swap_bits(el, er, lx, lz, rx, rz, parity, x_out) == expected


class TestSwap:
    def test_perfect_link_is_identity(self):
        for f in (0.0, 0.3, 0.7, 1.0):
            assert swap_compose_analytic(1.0, f) == pytest.approx(f, abs=1e-15)

    def test_two_95s(self):
        assert swap_compose_analytic(0.95, 0.95) == pytest.approx(0.905, abs=1e-12)

    def test_half_is_absorbing(self):
        for f in (0.0, 0.25, 0.8, 1.0):
            assert swap_compose_analytic(0.5, f) == pytest.approx(0.5, abs=1e-15)

    # swap_bits(left error, right error, left X, left Z, right X, right Z,
    # parity outcome, X outcome) -> (error, frame X, frame Z)
    def test_apply_clean(self):
        assert swap_bits(0, 0, 0, 0, 0, 0, 0, 0) == (0, 0, 0)

    def test_apply_xors_errors(self):
        assert swap_bits(1, 0, 0, 0, 0, 0, 0, 0)[0] == 1
        assert swap_bits(1, 1, 0, 0, 0, 0, 0, 0)[0] == 0

    def test_apply_composes_frames_and_outcomes(self):
        # left frame (1, 0), right frame (0, 1), both outcomes 1
        assert swap_bits(0, 0, 1, 0, 0, 1, 1, 1) == (0, 1 ^ 0 ^ 1, 0 ^ 1 ^ 1)

    def test_fidelity_is_weight_of_clean_outcomes(self):
        # the model fidelity of a swap is the weight of its error-free outcomes
        for f1, f2 in ((0.9, 0.8), (0.95, 0.95), (0.6, 1.0)):
            clean = math.fsum(
                (f1 if el == 0 else 1.0 - f1) * (f2 if er == 0 else 1.0 - f2)
                for el in (0, 1)
                for er in (0, 1)
                if swap_bits(el, er, 0, 0, 0, 0, 0, 0)[0] == 0
            )
            assert swap_compose_analytic(f1, f2) == pytest.approx(clean, abs=1e-15)


class TestChainFidelity:
    def test_perfect(self):
        assert chain_fidelity([1.0, 1.0, 1.0]) == 1.0

    def test_matches_pairwise(self):
        assert chain_fidelity([0.95, 0.95]) == pytest.approx(
            swap_compose_analytic(0.95, 0.95), abs=1e-15
        )

    def test_three_hops(self):
        assert chain_fidelity([0.9, 0.8, 0.7]) == pytest.approx(0.596, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_fidelity([])

    @given(
        fids=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=7)
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_any_fold_order(self, fids):
        expected = chain_fidelity(fids)
        left = fids[0]
        for f in fids[1:]:
            left = swap_compose_analytic(left, f)
        assert left == pytest.approx(expected, abs=1e-12)
        right = fids[-1]
        for f in reversed(fids[:-1]):
            right = swap_compose_analytic(f, right)
        assert right == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_two_hop_chain(self):
        # smoke-scale; acceptance runs 1e6 pairs on 2- and 5-hop chains
        fids = [0.9, 0.8]
        n = 100_000
        rng = np.random.default_rng(3)
        draws = rng.random((n, 3))
        errors = 0
        for row in draws.tolist():
            x_error, _, _ = swap_bits(
                int(row[0] < 0.1), int(row[1] < 0.2), 0, 0, 0, 0, int(row[2] < 0.5), 0
            )
            errors += x_error
        expected = 1.0 - chain_fidelity(fids)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(errors / n - expected) <= 4 * se


class TestFrameAlgebra:
    @given(
        bits=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=10
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_xor_fold_is_order_independent(self, bits):
        frames = [PauliFrame(x, z) for x, z in bits]
        forward = IDENTITY_FRAME
        for fr in frames:
            forward = forward.compose(fr)
        backward = IDENTITY_FRAME
        for fr in reversed(frames):
            backward = backward.compose(fr)
        assert forward == backward
        # self-inverse: composing the fold with itself is the identity
        assert forward.compose(forward) == IDENTITY_FRAME

    def test_identity(self):
        assert IDENTITY_FRAME == PauliFrame(0, 0)
        assert PauliFrame(1, 1).compose(IDENTITY_FRAME) == PauliFrame(1, 1)

    def test_swap_chain_frame_association_independent(self):
        # frames accumulated across swaps do not depend on association order;
        # hop i's (error, frame X, frame Z), and the swap outcomes at nodes 1-3
        hops = [(i % 2, i & 1, (i >> 1) & 1) for i in range(4)]
        outcomes = [(1, 0), (0, 1), (1, 1)]
        left_fold = hops[0]
        for (e, x, z), (a, b) in zip(hops[1:], outcomes):
            left_fold = swap_bits(left_fold[0], e, left_fold[1], left_fold[2], x, z, a, b)
        right_fold = hops[-1]
        for (e, x, z), (a, b) in zip(reversed(hops[:-1]), reversed(outcomes)):
            right_fold = swap_bits(e, right_fold[0], x, z, right_fold[1], right_fold[2], a, b)
        assert left_fold == right_fold
