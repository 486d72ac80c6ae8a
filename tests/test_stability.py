import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from optomech import stability
from optomech.stability import (
    _NORMAL,
    _OVERFLOW,
    _hurwitz_verdicts,
    _nearest_float,
    _scaled,
    characteristic_coefficients,
    routh_hurwitz_stable,
)


def quantities_from_coefficients(A):
    """(a1, a3, a4, a1 a2 a3 - a3^2 - a1^2 a4) from the characteristic coefficients."""
    a1, a2, a3, a4 = characteristic_coefficients(A)
    return a1, a3, a4, a1 * a2 * a3 - a3 * a3 - a1 * a1 * a4


def test_coefficients_of_minus_identity():
    # det(sI + I) = (s+1)^4 = s^4 + 4s^3 + 6s^2 + 4s + 1
    a = characteristic_coefficients(-np.eye(4))
    assert a == pytest.approx((4.0, 6.0, 4.0, 1.0), abs=1e-14)


def test_coefficients_match_polynomial_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        A = rng.uniform(-3, 3, (4, 4))
        ours = np.array(characteristic_coefficients(A))
        oracle = np.poly(A)[1:]  # numpy builds these from eigenvalues
        scale = np.maximum(1.0, np.abs(oracle))
        assert np.all(np.abs(ours - oracle) <= 1e-10 * scale)


def test_stable_and_unstable_diagonals():
    assert routh_hurwitz_stable(np.diag([-1.0, -2.0, -3.0, -4.0]))
    assert not routh_hurwitz_stable(np.diag([1.0, -2.0, -3.0, -4.0]))
    assert not routh_hurwitz_stable(np.diag([1.0, 2.0, 3.0, 4.0]))


def test_verdict_matches_eigenvalues_on_random_matrices():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(500):
        A = rng.uniform(-2, 2, (4, 4))
        lam = np.max(np.linalg.eigvals(A).real)
        if abs(lam) <= 1e-6:
            continue
        verdict = routh_hurwitz_stable(A)
        assert verdict == (lam < 0), f"disagreement at max Re(eig) = {lam}"
        checked += 1
    assert checked > 400


def test_marginal_rotation_block_is_not_stable():
    # (s^2 + 1)(s + 1)^2: undamped oscillator pair, Hurwitz determinant = 0
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )
    # the verdict is strict, and marginal is not strictly stable
    assert routh_hurwitz_stable(A) is False


def test_quantities_from_coefficients_positive_iff_stable():
    A = np.array(
        [
            [-0.075, 1.0, 0.0, 0.0],
            [-1.0, -0.075, 0.1, 0.0],
            [0.0, 0.0, -0.0025, 1.0],
            [0.1, 0.0, -1.0, -0.0025],
        ]
    )
    assert routh_hurwitz_stable(A) is True and routh_hurwitz_stable(-A) is False
    rng = np.random.default_rng(7)
    # the coefficients are the scaled ones times powers of two, so their
    # quantities have the signs the verdict reads, for entries of order one
    for B in [A, -A] + list(rng.uniform(-2, 2, (200, 4, 4))):
        assert routh_hurwitz_stable(B) == all(v > 0 for v in quantities_from_coefficients(B))


def test_input_validation():
    with pytest.raises(ValueError, match="4x4"):
        routh_hurwitz_stable(np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        routh_hurwitz_stable(np.full((4, 4), np.nan))


@pytest.mark.parametrize("count", [1, 5, 40])
def test_stack_equals_matrix_by_matrix(count):
    # a stack's verdicts and coefficients are those of its matrices one by one
    rng = np.random.default_rng(count)
    stack = rng.uniform(-3, 3, (count, 4, 4))
    columns = characteristic_coefficients(stack)
    for k, A in enumerate(stack):
        one = characteristic_coefficients(A)
        assert all(type(c) is float for c in one)
        assert np.array([c[k] for c in columns]).tobytes() == np.array(one).tobytes()
    verdicts = routh_hurwitz_stable(stack)
    assert verdicts.tolist() == [routh_hurwitz_stable(A) for A in stack]
    assert routh_hurwitz_stable(stack.reshape(count, 1, 4, 4)).shape == (count, 1)


def _split_pairs(detuning):
    """Optical pair at -0.075 +/- i detuning, mechanical pair at -0.0025 +/- i."""
    return np.array(
        [
            [-0.075, -detuning, -2e-3, 0.0],
            [detuning, -0.075, 1e-3, 0.0],
            [0.0, 0.0, -0.0025, 1.0],
            [1e-3, 2e-3, -1.0, -0.0025],
        ]
    )


@pytest.mark.parametrize("detuning", [1e10, 1e100, 1e170, 1e300])
def test_widely_split_eigenvalues(detuning):
    # the traces of A^k overflow or cancel, the scaled minors stay exact; from
    # 1e170 some scaled minors underflow, and the verdict and the coefficients
    # are taken from exact rationals
    A = _split_pairs(detuning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stable = routh_hurwitz_stable(A)
        coefficients = characteristic_coefficients(A)
        flipped = routh_hurwitz_stable(-A)
        flipped_coefficients = characteristic_coefficients(-A)
        columns = characteristic_coefficients(np.stack([A, -A]))
    assert stable is True and flipped is False
    assert np.array(columns).tobytes() == np.array([coefficients, flipped_coefficients]).T.tobytes()
    if detuning < 1e300:
        assert stable == (np.linalg.eigvals(A).real.max() < 0)
    if detuning < 1e170:
        assert all(a > 0 for a in coefficients)
    else:  # a2, a3, a4 ~ detuning^2 lie past the float range: an inf of their sign
        assert coefficients == (0.155, np.inf, np.inf, np.inf)
        assert flipped_coefficients == (-0.155, np.inf, -np.inf, np.inf)


def test_exact_coefficients_round_to_the_nearest_float():
    # a4 = 1 is in range, but the scaled entry 2^-1201 underflows to 0 and took a4 with it
    A = np.diag([-(2.0**600), -(2.0**-600), -1.0, -1.0])
    assert characteristic_coefficients(A) == (2.0**600, 2.0**601, 2.0**600, 1.0)
    # 2^1024 - 2^970 is halfway between the largest float and 2^1024
    assert _nearest_float(_OVERFLOW - Fraction(1, 3)) == sys.float_info.max
    assert _nearest_float(_OVERFLOW) == np.inf and _nearest_float(-_OVERFLOW) == -np.inf
    assert _nearest_float(Fraction(1, 3)) == 1 / 3 and _nearest_float(Fraction(1, 2**1080)) == 0.0


@pytest.mark.parametrize("count", [1, 5, 40])
def test_underflow_takes_the_exact_verdict_in_every_stack(count):
    # arrays and the float entry both take the exact verdict where a quantity underflows
    A = _split_pairs(1e300)
    stack = np.stack([A, -A] * count)
    assert routh_hurwitz_stable(stack).tolist() == [True, False] * count
    assert _hurwitz_verdicts(stack.ravel().tolist()) == [True, False] * count
    assert routh_hurwitz_stable(stack.reshape(count, 2, 4, 4)).tolist() == [[True, False]] * count


def test_small_stacks_scale_like_the_stacked_path():
    # the float entry scales each matrix with math.frexp and math.ldexp; a
    # stack of 1 to 8 matrices, and the same matrices repeated into a larger
    # one, go through numpy's frexp and ldexp, and give the same verdicts
    rng = np.random.default_rng(20261018)
    exact = 0
    for _ in range(150):
        count = int(rng.integers(1, 9))
        stack = rng.choice((-1.0, 1.0), (count, 4, 4)) * 10.0 ** rng.uniform(-100, 100, (count, 4, 4))
        stack[rng.random((count, 4, 4)) < 0.1] = 0.0
        large = np.concatenate([stack] * (8 // count + 1))
        assert routh_hurwitz_stable(stack).tolist() == routh_hurwitz_stable(large)[:count].tolist()
        assert _hurwitz_verdicts(stack.ravel().tolist()) == routh_hurwitz_stable(stack).tolist()
        assert np.array_equal(np.array(characteristic_coefficients(stack)),
                              np.array(characteristic_coefficients(large))[:, :count])
        assert routh_hurwitz_stable(stack[0]) == routh_hurwitz_stable(large)[0]
        q = _scaled(stack)[0][:, [0, 2, 3, 4]]
        exact += int(np.sum(np.min(np.abs(q), axis=-1) < _NORMAL))
    assert exact >= 40  # verdicts that the exact Fraction fallback takes


def test_each_representation_keeps_its_own_path():
    # a flat float list of 40 matrices is scaled matrix by matrix on floats,
    # and arrays of 1 to 8 matrices across numpy: neither entry calls the other
    rng = np.random.default_rng(28)
    signs = rng.choice((-1.0, 1.0), (40, 1, 1))
    stack = rng.uniform(-2, 2, (40, 4, 4)) - 3.0 * signs * np.eye(4)
    stack *= 10.0 ** rng.uniform(-100, 100, (40, 1, 1))
    stack[:2] = [_split_pairs(1e300), -_split_pairs(1e300)]  # the exact verdicts
    with mock.patch.object(
        stability, "routh_hurwitz_stable", side_effect=AssertionError("verdict on arrays")
    ):
        flat = _hurwitz_verdicts(stack.ravel().tolist())
    with mock.patch.object(
        stability, "_hurwitz_verdicts", side_effect=AssertionError("verdict on floats")
    ):
        ends = np.cumsum([1, 2, 3, 4, 5, 6, 7, 8, 4]).tolist()
        stacked = [v for i, j in zip([0, *ends], ends) for v in routh_hurwitz_stable(stack[i:j])]
        single = [routh_hurwitz_stable(A) for A in stack]
    assert flat == stacked == single and all(type(v) is bool for v in flat + single)
    assert 5 < sum(flat) < 35
