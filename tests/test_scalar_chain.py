"""The scalar covariance chain against copies of its earlier array form.

steady_covariance, quadrature_variances, physicality_min_eig, _unpacked and
the float entry of the Routh-Hurwitz verdict, _hurwitz_verdicts, take their
checks and conversions on Python floats; routh_hurwitz_stable takes arrays.
The reference_* functions below are the forms they replaced, kept here
verbatim: every output must have the same bits, and every rejected input the
same exception type and message.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from optomech.classical import _fixed_points, steady_state_grid
from optomech.model import SystemParams
from optomech.quantum import (
    _HALF_I_OMEGA,
    _SQUEEZE_GUARD,
    _TRIU,
    QUADRATURE_NAMES,
    QuadratureVariances,
    _drift_entries,
    _lyapunov_operator,
    _umath_linalg,
    _unpacked,
    diffusion_matrix,
    drift_matrix_from_rates,
    physicality_min_eig,
    quadrature_variances,
    steady_covariance,
)
from optomech.errors import SimulationError, SingularSystemError, UnstableSystemError
from optomech.stability import (
    _NORMAL,
    _hurwitz_verdicts,
    _polynomial,
    routh_hurwitz_stable,
)


def reference_unpacked(w):
    V = np.empty(w.shape[:-1] + (4, 4))
    V[..., _TRIU[0], _TRIU[1]] = w
    V[..., _TRIU[1], _TRIU[0]] = w
    return V


def reference_scaled(A):
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2:] != (4, 4):
        raise ValueError(f"A must be 4x4 or a stack of 4x4 matrices (got shape {A.shape})")
    if A.size <= 16 * 8:  # up to 8 matrices were scaled on Python floats
        values, e = [], []
        for m in A.reshape(-1, 16).tolist():
            if not all(map(math.isfinite, m)):
                raise ValueError("A must have finite entries")
            e.append(math.frexp(max(map(abs, m)))[1])
            s = [math.ldexp(x, -e[-1]) for x in m]
            values.append(_polynomial((s[0:4], s[4:8], s[8:12], s[12:16])))
        return values, e, A.shape[:-2]
    if not np.all(np.isfinite(A)):
        raise ValueError("A must have finite entries")
    e = np.frexp(np.max(np.abs(A), axis=(-2, -1)))[1]
    S = np.ldexp(A, -e[..., None, None])
    values = np.stack(_polynomial([[S[..., i, j] for j in range(4)] for i in range(4)]), -1)
    return values, e, A.shape[:-2]


def reference_routh_hurwitz_stable(A):
    values, _, shape = reference_scaled(A)
    if isinstance(values, list):
        q = [(a1, a3, a4, h) for a1, _, a3, a4, h in values]
        verdicts = [min(v) > 0 for v in q]
        tiny = [k for k, v in enumerate(q) if min(map(abs, v)) < _NORMAL]
    else:
        q = values[..., [0, 2, 3, 4]].reshape(-1, 4)
        verdicts = np.all(q > 0, axis=-1)
        tiny = np.flatnonzero(np.any(np.abs(q) < _NORMAL, axis=-1))
    for k in tiny:
        rows = np.reshape(A, (-1, 4, 4))[k].tolist()
        a1, _, a3, a4, h = _polynomial([[Fraction(x) for x in row] for row in rows])
        verdicts[k] = a1 > 0 and a3 > 0 and a4 > 0 and h > 0
    return verdicts[0] if shape == () else np.array(verdicts, dtype=bool).reshape(shape)


def reference_checked_symmetric(X, name):
    X = np.asarray(X, dtype=float)
    if X.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4 (got shape {X.shape})")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} must have finite entries")
    if not np.max(np.abs(X - X.T)) <= 1e-12:
        raise ValueError(f"{name} must be symmetric")
    return X


def reference_steady_covariance(A, D):
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"A must be 4x4 (got shape {A.shape})")
    D = reference_checked_symmetric(D, "D")
    if not reference_routh_hurwitz_stable(A):
        raise UnstableSystemError(
            "drift matrix has an eigenvalue with non-negative real part; "
            "no steady covariance exists"
        )
    try:
        w = np.linalg.solve(_lyapunov_operator(A), -D[_TRIU])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Lyapunov system is singular: {exc}") from exc
    V = reference_unpacked(w)
    if not np.all(np.isfinite(V)):
        raise SingularSystemError("steady covariance overflows (an entry of V is not finite)")
    residual = A @ V + V @ A.T + D
    scale = max(1.0, float(np.max(np.abs(D))))
    if np.max(np.abs(residual)) > 1e-8 * scale:
        raise SingularSystemError(
            "Lyapunov solve did not meet the residual tolerance "
            f"(max residual {np.max(np.abs(residual)):.3e})"
        )
    return V


def reference_quadrature_variances(V):
    V = np.asarray(V, dtype=float)
    if V.shape != (4, 4):
        raise ValueError(f"V must be 4x4 (got shape {V.shape})")
    diag = np.diag(V)
    squeezed = tuple(
        name for name, v in zip(QUADRATURE_NAMES, diag) if v < 0.5 - _SQUEEZE_GUARD
    )
    return QuadratureVariances(
        var_x=float(diag[0]),
        var_y=float(diag[1]),
        var_q=float(diag[2]),
        var_p=float(diag[3]),
        squeezed=squeezed,
    )


def reference_physicality_min_eig(V):
    V = np.asarray(V, dtype=float)
    H = V.astype(complex) + _HALF_I_OMEGA
    return float(np.min(np.linalg.eigvalsh(H)))


def outcome(f, *args):
    """("ok", value) or (exception type, message) of f(*args)."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def reference(f, *args):
    """outcome of a reference function, with its warnings ignored.

    The array form warned "overflow encountered in subtract" on a D whose
    finite mirrored entries differ by more than the float range, then raised
    the same ValueError; the float form only raises.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return outcome(f, *args)


def assert_same(got, want):
    """Equal outcomes; arrays and floats bit for bit, with their types."""
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    assert type(a) is type(b)
    if isinstance(a, QuadratureVariances):
        assert a.squeezed == b.squeezed
        a, b = (np.array([v.var_x, v.var_y, v.var_q, v.var_p]) for v in (a, b))
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def assert_matches(f, ref, *args):
    """f(*args) and the reference ref(*args) have the same outcome."""
    assert_same(outcome(f, *args), reference(ref, *args))


def random_system(rng):
    """A drift-layout A (stable or not, some far detuned) and a diffusion D."""
    kappa, gamma, omega_m = 10.0 ** rng.uniform(-3, 1, 3)
    Delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 300 if rng.random() < 0.05 else 1)
    g = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-4, 0.5)
    A = drift_matrix_from_rates(kappa, gamma, omega_m, Delta, g)
    if rng.random() < 0.5:
        n_th = 10.0 ** rng.uniform(-3, 12)
        D = np.diag([kappa / 2, kappa / 2, gamma * (n_th + 0.5), gamma * (n_th + 0.5)])
    else:
        B = rng.standard_normal((4, 4))
        D = B @ B.T
    return A, D


def test_random_drift_systems_give_the_same_bits():
    rng = np.random.default_rng(20261019)
    kinds = set()
    matrices = []
    for _ in range(2400):
        A, D = random_system(rng)
        matrices.append(A)
        got = outcome(steady_covariance, A, D)
        assert_same(got, reference(reference_steady_covariance, A, D))
        kinds.add(got[0])
        if got[0] == "ok":
            V = got[1]
            assert_matches(quadrature_variances, reference_quadrature_variances, V)
            assert_matches(physicality_min_eig, reference_physicality_min_eig, V)
            w = V[_TRIU]
            assert_same(("ok", _unpacked(w)), ("ok", reference_unpacked(w)))
        assert_matches(routh_hurwitz_stable, reference_routh_hurwitz_stable, A)
    assert {"ok", UnstableSystemError} <= kinds  # some far-detuned solves miss the residual too
    assert 0.5 < np.mean([routh_hurwitz_stable(A) for A in matrices]) < 0.9
    # far-detuned matrices whose scaled quantities underflow take the exact verdict
    underflowing = [min(abs(v[k]) for k in (0, 2, 3, 4)) < _NORMAL
                    for v in (reference_scaled(A)[0][0] for A in matrices)]
    assert sum(underflowing) >= 20

    stacks = np.array(matrices)
    start = 0
    while start < len(matrices):  # stacks of 1-8 matrices, and a few of 40
        count = int(rng.integers(1, 9)) if rng.random() < 0.9 else 40
        stack = stacks[start : start + count]
        start += count
        for A in (stack, stack.reshape((1,) + stack.shape)):
            assert_matches(routh_hurwitz_stable, reference_routh_hurwitz_stable, A)


def test_unpacked_stacks_give_the_same_bits():
    rng = np.random.default_rng(5)
    for shape in [(10,), (1, 10), (7, 10), (2, 3, 10), (3001, 10)]:
        w = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        assert_same(("ok", _unpacked(w)), ("ok", reference_unpacked(w)))


SAMPLE_A = drift_matrix_from_rates(0.15, 0.005, 1.0, -1.0, 0.05)
SAMPLE_D = np.diag([0.075, 0.075, 0.0525, 0.0525])


def with_entry(X, entry, value):
    X = X.copy()
    X[entry] = value
    return X


@pytest.mark.parametrize(
    "A, D",
    [
        (np.eye(3), SAMPLE_D),
        (SAMPLE_A.ravel(), SAMPLE_D),
        (SAMPLE_A, np.eye(5)),
        (SAMPLE_A, [1.0, 2.0]),
        (with_entry(SAMPLE_A, (0, 0), np.nan), SAMPLE_D),
        (with_entry(SAMPLE_A, (2, 3), np.inf), SAMPLE_D),
        (SAMPLE_A, with_entry(SAMPLE_D, (2, 2), np.inf)),
        (SAMPLE_A, with_entry(SAMPLE_D, (0, 1), np.nan)),
        (SAMPLE_A, with_entry(SAMPLE_D, (2, 3), 2e-12)),
        (SAMPLE_A, with_entry(SAMPLE_D, (3, 1), -1e-3)),
        # finite entries whose difference overflows: asymmetric, as before
        (SAMPLE_A, with_entry(with_entry(SAMPLE_D, (0, 3), 1e308), (3, 0), -1e308)),
        (drift_matrix_from_rates(0.15, 0.005, 1.0, 1.0, 0.05), SAMPLE_D),  # unstable
        (np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]), np.eye(4)),
        (-1e-300 * np.eye(4), 1e300 * np.eye(4)),  # V overflows
        (drift_matrix_from_rates(0.5, 0.5, 1.0, -1.0, 0.05), np.diag([1e308] * 4)),
        (-1e-2 * np.eye(4) + 1e3 * np.eye(4, k=1), np.eye(4)),  # residual above tolerance
    ],
)
def test_rejected_inputs_keep_type_and_message(A, D):
    got = outcome(steady_covariance, A, D)
    assert got[0] != "ok"
    assert_same(got, reference(reference_steady_covariance, A, D))


def invalid_flag(shape):
    """nan entries, raising the floating-point invalid flag as a LAPACK gufunc does on failure."""
    return np.sqrt(np.full(shape, -1.0))


def test_singular_system_keeps_type_and_message(monkeypatch):
    # steady_covariance and np.linalg.solve call the same gufunc, patched for both
    def singular(a, b, signature):
        assert signature == "dd->d"
        return invalid_flag(np.shape(b))

    monkeypatch.setattr(_umath_linalg, "solve1", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(steady_covariance, SAMPLE_A, SAMPLE_D)
    assert got == (SingularSystemError, "Lyapunov system is singular: Singular matrix")
    assert got == reference(reference_steady_covariance, SAMPLE_A, SAMPLE_D)


def test_unconverged_eigenvalues_keep_type_and_message(monkeypatch):
    def unconverged(a, signature):
        assert signature == "D->d"
        return invalid_flag(a.shape[-1])

    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", unconverged)
    V = steady_covariance(SAMPLE_A, SAMPLE_D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(physicality_min_eig, V)
    assert got == (np.linalg.LinAlgError, "Eigenvalues did not converge")
    assert got == reference(reference_physicality_min_eig, V)


@pytest.mark.parametrize("V", [np.eye(3), np.ones(16), np.full((4, 4), np.nan)])
def test_rejected_or_odd_covariances_match(V):
    # the reference physicality_min_eig let numpy's broadcasting error or a
    # LinAlgError escape here, and the reference quadrature_variances read a
    # nan diagonal as variances
    if V.shape == (4, 4):
        message = "V must have finite entries"
    else:
        message = f"V must be 4x4 (got shape {V.shape})"
    for f in (quadrature_variances, physicality_min_eig):
        assert outcome(f, V) == (ValueError, message)


@pytest.mark.parametrize("A", [np.ones((4, 3)), np.ones(4), np.ones((2, 4)), np.ones((0, 4, 4)),
                               np.full((9, 4, 4), np.inf), with_entry(SAMPLE_A, (1, 1), np.nan)])
def test_routh_hurwitz_odd_shapes_and_entries_match(A):
    assert_matches(routh_hurwitz_stable, reference_routh_hurwitz_stable, A)


STACK_SIZES = [1, 3, 8, 9]  # the reference scales up to 8 matrices on floats


def random_matrices(rng, count):
    """Drift-layout matrices (random_system's) and dense ones over 200 decades."""
    if rng.random() < 0.5:
        return np.array([random_system(rng)[0] for _ in range(count)])
    return rng.standard_normal((count, 4, 4)) * 10.0 ** rng.uniform(-100, 100, (count, 1, 1))


def underflowing_matrices(rng, count):
    """Far-detuned drift matrices whose scaled Hurwitz quantities underflow."""
    matrices = []
    for _ in range(count):
        kappa, gamma, omega_m = 10.0 ** rng.uniform(-3, 1, 3)
        Delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(250, 300)
        A = drift_matrix_from_rates(kappa, gamma, omega_m, Delta, complex(*rng.standard_normal(2)))
        matrices.append(A if rng.random() < 0.5 else -A)
    return np.array(matrices)


def split_matrices(rng, count):
    """Matrices Q diag(lambda) Q^-1 whose eigenvalues span up to 20 decades."""
    signs = rng.choice((-1.0, 1.0), (count, 4), p=(0.8, 0.2))
    lam = signs * 10.0 ** rng.uniform(-10, 10, (count, 4))
    Q = rng.standard_normal((count, 4, 4)) + 4.0 * np.eye(4)
    return Q * lam[:, None, :] @ np.linalg.inv(Q)


@pytest.mark.parametrize("count", STACK_SIZES)
@pytest.mark.parametrize("kind", [random_matrices, underflowing_matrices, split_matrices])
def test_float_entry_matches_stacked_reference(kind, count):
    # the float entry scales every matrix on Python floats, at any count,
    # and gives the verdicts of the reference's float and numpy paths
    rng = np.random.default_rng([count, len(kind.__name__)])
    verdicts, exact = [], 0
    for _ in range(60):
        stack = kind(rng, count)
        want = reference_routh_hurwitz_stable(stack).tolist()
        got = _hurwitz_verdicts(stack.ravel().tolist())
        assert got == want and all(type(v) is bool for v in got)
        verdicts += got
        exact += sum(min(abs(v[k]) for k in (0, 2, 3, 4)) < _NORMAL
                     for v in reference_scaled(stack.reshape(-1, 4, 4)[:1])[0])
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur
    if kind is underflowing_matrices:
        assert exact == 60  # every first matrix took the exact Fraction verdict


@pytest.mark.parametrize("count", STACK_SIZES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_entry_rejects_non_finite_entries(count, bad):
    stack = np.array([SAMPLE_A] * count)
    stack[-1, 2, 1] = bad
    got = outcome(_hurwitz_verdicts, stack.ravel().tolist())
    assert got == (ValueError, "A must have finite entries")
    assert got == reference(reference_routh_hurwitz_stable, stack)


def test_fixed_point_verdicts_equal_the_stacked_verdict():
    # per-root _fixed_points calls give one flat drift list to the float
    # entry, as in steady_states; the verdicts are those of one stacked call
    # on the same matrices, at 1 to 30 roots
    rng = np.random.default_rng(20261019)
    base = SystemParams(kappa=0.15, gamma=0.005, g0=0.005, Delta0=-0.2, A_l=5.0)
    seen = set()
    for _ in range(200):
        p = dataclasses.replace(base, g0=10.0 ** rng.uniform(-3, -2))
        grid = steady_state_grid(p, rng.uniform(-0.4, 0.1, int(rng.integers(1, 11))),
                                 rng.uniform(0.5, 9.0))
        Delta0, A_l, N = grid.Delta0.tolist(), grid.A_l.tolist(), grid.N_o.tolist()
        alpha, _, detuning, entries = zip(*map(_fixed_points, [p] * len(N), Delta0, A_l, N))
        stable = _hurwitz_verdicts([x for matrix in entries for x in matrix])
        drift = [_drift_entries(p.kappa, p.gamma, p.omega_m, d, (p.g0 * a).real, (p.g0 * a).imag)
                 for d, a in zip(detuning, alpha)]
        want = reference_routh_hurwitz_stable(np.array(drift).reshape(-1, 4, 4)).tolist()
        assert stable == want and all(type(v) is bool for v in stable)
        seen.add((len(N) > 8, all(stable)))  # past 8 roots the reference took numpy
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def reference_diffusion_matrix(params):
    mech = params.gamma * (params.n_th + 0.5)
    if not math.isfinite(mech):
        raise SimulationError(
            f"thermal diffusion gamma (n_th + 1/2) overflows at gamma = {params.gamma!r}, "
            f"n_th = {params.n_th!r}"
        )
    return np.diag([params.kappa / 2.0, params.kappa / 2.0, mech, mech])


def test_diffusion_matrix_equals_diagonal_form():
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(300):
        kappa, gamma, n_th = (float(10.0 ** x) for x in rng.uniform(-320, 200, 3))
        p = SystemParams(kappa=kappa, gamma=gamma if rng.random() < 0.9 else 0.0, g0=0.003,
                         Delta0=-1.0, A_l=5.0, n_th=n_th if rng.random() < 0.9 else 0.0)
        got = outcome(diffusion_matrix, p)
        assert_same(got, reference(reference_diffusion_matrix, p))
        kinds.add(got[0])
    assert kinds == {"ok", SimulationError}


def test_physicality_reads_the_smallest_eigenvalue():
    # eigvalsh returns ascending eigenvalues, so the first is the minimum
    rng = np.random.default_rng(12)
    for _ in range(500):
        S = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-5, 5)
        V = S @ S.T + rng.uniform(-1.0, 1.0) * np.eye(4)
        want = float(np.linalg.eigvalsh(V + _HALF_I_OMEGA).min())
        assert_same(("ok", physicality_min_eig(V)), ("ok", want))
