import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from qcmd import ModelSpec, build_model, model


def make(family, params=None, **kw):
    defaults = dict(d=1)
    if family in ("two_level_gap", "two_level_cross"):
        defaults["d"] = 2
    defaults.update(kw)
    return build_model(ModelSpec(family=family, params=params or {}, **defaults))


def test_free_potential_is_zero():
    m = make("free")
    for X in (0.0, 1.3, 7.7, -2.0):
        assert np.all(model.evaluate_potential(m, X) == 0.0)


def test_two_level_gap_direct_substitution():
    m = make("two_level_gap", {"delta": 0.1})
    V = model.evaluate_potential(m, 0.0)
    assert np.allclose(V, [[1.0, 0.1], [0.1, -1.0]], atol=0.0)


def test_two_level_gap_closed_form_eigenvalues():
    m = make("two_level_gap", {"delta": 0.25})
    lam = model.levels_and_slopes(m, np.pi / 2)[0]
    assert np.allclose(lam, [-0.25, 0.25], atol=1e-15)
    # minimal gap 2*delta at X = pi/2
    X = np.linspace(0, 2 * np.pi, 1001)
    gaps = [np.diff(model.levels_and_slopes(m, x)[0])[0] for x in X]
    assert abs(min(gaps) - 0.5) < 1e-12


def test_two_level_cross_closed_form_and_slope():
    m = make("two_level_cross")
    for x in (0.3, 1.0, 4.2):
        lam = model.levels_and_slopes(m, x)[0]
        r = 2 * abs(np.sin(x / 2))
        assert np.allclose(lam, [-r, r], atol=1e-14)
    # |d/dX (lambda_1 - lambda_0)| -> 2 at the crossing
    h = 1e-6
    gap = lambda x: np.diff(model.levels_and_slopes(m, x)[0])[0]
    assert abs((gap(h) - gap(0.0)) / h - 2.0) < 1e-4


def test_potential_symmetry_and_periodicity_random():
    rng = np.random.default_rng(7)
    for family, params, d in [("free", {}, 1), ("scalar_cos", {"a": 0.3}, 1),
                              ("two_level_gap", {"delta": 0.25}, 2),
                              ("two_level_cross", {}, 2),
                              ("multi_level", {"a0": 0.2, "gaps": [[1.0, 0.05]], "rot": 0.4}, 2)]:
        m = build_model(ModelSpec(family=family, params=params, d=d))
        for X in rng.uniform(-10.0, 10.0, 1000):
            V = model.evaluate_potential(m, X)
            assert np.abs(V - V.T).max() == 0.0
            V2 = model.evaluate_potential(m, X + m.L)
            assert np.abs(V2 - V).max() <= 1e-12


def test_derivative_stationary_points():
    m = make("two_level_gap", {"delta": 0.25})
    assert np.abs(model.potential_derivative(m, 0.0)).max() == 0.0
    m2 = make("two_level_cross")
    dV = model.potential_derivative(m2, np.pi)
    assert np.allclose(dV, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_fd_derivative_matches_analytic():
    m = make("two_level_gap", {"delta": 0.25})
    rng = np.random.default_rng(0)
    for X in rng.uniform(0, 2 * np.pi, 100):
        an = model.potential_derivative(m, X)
        fd = model.potential_derivative(m, X, method="fd")
        assert np.abs(an - fd).max() < 1e-8


def test_derivative_matches_central_difference_everywhere():
    rng = np.random.default_rng(3)
    for family, params, d in [("scalar_cos", {"a": 0.2}, 1),
                              ("two_level_cross", {}, 2),
                              ("multi_level", {"a0": 0.1, "gaps": [[1.0, 0.03], [2.0, 0.02]], "rot": 0.3}, 3)]:
        m = build_model(ModelSpec(family=family, params=params, d=d))
        h = 1e-6
        for X in rng.uniform(0, m.L, 50):
            num = (model.evaluate_potential(m, X + h) - model.evaluate_potential(m, X - h)) / (2 * h)
            an = model.potential_derivative(m, X)
            scale = max(1.0, np.abs(an).max())
            assert np.abs(num - an).max() / scale < 1e-6


def test_multi_level_values_independent_of_call_order():
    # V and dV/dX share the last point's rotation; neither the order of the
    # points nor threads sharing one model may change a value
    spec = ModelSpec(family="multi_level", d=3,
                     params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3})
    xs = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 60)
    fresh = [(model.evaluate_potential(build_model(spec), x),
              model.potential_derivative(build_model(spec), x)) for x in xs]
    m = build_model(spec)
    with ThreadPoolExecutor(max_workers=3) as pool:
        shared = list(pool.map(lambda x: (model.potential_derivative(m, x),
                                          model.evaluate_potential(m, x)), xs))
    for (V, dV), (dV2, V2) in zip(fresh, shared):
        assert np.array_equal(V, V2) and np.array_equal(dV, dV2)


FAMILIES = [("free", {}, 1), ("scalar_cos", {"a": 0.3}, 1),
            ("two_level_gap", {"delta": 0.25}, 2), ("two_level_cross", {}, 2),
            ("multi_level", {"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}, 3)]


@pytest.mark.parametrize("family, params, d", FAMILIES)
def test_array_evaluation_matches_per_point_bitwise(family, params, d):
    m = build_model(ModelSpec(family=family, params=params, d=d))
    xs = np.random.default_rng(11).uniform(-3.0, 12.0, 97)
    V, dV = model.potential_and_derivative(m, xs)
    d2V = model.potential_second_derivative(m, xs)
    lam, dlam = model.levels_and_slopes(m, xs)
    assert lam.shape == dlam.shape == (xs.size, d)
    assert V.shape == dV.shape == d2V.shape == (xs.size, d, d)
    grid = model.evaluate_potential(m, xs.reshape(-1, 1))
    assert grid.shape == (xs.size, 1, d, d) and np.array_equal(grid[:, 0], V)
    for i, x in enumerate(xs):
        assert np.array_equal(V[i], model.evaluate_potential(m, x))
        assert np.array_equal(dV[i], model.potential_derivative(m, x))
        assert np.array_equal(d2V[i], model.potential_second_derivative(m, x))
        lam_x, dlam_x = model.levels_and_slopes(m, x)
        assert np.array_equal(lam[i], lam_x) and np.array_equal(dlam[i], dlam_x)
    # a point evaluated inside a different stack gives the same bits
    assert np.array_equal(model.evaluate_potential(m, xs[5:8])[1], V[6])
    # the propagator, with one rate for all points and one rate per point
    rates = np.linspace(0.01, 3.0, xs.size)
    P, P_lanes = model.electron_propagator(m, xs, 0.7), model.electron_propagator(m, xs, rates)
    assert P.shape == (xs.size, d, d) and P.dtype == complex
    for i, x in enumerate(xs):
        assert np.array_equal(P[i], model.electron_propagator(m, x, 0.7))
        assert np.array_equal(P_lanes[i], model.electron_propagator(m, x, rates[i]))
    # the ground slope alone, with and without a family closed form for it
    assert np.array_equal(model.ground_slope(m, xs), dlam[:, 0])
    assert np.array_equal(model.ground_slope(m, xs[3]), dlam[3, 0])


@pytest.mark.parametrize("family, params, d", FAMILIES)
def test_eigenvectors_match_eigh(family, params, d):
    m = build_model(ModelSpec(family=family, params=params, d=d))
    # 4097 points: X = -2 pi, 0, 2 pi and 4 pi (the crossings of
    # two_level_cross) and points on both sides of [0, L)
    xs = np.r_[np.linspace(-m.L, 2.0 * m.L, 4095), 0.0, m.L]
    V = model.evaluate_potential(m, xs)
    lam = model.levels_and_slopes(m, xs)[0]
    Q = model.eigenvectors(m, xs)
    assert Q.shape == (xs.size, d, d)
    assert np.abs(Q.transpose(0, 2, 1) @ Q - np.eye(d)).max() < 1e-14
    residual = np.linalg.norm(V @ Q - Q * lam[:, None, :], axis=1)
    assert (residual <= 1e-14 * np.maximum(1.0, np.abs(lam))).all()
    # up to the sign of each column, where the levels are distinct
    lam_ref, Q_ref = np.linalg.eigh(V)
    distinct = (np.diff(lam_ref, axis=1) > 1e-8).all(axis=1)
    assert distinct.sum() >= xs.size - 4
    sign = np.sign(np.einsum("ijn,ijn->in", Q, Q_ref))
    assert np.abs(Q * sign[:, None, :] - Q_ref)[distinct].max() <= 1e-12
    assert np.array_equal(model.eigenvectors(m, xs[9]), Q[9])


@pytest.mark.parametrize("family, params, d", FAMILIES)
def test_electron_propagator_matches_expm(family, params, d):
    m = build_model(ModelSpec(family=family, params=params, d=d))
    # X = 0 and X = L (the crossing of two_level_cross at 0 and 2 pi) are grid points
    xs = np.linspace(0.0, m.L, 4097)
    assert xs[0] == 0.0 and xs[-1] == m.L
    V = model.evaluate_potential(m, xs)
    for a in (1e-3, 0.032, 0.1, 1.0, 7.5):
        P = model.electron_propagator(m, xs, a)
        assert np.abs(P - expm(-1j * a * V)).max() < 1e-13
        unitarity = P @ P.conj().transpose(0, 2, 1) - np.eye(d)
        assert np.abs(unitarity).max() < 1e-14


@pytest.mark.parametrize("family, params, d", FAMILIES)
def test_declared_involutions_hold(family, params, d):
    # V(-X) = P_r V(X) P_r and V(X + L/2) = P_h V(X) P_h for what the family
    # declares, each P a symmetric involution, and the two commuting
    m = build_model(ModelSpec(family=family, params=params, d=d))
    P_r, P_h = m.involutions
    assert P_r is not None
    assert (P_h is not None) == (family == "two_level_gap")
    xs = np.random.default_rng(5).uniform(-3.0, 12.0, 61)
    V = model.evaluate_potential(m, xs)
    for P, shifted in ((P_r, -xs), (P_h, xs + 0.5 * m.L)):
        if P is None:
            continue
        assert np.array_equal(P, P.T) and np.array_equal(P @ P, np.eye(d))
        assert np.abs(model.evaluate_potential(m, shifted) - P @ V @ P).max() < 1e-14
    if P_h is not None:
        assert np.array_equal(P_r @ P_h, P_h @ P_r)


@pytest.mark.parametrize("family, params", [("two_level_gap", {"delta": 0.3}),
                                            ("two_level_cross", {})])
def test_float_forms_match_the_array_forms(family, params):
    m = build_model(ModelSpec(family=family, params=params, d=2))
    polar, slope = m._float_forms
    # through X = 0 and X = 2 pi, the crossing of two_level_cross
    xs = np.r_[np.linspace(-m.L, 2.0 * m.L, 4097), 0.0, m.L]
    V, dV = model.potential_and_derivative(m, xs)
    lam = model.levels_and_slopes(m, xs)[0]
    for i, x in enumerate(xs.tolist()):
        # V = rho R(theta), with |rho| the upper level
        rho, cos_theta, sin_theta = polar(x)
        assert abs(abs(rho) - lam[i, 1]) < 1e-15
        assert abs(cos_theta ** 2 + sin_theta ** 2 - 1.0) < 1e-15
        assert max(abs(rho * cos_theta - V[i, 0, 0]), abs(rho * sin_theta - V[i, 0, 1])) < 1e-15
    for a in (1e-3, 0.1, 7.5):
        P = model.electron_propagator(m, xs, a)
        for i, x in enumerate(xs.tolist()):
            # P = cos(a rho) I - i sin(a rho) R; a rounding of rho moves the
            # phase a rho by a times as much
            rho, cos_theta, sin_theta = polar(x)
            c, s = np.cos(a * rho), np.sin(a * rho)
            assert max(abs(c - P[i, 0, 0].real), abs(s * cos_theta + P[i, 0, 0].imag),
                       abs(s * sin_theta + P[i, 0, 1].imag)) < 1e-15 * max(1.0, a)
    for i, x in enumerate(xs.tolist()):
        alpha, beta = slope(x)
        assert max(abs(alpha - dV[i, 0, 0]), abs(beta - dV[i, 0, 1])) < 1e-15
    # the other families keep to the arrays
    assert build_model(ModelSpec(family="multi_level", d=2, params={"gaps": [[1.0, 0.2]]})
                       )._float_forms is None


@pytest.mark.parametrize("family, params, d", [
    ("free", {}, 1),
    ("scalar_cos", {"a": 0.3}, 1),
    ("two_level_gap", {"delta": 0.25}, 2),
    ("two_level_gap", {"delta": 0.01}, 2),
    ("two_level_cross", {}, 2),
    ("multi_level", {"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}, 3),
    ("multi_level", {"a0": -0.4, "gaps": [[0.5, -0.3], [1.2, 0.1]], "rot": 1.0}, 3),
])
def test_gap_floor_is_a_lower_bound(family, params, d):
    m = make(family, params, d=d)
    if d == 1:
        assert m.gap_floor == np.inf
        return
    lam = model.levels_and_slopes(m, np.linspace(0.0, m.L, 4097))[0]
    assert m.gap_floor <= (lam[:, 1] - lam[:, 0]).min()


def test_spec_round_trip_lossless():
    spec = ModelSpec(family="multi_level", params={"a0": 0.25, "gaps": [[1.0, 0.05], [2.5, 0.0625]], "rot": 0.125},
                     L=2 * np.pi, d=3, M=(64.0, 256.0), T=0.05, K=2.0,
                     tolerances={"eig": 1e-10})
    text = spec.to_json()
    again = ModelSpec.from_json(text)
    assert again == spec
    assert json.loads(again.to_json()) == json.loads(text)


def test_build_model_errors():
    with pytest.raises(ValueError, match="unknown family"):
        build_model(ModelSpec(family="nope"))
    with pytest.raises(ValueError, match="delta"):
        build_model(ModelSpec(family="two_level_gap", params={"delta": 0.0}, d=2))
    with pytest.raises(ValueError, match="d = 2"):
        build_model(ModelSpec(family="two_level_gap", params={"delta": 0.1}, d=3))
    with pytest.raises(ValueError):
        build_model(ModelSpec(family="free", M=(0.5,)))
    with pytest.raises(ValueError):
        build_model(ModelSpec(family="multi_level", d=2, params={"gaps": [[1.0, 2.0]]}))


@pytest.mark.parametrize("family, d, field, value, name", [
    ("scalar_cos", 1, "M", (float("nan"),), "masses"),
    ("scalar_cos", 1, "M", (1024.0, float("inf")), "masses"),
    ("scalar_cos", 1, "T", float("nan"), "temperature"),
    ("scalar_cos", 1, "T", float("inf"), "temperature"),
    ("scalar_cos", 1, "K", float("inf"), "friction"),
    ("scalar_cos", 1, "K", float("nan"), "friction"),
    ("scalar_cos", 1, "L", float("nan"), "torus length"),
    ("scalar_cos", 1, "L", float("inf"), "torus length"),
    # the two families defined on L = 2 pi only: abs(nan - 2 pi) > 1e-12 is false
    ("two_level_gap", 2, "L", float("nan"), "torus length"),
    ("two_level_cross", 2, "L", float("nan"), "torus length")])
def test_build_model_rejects_nonfinite_scalars(family, d, field, value, name):
    with pytest.raises(ValueError, match=name):
        build_model(ModelSpec(family=family, d=d, **{field: value}))


def test_families_listed():
    fams = model.list_families()
    for name in ("free", "scalar_cos", "two_level_gap", "two_level_cross", "multi_level"):
        assert name in fams
