import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from qcmd import ModelSpec, build_model, espec, gibbs
from qcmd.errors import CrossingError
from qcmd._util import periodic_grid, stream_rng


def multi(gaps, a0=0.0, rot=0.0, T=0.1):
    return build_model(ModelSpec(family="multi_level", d=len(gaps) + 1,
                                 params={"a0": a0, "gaps": gaps, "rot": rot}, T=T))


# ---------------------------------------------------------------- sampler

def test_sampler_concentrates_at_low_temperature():
    rng = stream_rng(0)
    gaps = np.array([0.5])
    excited = []
    for T in (0.05, 0.005):
        s = gibbs.sample_electron_coefficients(gaps, T, 4000, rng)
        excited.append(np.mean(np.abs(s.gamma[:, 1]) ** 2))
    assert excited[1] < excited[0] / 5.0
    assert excited[1] < 0.02


def test_sampler_moment_matches_disc_quadrature():
    # d = 2: the excited weight v = |gamma_1|^2 has density ~ e^{-gap v/T}
    # on [0, 1]; oracle by direct quadrature of the constrained density
    T, gap = 0.01, 0.5
    num, _ = quad(lambda v: v * np.exp(-gap * v / T), 0.0, 1.0)
    den, _ = quad(lambda v: np.exp(-gap * v / T), 0.0, 1.0)
    oracle = num / den
    rng = stream_rng(1)
    s = gibbs.sample_electron_coefficients(np.array([gap]), T, 60000, rng)
    v = np.abs(s.gamma[:, 1]) ** 2
    mean = v.mean()
    sigma = v.std(ddof=1) / np.sqrt(s.ess)
    assert abs(mean - oracle) < 3.0 * sigma
    assert abs(oracle - T / gap) < 2.0 * (T / gap) ** 2 / gap  # = T/gap (1 + O(T/gap))


def test_sampler_component_symmetry():
    rng = stream_rng(2)
    s = gibbs.sample_electron_coefficients(np.array([0.8, 1.6]), 0.08, 40000, rng)
    re = s.gamma[:, 1].real
    im = s.gamma[:, 1].imag
    v_re, v_im = re.var(), im.var()
    sigma = v_re * np.sqrt(2.0 / s.ess)
    assert abs(v_re - v_im) < 3.0 * sigma


def test_sampler_phase_invariance():
    # the coefficient phase is uniform; statistics of the real part match
    # those of any phase-rotated copy (thinned to decorrelate the chain)
    rng = stream_rng(3)
    s = gibbs.sample_electron_coefficients(np.array([0.6]), 0.06, 40000, rng)
    thin = s.gamma[::8, 1]
    rotated = thin * np.exp(1j * 1.234)
    stat = ks_2samp(thin[: len(thin) // 2].real, rotated[len(thin) // 2:].real)
    assert stat.pvalue > 0.01


def test_sampler_detailed_balance_identity():
    rng = stream_rng(4)
    s = gibbs.sample_electron_coefficients(np.array([0.5]), 0.05, 5000, rng,
                                           log_pairs=True)
    logw_cur, logw_prop, accepted = s.proposal_log
    # acceptance-ratio identity: alpha(u->u')/alpha(u'->u) = w(u')/w(u)
    a_fwd = np.minimum(0.0, logw_prop - logw_cur)
    a_bwd = np.minimum(0.0, logw_cur - logw_prop)
    assert np.abs((a_fwd - a_bwd) - (logw_prop - logw_cur)).max() < 1e-12
    assert 0.0 < accepted.mean() <= 1.0
    assert s.ess > 1000


def test_sampler_rejects_bad_input():
    rng = stream_rng(5)
    with pytest.raises(ValueError):
        gibbs.sample_electron_coefficients(np.array([0.5]), 0.0, 100, rng)
    with pytest.raises(CrossingError):
        gibbs.sample_electron_coefficients(np.array([0.0]), 0.1, 100, rng)


def test_sampling_rejects_no_samples():
    m = multi([[1.0, 0.05]])
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            gibbs.sample_electron_coefficients(np.array([0.5]), 0.1, n, stream_rng(0))
        with pytest.raises(ValueError, match="n_samples"):
            gibbs.marginal_ratio(m, 1.0, 0.5, 0.1, n_samples=n)
        with pytest.raises(ValueError, match="n_samples"):
            gibbs.gibbs_observable(m, np.cos, 0.1, n_samples=n)


# A copy of the complex-valued moment estimator and of the node-by-node error
# propagation that the real-square moments and the reverse cumulative sum
# replaced, kept as the slow reference paths.

def _reference_sphere_moments(gaps, T, n_samples, rng):
    u, logw = gibbs._draw_sphere(gaps, T, n_samples, rng)
    w = np.exp(logw - logw.max())
    wsum = w.sum()
    v = np.abs(u[:, 1:]) ** 2
    mean = (w[:, None] * v).sum(axis=0) / wsum
    var = np.sum((w[:, None] * (v - mean[None, :])) ** 2, axis=0) / wsum ** 2
    return mean, np.sqrt(var)


def _reference_drift_sensitivity(resid, h):
    n_grid = resid.size
    coeff = np.zeros(n_grid)
    for k in range(n_grid):
        dlog = np.zeros(n_grid)
        if k == 0:
            dlog[1:] = 0.5 * h
        else:
            dlog[k] = 0.5 * h
            dlog[k + 1:] = h
        coeff[k] = float(resid @ dlog)
    return coeff


@pytest.mark.parametrize("gaps, T", [([0.5], 0.1), ([0.75, 1.5], 0.08),
                                     ([0.2, 0.9, 3.0], 0.5), ([2.0, 2.5], 0.02)])
def test_real_square_moments_match_the_complex_estimator(gaps, T):
    gaps = np.array(gaps)
    for n in (1, 7, 20000):
        new_rng, ref_rng = stream_rng(3, n), stream_rng(3, n)
        mean, sig = gibbs._sphere_moments(gaps, T, n, new_rng)
        ref_mean, ref_sig = _reference_sphere_moments(gaps, T, n, ref_rng)
        assert np.all(np.abs(mean - ref_mean) <= 1e-13 * np.abs(ref_mean))
        assert np.all(np.abs(sig - ref_sig) <= 1e-13 * np.abs(ref_sig))
        # the same normals are drawn: both generators end in the same state
        assert repr(new_rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


def test_drift_sensitivity_matches_the_node_loop():
    rng = stream_rng(8)
    for n_grid in (1, 2, 3, 65, 129):
        resid = rng.standard_normal(n_grid) * np.exp(rng.uniform(-5.0, 0.0, n_grid))
        resid -= resid.mean()       # residuals of a weighted mean sum to zero
        h = 2.0 * np.pi / n_grid
        ref = _reference_drift_sensitivity(resid, h)
        new = gibbs._drift_sensitivity(resid, h)
        assert np.abs(new - ref).max() <= 1e-15 * max(np.abs(ref).max(), 1e-300)


def test_gibbs_observable_matches_the_reference_paths(monkeypatch):
    m = build_model(ModelSpec(family="multi_level", d=3, T=0.08,
                              params={"a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]],
                                      "rot": 0.3}))
    new = gibbs.gibbs_observable(m, np.cos, 0.08, rng=stream_rng(0, 1))
    monkeypatch.setattr(gibbs, "_sphere_moments", _reference_sphere_moments)
    monkeypatch.setattr(gibbs, "_drift_sensitivity", _reference_drift_sensitivity)
    ref = gibbs.gibbs_observable(m, np.cos, 0.08, rng=stream_rng(0, 1))
    for key in ("value", "value_plain", "sigma"):
        a, b = getattr(new, key), getattr(ref, key)
        assert abs(a - b) <= 1e-13 * abs(b), key
    assert np.abs(new.log_r - ref.log_r).max() <= 1e-13 * np.abs(ref.log_r).max()
    val, sig = gibbs.marginal_ratio(m, 2.0, 0.5, 0.08, n_samples=5000, rng=stream_rng(4))
    monkeypatch.undo()
    new_val, new_sig = gibbs.marginal_ratio(m, 2.0, 0.5, 0.08, n_samples=5000,
                                            rng=stream_rng(4))
    assert abs(new_val - val) <= 1e-13 * abs(val) and abs(new_sig - sig) <= 1e-13 * sig


# ------------------------------------------------------------ marginal ratio

def test_marginal_ratio_same_point_zero():
    m = multi([[1.0, 0.05]])
    val, sig = gibbs.marginal_ratio(m, 1.0, 1.0, 0.1, rng=stream_rng(0))
    assert val == 0.0 and sig == 0.0


def test_marginal_ratio_flat_gaps_zero():
    m = multi([[1.0, 0.0], [2.0, 0.0]])
    val, sig = gibbs.marginal_ratio(m, 2.0, 0.5, 0.1, n_samples=5000, rng=stream_rng(1))
    assert abs(val) <= 3.0 * sig + 1e-12


def test_marginal_ratio_within_kappa_bound():
    m = multi([[1.0, 0.1]], T=0.05)
    for X in (1.0, 2.0, 3.0):
        val, sig = gibbs.marginal_ratio(m, X, 0.5, 0.05, n_samples=20000,
                                        rng=stream_rng(2))     # checks internally
        kap, _ = espec.kappa(m, (0.5, X), 0.5, T=0.05)
        assert abs(val) <= kap + 3.0 * sig


def test_marginal_ratio_matches_quadrature_oracle():
    # d = 2 oracle: log r(X) = log int_0^1 e^{-gap(X) v / T} dv
    T = 0.05
    m = multi([[1.0, 0.1]], T=T)

    def log_r(X):
        gap = espec.eigen_at(m, X)[0][1] - espec.eigen_at(m, X)[0][0]
        val, _ = quad(lambda v: np.exp(-gap * v / T), 0.0, 1.0)
        return np.log(val)

    X, X_c = 2.5, 0.5
    val, sig = gibbs.marginal_ratio(m, X, X_c, T, n_samples=40000, rng=stream_rng(3))
    assert abs(val - (log_r(X) - log_r(X_c))) < max(5.0 * sig, 2e-3)


# ---------------------------------------------------------- gibbs observable

def test_gibbs_observable_constant_is_one():
    m = multi([[1.0, 0.05]], a0=0.2)
    rep = gibbs.gibbs_observable(m, lambda x: np.ones_like(x), 0.1,
                                 n_samples=2000, rng=stream_rng(0))
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.value_plain == pytest.approx(1.0, abs=1e-12)


def test_gibbs_observable_low_temperature_laplace():
    m = multi([[1.0, 0.0]], a0=0.3)      # lambda_0 = 0.3 cos, minimum at X = pi
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    rep = gibbs.gibbs_observable(m, g, 0.01, n_grid=129, n_samples=2000,
                                 rng=stream_rng(1))
    assert abs(rep.value - np.cos(np.pi)) < 0.05


def test_gibbs_observable_flat_gaps_r_free():
    m = multi([[1.0, 0.0], [2.0, 0.0]], a0=0.2)
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    rep = gibbs.gibbs_observable(m, g, 0.1, n_samples=5000, rng=stream_rng(2))
    assert abs(rep.difference) <= 3.0 * rep.sigma + 1e-10


def test_gibbs_observable_rejects_t_zero():
    m = multi([[1.0, 0.05]])
    with pytest.raises(ValueError):
        gibbs.gibbs_observable(m, np.cos, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_temperatures_that_are_not_finite_and_positive_are_rejected(T):
    m = multi([[1.0, 0.05]])
    with pytest.raises(ValueError, match="finite T > 0"):
        gibbs.gibbs_observable(m, np.cos, T, n_samples=200)
    with pytest.raises(ValueError, match="finite T > 0"):
        gibbs.sample_electron_coefficients(np.array([0.5]), T, 100, stream_rng(5))
    with pytest.raises(ValueError, match="finite T > 0"):
        gibbs.marginal_ratio(m, 1.0, 0.5, T, n_samples=100)


# --------------------------------------------------------- corrected potential

def test_corrected_potential_flat_gaps_constant_shift():
    m = multi([[1.0, 0.0], [2.0, 0.0]], a0=0.2)
    basis = espec.eigendecompose_field(m, periodic_grid(m.L, 65))
    corr = gibbs.corrected_potential(basis, 0.1)
    shift = corr.values - basis.lambdas[:, 0]
    assert np.abs(shift - shift[0]).max() < 1e-12
    for x in (0.3, 2.2, 5.0):
        assert abs(corr.force(x)[0] - espec.ground_force(m, x)) < 1e-10


def test_corrected_potential_arithmetic_example():
    # gap field 1 + 0.1 cos X at T = 0.05 -> correction 0.025 log(1 + 0.1 cos X)
    m = multi([[1.0, 0.1]])
    basis = espec.eigendecompose_field(m, periodic_grid(m.L, 64))
    corr = gibbs.corrected_potential(basis, 0.05)
    expect = basis.lambdas[:, 0] + 0.025 * np.log(1.0 + 0.1 * np.cos(basis.grid))
    assert np.abs(corr.values - expect).max() < 1e-10
    assert corr.diagnostics["t_over_gap"] == pytest.approx(0.05 / 0.9, rel=1e-6)


def test_corrected_force_and_potential_are_lane_wise():
    m = multi([[0.8, 0.12], [1.6, 0.16]], a0=0.1, rot=0.3, T=0.08)
    basis = espec.eigendecompose_field(m, periodic_grid(m.L, 65))
    corr = gibbs.corrected_potential(basis, 0.08, trace_coefficient=1.0)
    X = np.array([0.4, 2.9, 5.1])
    F = corr.force(X)
    assert F.shape == (3,)
    for x, f in zip(X, F):
        assert np.array_equal(corr.force(x), [f])
        # the force is minus the slope of the corrected potential
        h = 1e-5
        assert abs(f + (corr.potential(x + h) - corr.potential(x - h)) / (2 * h)) < 1e-8
    assert np.array_equal(corr.potential(X), [corr.potential(x) for x in X])
    assert np.array_equal(corr.potential(basis.grid), corr.values)


def test_corrected_potential_needs_excited_levels():
    m = build_model(ModelSpec(family="free"))
    basis = espec.eigendecompose_field(m, periodic_grid(m.L, 16))
    with pytest.raises(ValueError):
        gibbs.corrected_potential(basis, 0.1)


# ------------------------------------------------------- equilibrium compare

def test_equilibrium_compare_free_uniform():
    m = build_model(ModelSpec(family="free", T=0.5, K=1.0))
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    rep = gibbs.equilibrium_compare(m, g, 0.5, budget=40_000, dt=0.05, seed=1)
    for scheme in ("langevin", "smoluchowski"):
        assert abs(rep.scheme_values[scheme]) < 4.0 * max(rep.scheme_errors[scheme], 1e-3)
    assert abs(rep.gibbs_value) < 1e-10


def test_equilibrium_compare_scalar_matches_quadrature():
    m = build_model(ModelSpec(family="scalar_cos", params={"a": 0.2}, T=0.25, K=1.0))
    T = 0.25
    g = lambda x: np.cos(2 * np.pi * x / m.L)
    num, _ = quad(lambda x: np.cos(x) * np.exp(-0.2 * np.cos(x) / T), 0, 2 * np.pi)
    den, _ = quad(lambda x: np.exp(-0.2 * np.cos(x) / T), 0, 2 * np.pi)
    rep = gibbs.equilibrium_compare(m, g, T, budget=120_000, dt=0.02, seed=2)
    assert abs(rep.gibbs_value - num / den) < 1e-6      # d=1: r constant, quadrature
    for scheme in ("langevin", "smoluchowski"):
        assert abs(rep.scheme_values[scheme] - num / den) <= 3.0 * rep.scheme_errors[scheme]
