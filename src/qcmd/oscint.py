"""Oscillatory-integral engine.

A wavelength-resolving quadrature oracle, the stationary-phase expansion for
simple critical points, and cross terms between WKB modes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from ._util import brentq, periodic_integral

__all__ = [
    "OscillatoryIntegrand",
    "OverlapResult",
    "oscillatory_quadrature",
    "stationary_phase_expand",
    "mode_overlap",
]

_GL_ORDER = 16
_NODES_PER_RADIAN = 5.0   # 1 / 0.2, the resolution rule
_MAX_NODES = 4_000_000


@dataclass(frozen=True)
class OscillatoryIntegrand:
    """integral of f(s) exp(i sqrt(M) Q(s)) over an interval.

    Q and f are callables; dQ/d2Q may be omitted for quadrature but are
    required by the stationary-phase expansion.
    """

    Q: callable
    f: callable
    M: float
    interval: tuple
    dQ: callable = None
    d2Q: callable = None

    @classmethod
    def from_samples(cls, s, Q_samples, f_samples, M, spline_order=5):
        """Tabulated phase/amplitude; splines of order >= 4 keep two smooth derivatives."""
        from scipy.interpolate import make_interp_spline  # scipy loads on first use

        if spline_order < 4:
            raise ValueError("tabulated integrands need spline order >= 4")
        Qs = make_interp_spline(s, Q_samples, k=spline_order)
        fs = make_interp_spline(s, f_samples, k=spline_order)
        return cls(Q=Qs, f=lambda x: fs(x), M=float(M),
                   interval=(float(s[0]), float(s[-1])),
                   dQ=Qs.derivative(1), d2Q=Qs.derivative(2))


def _max_abs_dq(itg, n_probe=512):
    a, b = itg.interval
    s = np.linspace(a, b, n_probe)
    if itg.dQ is not None:
        return float(np.max(np.abs(itg.dQ(s))))
    q = np.asarray([itg.Q(x) for x in s], dtype=float)
    return float(np.max(np.abs(np.gradient(q, s))))


def _gl_panels(itg, n_panels):
    a, b = itg.interval
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    fs = _vector_eval(itg.f, s)
    qs = _vector_eval(itg.Q, s).real
    return complex(np.sum(w * fs * np.exp(1j * np.sqrt(itg.M) * qs)))


def _vector_eval(func, s):
    try:
        out = np.asarray(func(s))
        if out.shape == s.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([func(x) for x in s])


def oscillatory_quadrature(itg, steps=None):
    """High-order panel quadrature resolving the local oscillation wavelength.

    Returns (value, error_estimate); the estimate comes from doubling the
    panel count.  An explicit ``steps`` below the resolution rule is refused.
    """
    a, b = itg.interval
    span = b - a
    max_dq = _max_abs_dq(itg)
    needed = np.sqrt(itg.M) * max_dq * span * _NODES_PER_RADIAN
    if steps is not None:
        if needed > 0 and steps < needed:
            raise ResolutionError(
                f"steps = {steps} violates the resolution rule; need >= {int(np.ceil(needed))}",
                required=int(np.ceil(needed)))
        total_nodes = steps
    else:
        total_nodes = max(needed, 8 * _GL_ORDER)
        if total_nodes > _MAX_NODES:
            raise ResolutionError(
                f"resolution rule needs {int(total_nodes)} nodes (> {_MAX_NODES})",
                required=int(total_nodes))
    n_panels = max(2, int(np.ceil(total_nodes / _GL_ORDER)))
    coarse = _gl_panels(itg, n_panels)
    fine = _gl_panels(itg, 2 * n_panels)
    return fine, abs(fine - coarse)


def _critical_points(itg, n_scan=2048):
    a, b = itg.interval
    if itg.dQ is None:
        raise ValueError("stationary phase needs the phase derivative dQ")
    s = np.linspace(a, b, n_scan)
    dq = np.asarray([itg.dQ(x) for x in s], dtype=float)
    roots = []
    for i in range(n_scan - 1):
        if dq[i] == 0.0:
            roots.append(s[i])
        elif dq[i] * dq[i + 1] < 0.0:
            roots.append(brentq(itg.dQ, s[i], s[i + 1], xtol=1e-14))
    if dq[-1] == 0.0:
        roots.append(s[-1])
    out = []
    for r in roots:
        if not any(abs(r - o) < (b - a) * 1e-10 for o in out):
            out.append(float(r))
    return out


def _fd_even_derivative(func, order_2k, h):
    """Central finite-difference of an even-order derivative at 0."""
    m = order_2k + 2                      # stencil half-width
    offsets = np.arange(-m, m + 1)
    A = np.vander(offsets * h, 2 * m + 1, increasing=True).T
    rhs = np.zeros(2 * m + 1)
    rhs[order_2k] = float(math.factorial(order_2k))
    coef = np.linalg.solve(A, rhs)
    vals = np.asarray([func(o * h) for o in offsets])
    return complex(np.dot(coef, vals))


def stationary_phase_expand(itg, order=0, degenerate_tol=1e-8):
    """Stationary-phase value to the requested order, with an error model.

    Each simple critical point sigma contributes
    sqrt(2 pi) M^(-1/4) |Q''|^(-1/2) exp(i pi sgn Q''/4) exp(i sqrt(M) Q(sigma))
    times the even-derivative series of the flattened amplitude f~, where f~
    comes from the variable change s~ = s (Qbar(s)/Qbar(0))^(1/2).
    Returns (value, magnitude of the first neglected term).
    """
    if itg.d2Q is None:
        raise ValueError("stationary phase needs the second phase derivative d2Q")
    a, b = itg.interval
    sigmas = _critical_points(itg)
    if not sigmas:
        return 0.0 + 0.0j, 0.0
    for s1 in sigmas:
        q2 = float(itg.d2Q(s1))
        if abs(q2) < degenerate_tol:
            raise ValueError(f"degenerate critical point at s = {s1} (|Q''| < {degenerate_tol})")
    for s1, s2 in zip(sigmas, sigmas[1:]):
        sep_rule = 10.0 / np.sqrt(itg.M) / np.sqrt(abs(float(itg.d2Q(s1))))
        if s2 - s1 <= sep_rule:
            raise ValueError(f"critical points at {s1} and {s2} overlap")
    M = itg.M
    total = 0.0 + 0.0j
    err_model = 0.0
    for sigma in sigmas:
        q2 = float(itg.d2Q(sigma))
        q_sigma = float(itg.Q(sigma))
        width = min(sigma - a, b - sigma, 1.0 / np.sqrt(abs(q2)))
        width = max(width, 1e-3)

        def qbar(s):
            if abs(s) < 1e-7 * width:
                return q2
            return 2.0 * (float(itg.Q(sigma + s)) - q_sigma) / (s * s)

        def s_tilde(s):
            return s * np.sqrt(qbar(s) / q2)

        def s_of_stilde(st):
            if st == 0.0:
                return 0.0
            s = st
            for _ in range(60):
                val = s_tilde(s) - st
                h = 1e-7 * max(abs(s), width)
                der = (s_tilde(s + h) - s_tilde(s - h)) / (2.0 * h)
                step = val / der
                s -= step
                if abs(step) < 1e-14 * max(1.0, abs(s)):
                    break
            return s

        def f_tilde(st):
            if st == 0.0:
                return complex(itg.f(sigma))
            s = s_of_stilde(st)
            h = 1e-6 * width
            ds_dst = (s_of_stilde(st + h) - s_of_stilde(st - h)) / (2.0 * h)
            return complex(itg.f(sigma + s)) * ds_dst

        prefactor = (np.sqrt(2.0 * np.pi) * M ** (-0.25) / np.sqrt(abs(q2))
                     * np.exp(1j * np.pi * np.sign(q2) / 4.0)
                     * np.exp(1j * np.sqrt(M) * q_sigma))
        # series coefficient (i/(2 Q''))^k: the k-th term of the exact
        # Gaussian expansion of exp(i sqrt(M) Q'' s^2 / 2) against f~
        series = 0.0 + 0.0j
        fact = 1.0
        h_fd = 0.02 * width
        for k in range(order + 1):
            if k:
                fact *= k
            deriv = f_tilde(0.0) if k == 0 else _fd_even_derivative(f_tilde, 2 * k, h_fd)
            series += (M ** (-0.5 * k) / fact) * (0.5j / q2) ** k * deriv
        total += prefactor * series
        next_deriv = _fd_even_derivative(f_tilde, 2 * (order + 1), h_fd)
        err_model += abs(prefactor) * (M ** (-0.5 * (order + 1))
                                       / math.factorial(order + 1)
                                       * abs(next_deriv) / abs(2.0 * q2) ** (order + 1))
    return total, float(err_model)


@dataclass(frozen=True)
class OverlapResult:
    value: complex
    error: float
    classification: str
    critical_points: list = field(default_factory=list)


def mode_overlap(field_a, field_b, g, M, p_floor=1e-8):
    """Cross term of two WKB modes against a position observable.

    integral of g (psi_a* . psi_b) (rho_a rho_b)^(1/2) exp(i sqrt(M)(theta_b - theta_a)).
    Classified as "no critical point" when |p_b - p_a| stays above ``p_floor``,
    else the critical points are located and reported.
    """
    from scipy.interpolate import make_interp_spline  # scipy loads on first use

    if field_a.grid.shape != field_b.grid.shape or not np.allclose(field_a.grid, field_b.grid):
        raise ValueError("fields must share a common grid")
    grid = field_a.grid
    L = grid[1] * grid.size
    amp = (np.asarray(g(grid), dtype=complex)
           * np.einsum("in,in->i", np.conj(field_a.psi), field_b.psi)
           * np.sqrt(field_a.rho * field_b.rho))
    dphase = field_b.pfield - field_a.pfield
    phase = field_b.theta - field_a.theta

    if np.min(np.abs(dphase)) > p_floor or np.max(np.abs(dphase)) <= p_floor:
        # bounded below, or identically zero (plain non-oscillatory integral)
        classification, crits = "no critical point", []
    else:
        classification = "critical points"
        sign = np.sign(dphase)
        crits = [float(grid[i]) for i in range(grid.size - 1)
                 if sign[i] != sign[i + 1] or dphase[i] == 0.0]

    # periodic extension keeps spline derivatives clean across the seam
    seam_a = periodic_integral(field_a.pfield, L)
    seam_b = periodic_integral(field_b.pfield, L)
    s_ext = np.concatenate([grid, grid + L, [2.0 * L]])
    phase_ext = np.concatenate([phase, phase + (seam_b - seam_a),
                                [phase[0] + 2.0 * (seam_b - seam_a)]])
    amp_ext = np.concatenate([amp, amp, [amp[0]]])
    closure = np.sqrt(M) * (seam_b - seam_a)
    mismatch = abs(closure - 2.0 * np.pi * np.round(closure / (2.0 * np.pi)))
    if mismatch > 1e-6:
        raise ValueError(
            f"phase difference is not single-valued on the torus (seam {mismatch:.3e} rad)")
    q_spline = make_interp_spline(s_ext, phase_ext, k=5)
    re_spline = make_interp_spline(s_ext, amp_ext.real, k=5)
    im_spline = make_interp_spline(s_ext, amp_ext.imag, k=5)
    itg = OscillatoryIntegrand(
        Q=q_spline, f=lambda s: re_spline(s) + 1j * im_spline(s), M=float(M),
        interval=(float(L / 2), float(3 * L / 2)),
        dQ=q_spline.derivative(1), d2Q=q_spline.derivative(2))
    value, err = oscillatory_quadrature(itg)
    return OverlapResult(value=value, error=err, classification=classification,
                         critical_points=crits)
