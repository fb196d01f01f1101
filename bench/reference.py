"""Reference computations and output checks for the benchmark workloads.

Everything here is computed from the closed forms of the model families,
independently of ``qcmd``: Bohr-Sommerfeld energies on the loop branches,
microcanonical (1/p) and canonical (Gibbs) quadratures, and the exact
stationary average of the Euler-Maruyama chain.  Each ``check_*`` function
takes a workload's outputs and returns a list of failure messages, empty
when the outputs pass.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def integrate(f, a, b, panels=16, order=32):
    """Composite Gauss-Legendre quadrature of a vectorised f over [a, b].

    Exact to rounding for the analytic integrands used here, including
    branch profiles such as 2 sin(X/2) that are smooth on [0, L] but whose
    periodic extension has a kink.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(np.sum(w * f(x)))


class Loop:
    """A classical loop on the torus: the level branches it travels, in order.

    ``branches`` are vectorised potential profiles on [0, L]; the loop action
    is the sum of the branch actions, and ``offset`` is the Maslov-type index
    shift (a quarter per crossing pass).
    """

    def __init__(self, branches, L=TWO_PI, offset=0.0):
        self.branches = list(branches)
        self.L = float(L)
        self.offset = float(offset)
        probe = np.linspace(0.0, self.L, 4097)
        self.barrier = max(float(np.max(mu(probe))) for mu in self.branches)

    def _momentum(self, mu, E):
        p_sq = 2.0 * (E - mu)
        if np.min(p_sq) <= 0.0:
            raise ValueError(f"E = {E} does not clear the loop barrier {self.barrier}")
        return np.sqrt(p_sq)

    def action(self, E):
        """sum over branches of the integral of p = sqrt(2 (E - mu))."""
        return sum(integrate(lambda x, mu=mu: self._momentum(mu(x), E), 0.0, self.L)
                   for mu in self.branches)

    def period(self, E):
        """dA/dE = sum over branches of the integral of 1/p."""
        return sum(integrate(lambda x, mu=mu: 1.0 / self._momentum(mu(x), E), 0.0, self.L)
                   for mu in self.branches)

    def average(self, g, E):
        """Microcanonical average of g(X) against the loop density, sum of 1/p."""
        num = sum(integrate(lambda x, mu=mu: g(x) / self._momentum(mu(x), E), 0.0, self.L)
                  for mu in self.branches)
        return num / self.period(E)

    def spacing(self, E, M):
        """Loop-level spacing 2 pi / (sqrt(M) dA/dE) at energy E."""
        return TWO_PI / (np.sqrt(M) * self.period(E))

    def bs_energy(self, k, M):
        """Energy with sqrt(M) A(E) = 2 pi (k + offset), by bisection."""
        target = TWO_PI * (k + self.offset) / np.sqrt(M)
        lo = self.barrier + 1e-12 * max(1.0, abs(self.barrier))
        if self.action(lo) >= target:
            raise ValueError(f"index k = {k} lies at or below the barrier at M = {M}")
        hi = self.barrier + 1.0
        while self.action(hi) < target:
            hi = self.barrier + 2.0 * (hi - self.barrier)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.action(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4e-16 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)


def crossing_loop():
    """two_level_cross: branches +/-2 sin(X/2) joined through X = 0, two passes."""
    return Loop([lambda x: 2.0 * np.sin(0.5 * x), lambda x: -2.0 * np.sin(0.5 * x)],
                offset=0.5)


def gap_loop(delta):
    """two_level_gap ground level -sqrt(cos^2 X + delta^2); no crossing."""
    return Loop([lambda x: -np.sqrt(np.cos(x) ** 2 + delta ** 2)])


def periodic_mean(weight_fn, g, L=TWO_PI, n=4096):
    """sum g w / sum w on a uniform periodic grid (spectral for smooth w, g)."""
    x = np.arange(n) * (L / n)
    w = weight_fn(x)
    return float(np.sum(g(x) * w) / np.sum(w))


def sphere_partition(a):
    """Integral of exp(-sum_j a_j |u_j|^2) over the unit sphere of C^d, a_0 = 0.

    ``a`` has shape (..., d-1) and distinct entries; the value is the
    divided difference of exp(-x) at (0, a_1, ..., a_{d-1}), up to a
    constant factor, since |u|^2 is uniform on the simplex.
    """
    a = np.asarray(a, dtype=float)
    nodes = np.concatenate([np.zeros(a.shape[:-1] + (1,)), a], axis=-1)
    total = 0.0
    for j in range(nodes.shape[-1]):
        den = 1.0
        for k in range(nodes.shape[-1]):
            if k != j:
                den = den * (nodes[..., j] - nodes[..., k])
        total = total + np.exp(-nodes[..., j]) / den
    return (-1.0) ** (nodes.shape[-1] - 1) * total


class MultiLevelEquilibrium:
    """Closed forms of the multi_level family: lambda_0 = a0 cos X, gap_n = g_n + eps_n cos X."""

    def __init__(self, a0, gaps, T, L=TWO_PI):
        self.a0 = float(a0)
        self.gaps = [tuple(map(float, g)) for g in gaps]
        self.T = float(T)
        self.L = float(L)

    def lam0(self, x):
        return self.a0 * np.cos(TWO_PI * x / self.L)

    def gap_values(self, x):
        c = np.cos(TWO_PI * np.asarray(x) / self.L)
        return np.stack([g + eps * c for g, eps in self.gaps], axis=-1)

    def corrected(self, x, coefficient=1.0):
        """lambda_0 + coefficient T sum log gap_n."""
        return self.lam0(x) + coefficient * self.T * np.sum(np.log(self.gap_values(x)), axis=-1)

    def force_plain(self, x):
        w = TWO_PI / self.L
        return self.a0 * w * np.sin(w * x)

    def force_corrected(self, x):
        w = TWO_PI / self.L
        s, c = np.sin(w * x), np.cos(w * x)
        extra = sum(eps * w * s / (g + eps * c) for g, eps in self.gaps)
        return self.force_plain(x) + self.T * extra

    def drift_log_r(self, x):
        """d/dX log(1 / prod gap_n): the marginal-mass drift at low temperature."""
        return (self.force_corrected(x) - self.force_plain(x)) / self.T

    def weight_plain(self, x):
        return np.exp(-self.lam0(x) / self.T)

    def weight_corrected(self, x):
        """e^(-lambda_0/T) / prod gap_n, the low-temperature marginal weight."""
        return np.exp(-self.lam0(x) / self.T) / np.prod(self.gap_values(x), axis=-1)

    def weight_sphere(self, x):
        """e^(-lambda_0/T) times the exact sphere partition function at gap/T."""
        return np.exp(-self.lam0(x) / self.T) * sphere_partition(self.gap_values(x) / self.T)

    def trapezoid_log_r_mean(self, g, n_grid):
        """The n_grid-point rule the Gibbs observable documents, on the exact drift.

        log r accumulates by the trapezoid rule from the first grid point and
        the average is the grid sum; its distance to the continuum quadrature
        is the discretisation bias of that rule.
        """
        x = np.arange(n_grid) * (self.L / n_grid)
        h = self.L / n_grid
        drift = self.drift_log_r(x)
        log_r = np.zeros(n_grid)
        log_r[1:] = np.cumsum(0.5 * h * (drift[1:] + drift[:-1]))
        lw = -self.lam0(x) / self.T + log_r
        w = np.exp(lw - lw.max())
        return float(np.sum(g(x) * w) / np.sum(w))


def em_stationary_mean(force, g, T, dt, L=TWO_PI, n=512):
    """Exact stationary average of g under the Euler-Maruyama chain.

    X' = X + dt f(X) + sqrt(2 T dt) xi on the torus.  The Gaussian transition
    kernel is discretised by the periodic Nystrom rule on n points (spectrally
    accurate while the kernel width sqrt(2 T dt) spans several grid cells) and
    its invariant vector is the eigenvector of eigenvalue 1.
    """
    x = np.arange(n) * (L / n)
    h = L / n
    s = np.sqrt(2.0 * T * dt)
    if s < 4.0 * h:
        raise ValueError("kernel narrower than four grid cells; raise n")
    mean = x + dt * force(x)
    diff = x[None, :] - mean[:, None]
    diff = (diff + 0.5 * L) % L - 0.5 * L
    K = np.zeros((n, n))
    for shift in (-L, 0.0, L):
        K += np.exp(-0.5 * ((diff + shift) / s) ** 2)
    K /= K.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(K.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    pi = pi / pi.sum()
    return float(np.sum(pi * g(x)))


def block_mean(t, values, n_blocks=16):
    """Trapezoid time average of a sampled series and its block standard error.

    The series is cut into ``n_blocks`` consecutive blocks; the error is the
    standard deviation of the block averages over sqrt(n_blocks).
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    mean = np.trapezoid(values, t) / (t[-1] - t[0])
    blocks = [idx for idx in np.array_split(np.arange(t.size), n_blocks) if idx.size >= 2]
    bm = np.array([np.trapezoid(values[idx], t[idx]) / (t[idx[-1]] - t[idx[0]])
                   for idx in blocks])
    return float(mean), float(bm.std(ddof=1) / np.sqrt(bm.size))


# ---------------------------------------------------------------- checks

def check_sweep(per_M, alpha, loop, alpha_band, eq_tolerance, observables=None,
                obs_constant=None):
    """Checks shared by the mass sweeps.

    - every cell's caustic list is empty (``lab.converge`` raises
      CausticError before it records a caustic, so run.py sees one as a
      round that raised; this check covers a record that carries one);
    - E_q lies within ``eq_tolerance`` loop-level spacings of the benchmark's
      own Bohr-Sommerfeld energy for the recorded index k;
    - the error falls strictly as M grows;
    - alpha lies in ``alpha_band``;
    - with ``observables``: the recorded quantum and classical values each
      lie within obs_constant / M of the 1/p quadrature at E_q.
    """
    failures = []
    cells = sorted(per_M, key=lambda e: e["M"])
    for e in cells:
        M = e["M"]
        if e["caustics"]:
            failures.append(f"M={M:g}: caustics {e['caustics']}")
        E_bs = loop.bs_energy(e["k"], M)
        gap = abs(e["E_q"] - E_bs) / loop.spacing(E_bs, M)
        if not gap <= eq_tolerance:
            failures.append(f"M={M:g}: |E_q - E_BS(k={e['k']})| = {gap:.3f} spacings "
                            f"> {eq_tolerance}")
        for name, g in (observables or {}).items():
            ref = loop.average(g, e["E_q"])
            for side in ("quantum", "classical"):
                dev = abs(e[side][name] - ref) * M
                if not dev <= obs_constant:
                    failures.append(f"M={M:g}: {side} {name} is {dev:.3f}/M from the "
                                    f"1/p quadrature (allowed {obs_constant}/M)")
    errors = [e["error"] for e in cells]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        failures.append(f"errors do not fall with M: {errors}")
    lo, hi = alpha_band
    if alpha is None or not lo <= alpha <= hi:
        failures.append(f"alpha = {alpha} outside [{lo}, {hi}]")
    return failures


def within(name, value, ref, sigma, multiple, bias):
    """Failure message unless |value - ref| <= multiple * sigma + |bias|."""
    allowed = multiple * sigma + abs(bias)
    if abs(value - ref) <= allowed:
        return []
    return [f"{name} = {value:.5f} differs from {ref:.5f} by {abs(value - ref):.5f} "
            f"> {multiple} sigma ({sigma:.5f}) + bias {abs(bias):.5f}"]
