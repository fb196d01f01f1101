"""Exact grid reference for the time-independent eigenproblem.

The operator is the collocation Hamiltonian H = V(X) - (1/2M) Laplacian on a
1-D periodic grid of n nodes, with the Fourier spectral Laplacian by default
and 4th-order finite differences as a config switch.  Both Laplacians are
circulant, so they are diagonal in the real plane-wave basis

    1, cos(m x), sin(m x) (0 < m < n/2), cos(n x / 2) (n even),

sampled at the nodes and normalized (an orthogonal n x n matrix F).  With
the d levels innermost, Q^T H Q (Q = F times a level basis U) is banded: its
entries are sums of Fourier coefficients of U^T V(x_j) U, and a mode m
couples only to modes m' with |m - m'| up to the highest harmonic of V,
aliasing wrap-around included.

Each model declares the level involutions of its V: the reflection
V(-x) = P_r V(x) P_r and the half shift V(x + L/2) = P_h V(x) P_h.  U holds
common eigenvectors of the declared involutions, and a position (real mode,
level of U) gets the label (+1 for cos, -1 for sin) times p_r from the
reflection and (-1)^m times p_h from the half shift.  An involution is
used only when the rotated, rounding-cut Fourier coefficients satisfy it
exactly; then no entry couples positions of different labels, and the
positions of equal labels, ordered by m, then cos/sin, then level, form one
independent diagonal block of Q^T H Q.  ``two_level_gap`` gets four
tridiagonal blocks (P_r = I, P_h = sx), ``two_level_cross`` and
``multi_level`` two (P_r = sx and diag(+-1)), the scalar families two
(cosines, then sines), and a potential with no involution one block in the
interleaved order.

This is an exact orthogonal similarity transform of the collocation
operator, not a Galerkin truncation; only Fourier coefficients at the
rounding level of the FFT are dropped.  The solve comes in two steps.
``eigenvalues_near`` takes the eigenvalues from a windowed banded solve
(LAPACK ``dsbevx``) of each block; ``eigenpairs`` then takes eigenvectors
for the levels a caller chooses from them, by block inverse iteration on
each near-degenerate cluster within a block that holds a chosen level,
and certifies every returned pair by its residual against the full
collocation operator, applied by FFT.  ``eigensolve_near`` chooses every
level of the window.

The solve calls three LAPACK routines, ``dsbevx`` for the window and
``dgbtrf``/``dgbtrs`` for the inverse iteration, straight from scipy's
LAPACK extension, which ``_lapack`` loads without the scipy.linalg package.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .errors import ResolutionError
from ._util import periodic_grid

__all__ = [
    "DiscreteHamiltonian",
    "QuantumEigenpair",
    "required_grid",
    "assemble_hamiltonian",
    "LevelWindow",
    "eigenvalues_near",
    "eigenpairs",
    "eigensolve_near",
    "density_from_state",
    "observable",
    "residual_norm",
]

_RESIDUAL_TOL = 1e-8
# eigenvalues of one block closer than this fraction of the operator scale
# share one inverse-iteration cluster
_CLUSTER_TOL = 1e-6
# Fourier coefficients of V below this fraction of the largest are FFT
# rounding noise of exact zeros; dropping them keeps the band tight
_COEF_TOL = 1e-15
# extra vectors in each inverse-iteration block, so that a partner level just
# outside a cluster cannot stall convergence
_GUARD = 2
_MAX_ITER = 30


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Collocation operator in banded real plane-wave form.

    ``matrix`` is the upper band of Q^T H Q in LAPACK symmetric band storage,
    shape (bandwidth + 1, n_grid * d).  A position r * d + a is real mode r
    (0, cos 1, sin 1, cos 2, sin 2, ..., Nyquist) times column a of
    ``levels``, the level basis U (common eigenvectors of the involutions
    that hold, else I); column k of ``matrix`` is position ``order[k]``.
    ``blocks`` holds the column ranges (lo, hi) of the diagonal blocks that
    no entry couples, one per label of the involutions.  ``potential``
    holds V(x_j) in the original levels and ``kinetic`` the kinetic symbol
    at the FFT frequencies, from which the full collocation operator is
    applied for residuals.
    """

    matrix: np.ndarray
    order: np.ndarray        # (n_grid * d,), position (mode * d + level) of each column
    blocks: tuple            # ((lo, hi), ...), independent column ranges
    levels: np.ndarray       # (d, d), the rotated level basis as columns
    grid: np.ndarray
    M: float
    n_grid: int
    d: int
    L: float
    potential: np.ndarray    # (n_grid, d, d)
    kinetic: np.ndarray      # (n_grid,), eigenvalues of -(1/2M) Laplacian


@dataclass(frozen=True)
class QuantumEigenpair:
    """Eigenvalue, d-vector eigenfunction on the grid, and its density."""

    E: float
    Phi: np.ndarray          # (n_grid, d), L2-normalized on the grid
    M: float
    n_grid: int
    grid: np.ndarray
    density: np.ndarray      # sum over levels of |Phi|^2, unit mass
    residual: float


def required_grid(L, e_max, M, points_per_wavelength=16):
    """Minimum grid size: 16 points per de Broglie wavelength at e_max."""
    return int(np.ceil(points_per_wavelength * L * np.sqrt(2.0 * e_max * M)
                       / (2.0 * np.pi)))


def _laplacian_symbol(n, L, laplacian):
    """Eigenvalues of the circulant Laplacian at the FFT frequencies."""
    if laplacian == "spectral":
        k = 2.0 * np.pi / L * np.fft.fftfreq(n, d=1.0 / n)
        return -(k ** 2)
    if laplacian == "fd4":
        theta = 2.0 * np.pi * np.arange(n) / n
        h = L / n
        return (-5.0 / 2.0 + 8.0 / 3.0 * np.cos(theta)
                - 1.0 / 6.0 * np.cos(2.0 * theta)) / h ** 2
    raise ValueError(f"unknown laplacian {laplacian!r}")


def _real_modes(n):
    """Wavenumber, sine flag and normalization weight of each real mode."""
    r = np.arange(n)
    m = (r + 1) // 2
    sine = (r > 0) & (r % 2 == 0)
    weight = np.where((m == 0) | (2 * m == n), np.sqrt(0.5), 1.0)
    return m, sine, weight


def _level_basis(involutions, d):
    """Common eigenvectors of the declared level involutions, as columns.

    The eigenvalues of sum_k 2^k P_k tell the joint sign patterns of
    commuting involutions P_k apart, so its eigenvectors are common ones.
    """
    declared = [P for P in involutions if P is not None]
    if not declared:
        return np.eye(d)
    S = sum(2.0 ** k * np.asarray(P, dtype=float) for k, P in enumerate(declared))
    return np.linalg.eigh(S)[1]


def _split_levels(coef, involutions):
    """Level basis, cut coefficients and level signs of the involutions that hold.

    The levels are rotated into common eigenvectors U of the involutions;
    one that the rotated, cut coefficients do not satisfy exactly is dropped
    and U is taken again from the rest.  Returns U, the cosine and sine
    coefficients in the basis U and, per involution, the sign of each
    column of U (None for one not declared or dropped).
    """
    n, d, _ = coef.shape
    tol = _COEF_TOL * np.abs(coef).max()
    q_odd = (np.arange(n) % 2 == 1)[:, None, None]
    kept = list(involutions)
    while True:
        U = _level_basis(kept, d)
        rotated = np.einsum("ia,qij,jb->qab", U, coef, U)
        rotated = 0.5 * (rotated + rotated.transpose(0, 2, 1))
        A = np.where(np.abs(rotated.real) > tol, rotated.real, 0.0)     # cosine coefficients
        B = np.where(np.abs(rotated.imag) > tol, -rotated.imag, 0.0)    # sine coefficients
        signs = [None if P is None else np.where(np.einsum("ia,ij,ja->a", U, P, U) < 0.0, -1, 1)
                 for P in kept]
        p_r, p_h = signs
        fails = [False, False]
        if p_r is not None:
            # V(-x) = P_r V(x) P_r: an entry with p_a p_b = 1 is even in x (no
            # sine part), one with p_a p_b = -1 odd (no cosine part)
            even = np.outer(p_r, p_r) > 0
            fails[0] = bool(B[:, even].any() or A[:, ~even].any())
        if p_h is not None:
            # V(x + L/2) = P_h V(x) P_h: entry a, b holds only harmonics q
            # with (-1)^q = p_a p_b.  On an odd grid, where the shift is no
            # symmetry, coef_{n-q} = conj(coef_q) has the other parity, so
            # this holds only when no entry couples two labels either
            wrong = q_odd == (np.outer(p_h, p_h) > 0)
            fails[1] = bool(A[wrong].any() or B[wrong].any())
        if not any(fails):
            return U, A, B, signs
        kept = [None if fail else P for P, fail in zip(kept, fails)]


def _band(V, kinetic, involutions):
    """Upper band of Q^T H Q, its position order, its blocks and its level basis.

    From the samples V(x_j), the kinetic symbol and the declared level
    involutions (P_r, P_h); the labels, their check and the block order are
    those of the module docstring.
    """
    n, d, _ = V.shape
    coef = np.fft.fft(V, axis=0) / n          # V_ab(x_j) = sum_q coef_q e^{i q x_j}
    U, A, B, (p_r, p_h) = _split_levels(coef, involutions)
    m, sine, weight = _real_modes(n)
    label = np.zeros((n, d), dtype=int)       # block key of position (mode, level)
    if p_r is not None:
        label += 2 * (np.where(sine, -1, 1)[:, None] * p_r < 0)
    if p_h is not None:
        label += ((-1) ** m)[:, None] * p_h < 0
    label = label.reshape(-1)
    order = np.argsort(label, kind="stable")   # m, cos/sin, level within a block
    ends = np.cumsum(np.bincount(label))
    blocks = tuple((int(lo), int(hi)) for lo, hi in zip(np.r_[0, ends[:-1]], ends) if hi > lo)
    harmonics = np.flatnonzero((A != 0.0).any(axis=(1, 2)) | (B != 0.0).any(axis=(1, 2)))
    K = int(np.minimum(harmonics, n - harmonics).max()) if harmonics.size else 0
    N = n * d
    # a harmonic K of V (aliased sums m + m' near n included) couples modes
    # at most K apart in m, so the band reaches the last position of the
    # same block within K of each position's wavenumber
    ms = m[order // d]
    key = label[order] * (n + K + 1) + ms      # ascending: blocks apart by more than K
    b_max = int((np.searchsorted(key, key + K, side="right") - 1 - np.arange(N)).max())
    offset = np.arange(b_max + 1)[:, None]
    j = np.arange(N)[None, :]
    i = j - offset                             # entry (i, j) sits at band[b - offset, j]
    inside = i >= 0
    i = np.where(inside, i, j)                 # any valid index; masked out below
    ri, ai, rj, aj = order[i] // d, order[i] % d, order[j] // d, order[j] % d
    mi, mj = m[ri], m[rj]
    si, sj = sine[ri], sine[rj]
    diff, total = (mi - mj) % n, (mi + mj) % n
    val = np.where(
        si == sj,
        A[diff, ai, aj] + np.where(si, -1.0, 1.0) * A[total, ai, aj],
        B[total, ai, aj] + (si.astype(float) - sj) * B[diff, ai, aj])
    val *= weight[ri] * weight[rj]
    val[0] += kinetic[m[rj[0]]]                # Q^T K Q is diagonal
    val = np.where(inside, val, 0.0)
    nonzero = np.flatnonzero(np.abs(val).max(axis=1) > 0.0)
    b = int(nonzero.max()) if nonzero.size else 0
    return np.ascontiguousarray(val[b::-1]), order, blocks, U


def assemble_hamiltonian(model, M, n_grid, e_max=None, laplacian="spectral"):
    """Banded form of the collocation operator on level-valued grid functions.

    ``e_max`` is the highest kinetic energy scale the grid must resolve;
    when given, the resolution rule is enforced and violation refuses
    assembly with the required grid size attached.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    if not (np.isfinite(M) and M >= 1.0):
        raise ValueError(f"mass M must be finite and >= 1, got {M}")
    if e_max is not None:
        if not (np.isfinite(e_max) and e_max >= 0.0):
            raise ValueError(f"e_max must be finite and >= 0, got {e_max}")
        need = required_grid(model.L, e_max, M)
        if n_grid < need:
            raise ResolutionError(
                f"n_grid = {n_grid} under-resolves the fast scale; need >= {need}",
                required=need)
    kinetic = -_laplacian_symbol(n_grid, model.L, laplacian) / (2.0 * M)
    grid = periodic_grid(model.L, n_grid)
    V = model_mod.evaluate_potential(model, grid)
    V = 0.5 * (V + V.transpose(0, 2, 1))
    matrix, order, blocks, levels = _band(V, kinetic, model.involutions)
    return DiscreteHamiltonian(matrix=matrix, order=order, blocks=blocks, levels=levels, grid=grid,
                               M=float(M), n_grid=n_grid, d=model.d, L=model.L,
                               potential=V, kinetic=kinetic)


def _residual(H, Phi, E):
    """|| (H - E) Phi || / || Phi ||, the full collocation H applied by FFT."""
    kin = np.fft.ifft(H.kinetic[:, None] * np.fft.fft(Phi, axis=0), axis=0)
    if not np.iscomplexobj(Phi):
        kin = kin.real
    HPhi = kin + np.einsum("jab,jb->ja", H.potential, Phi)
    return float(np.linalg.norm(HPhi - E * Phi) / np.linalg.norm(Phi))


def _band_matvec(band, X):
    b = band.shape[0] - 1
    Y = band[b][:, None] * X
    for k in range(1, b + 1):
        diag = band[b - k, k:][:, None]
        Y[:-k] += diag * X[k:]
        Y[k:] += diag * X[:-k]
    return Y


def _to_grid(H, vec):
    """Grid values (n_grid, d) of a vector of position coefficients in H's order."""
    n = H.n_grid
    C = np.empty(n * H.d)
    C[H.order] = vec
    C = C.reshape(n, H.d)                      # real mode by level of H.levels
    Z = np.zeros((n // 2 + 1, H.d), dtype=complex)
    Z[0] = C[0]
    top = (n - 1) // 2
    Z[1:top + 1] = (C[1:2 * top:2] - 1j * C[2:2 * top + 1:2]) / np.sqrt(2.0)
    if n % 2 == 0:
        Z[n // 2] = C[n - 1]
    return np.fft.irfft(Z * np.sqrt(n), n, axis=0) @ H.levels.T


def _cluster_vectors(band, energies, scale):
    """Orthonormal eigenvectors for a cluster of close eigenvalues.

    Block inverse iteration shifted just off the cluster (so that an exact
    eigenvalue never makes the shifted band singular; the band is factored
    once and every iteration reuses the LU factors), from a fixed-seed
    start block with ``_GUARD`` extra columns, then a Rayleigh-Ritz rotation
    inside the block; the Ritz vectors nearest the shift are returned in
    ascending order of their Ritz values.
    """
    lapack = _lapack()
    b = band.shape[0] - 1
    N = band.shape[1]
    c = len(energies)
    width = min(c + _GUARD, N)
    sigma = float(np.mean(energies)) + 1e-10 * scale   # far below any level gap
    # LAPACK general band storage: b rows for the LU fill-in, then the band
    shifted = np.zeros((3 * b + 1, N))
    shifted[b:2 * b + 1] = band
    shifted[2 * b] -= sigma
    for k in range(1, b + 1):
        shifted[2 * b + k, :N - k] = band[b - k, k:]
    lu, piv, info = lapack.dgbtrf(shifted, b, b, overwrite_ab=True)
    if info:
        raise np.linalg.LinAlgError("shifted band is singular")
    X = np.linalg.qr(np.random.default_rng(0).standard_normal((N, width)))[0]
    tol = 1e-12 * scale
    best = np.inf
    for _ in range(_MAX_ITER):
        X = np.linalg.qr(lapack.dgbtrs(lu, b, b, X, piv)[0])[0]
        HX = _band_matvec(band, X)
        theta, W = np.linalg.eigh(X.T @ HX)
        keep = np.sort(np.argsort(np.abs(theta - sigma), kind="stable")[:c])
        vecs = X @ W[:, keep]
        res = np.linalg.norm(HX @ W[:, keep] - vecs * theta[keep], axis=0).max()
        if res <= tol or res > 0.9 * best:     # converged, or at the rounding floor
            break
        best = res
    return vecs


def _make_pair(H, E, vec):
    h = H.L / H.n_grid
    Phi = _to_grid(H, vec) / np.sqrt(h)
    rho = np.sum(np.abs(Phi) ** 2, axis=1)
    rho = rho / (rho.sum() * h)
    return QuantumEigenpair(E=float(E), Phi=Phi, M=H.M, n_grid=H.n_grid,
                            grid=H.grid, density=rho, residual=_residual(H, Phi, E))


def _window_half_width(H, E_target, count, scale):
    """Half-width of a window around E_target expected to hold about 2 count levels.

    Weyl's law for -(1/2M) d^2/dX^2 + V on the torus: the level density at E
    is (1/pi) sum over the levels lambda_a(X) of V of the integral of
    sqrt(M / (2 (E - lambda_a))) over the classically allowed region.  When
    no region is allowed the start is 0.05 of the operator scale.
    """
    kinetic = E_target - np.linalg.eigvalsh(H.potential)
    allowed = kinetic[kinetic > 0.0]
    if allowed.size == 0:
        return 0.05 * scale
    density = (H.L / H.n_grid) / np.pi * np.sum(np.sqrt(H.M / (2.0 * allowed)))
    return count / density


def _lapack():
    """scipy's LAPACK extension module, loaded without the scipy.linalg package.

    A module already in ``sys.modules`` is returned as it is.  Otherwise the
    extension file alone is loaded and registered under its own name, so
    scipy.linalg reuses it if it is imported later: the package would add about
    25.6 MB and 0.15 s to a fresh process, the extension 3.3 MB and 17 ms
    (scipy 1.17, 2-core host).  This relies on scipy's layout: the f2py
    extension ``_flapack`` sits in the ``linalg`` directory of the scipy
    package, is named ``scipy.linalg._flapack`` and imports nothing from
    scipy.  ``tests/test_package.py`` and ``tests/test_qref.py`` fail if that
    layout moves.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        root = os.path.dirname(importlib.util.find_spec("scipy").origin)
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _load_solver():
    """Load every module a reference solve imports: the LAPACK extension,
    numpy.fft and numpy.random (numpy loads both on first use)."""
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401
    _lapack()


def _window_values(band, vl, vu):
    """Ascending eigenvalues in (vl, vu] of a symmetric band in upper LAPACK
    storage, by ``dsbevx`` with the arguments that ``scipy.linalg.eig_banded(
    band, eigvals_only=True, select="v", select_range=(vl, vu))`` passes."""
    lapack = _lapack()
    w, _, m, _, info = lapack.dsbevx(band, vl, vu, 1, 1, compute_v=0, mmax=1, range=1,
                                     lower=0, overwrite_ab=0,
                                     abstol=2.0 * lapack.dlamch("s"))
    if info:
        raise np.linalg.LinAlgError(f"sbevx did not converge (LAPACK info={info})")
    return w[:m]


def _block_band(matrix, lo, hi):
    """Upper band of the diagonal block on columns lo:hi, at most its own size wide."""
    b = matrix.shape[0] - 1
    return matrix[max(0, b - (hi - lo - 1)):, lo:hi]


@dataclass(frozen=True)
class LevelWindow:
    """The ``count`` eigenvalues of H nearest a target, before any vector.

    ``E`` holds them sorted by |E - E_target|, ties to the lower level.
    ``clusters`` groups the positions in ``E`` into the inverse-iteration
    clusters of ``eigenpairs``: (block of H, positions in ascending energy)
    for each run of levels of one block closer than ``_CLUSTER_TOL`` of
    ``scale``, the operator scale.
    """

    E: np.ndarray            # (count,)
    clusters: tuple          # ((block, (position, ...)), ...)
    scale: float


def eigenvalues_near(H, E_target, count=1):
    """The window of the ``count`` eigenvalues nearest E_target.

    Uses a window solve of each block of H, sized from the semiclassical
    level density, that widens until the blocks together hold enough levels,
    so near-degenerate traveling-wave doublets are both returned (the chosen
    levels depend neither on the window nor on the blocks).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    N = H.n_grid * H.d
    if count > N:
        raise ValueError(f"count = {count} exceeds the {N} levels of the operator")
    if not np.isfinite(E_target):
        raise ValueError(f"target energy must be finite, got {E_target}")
    diag = np.diagonal(H.potential, axis1=1, axis2=2) + H.kinetic.mean()
    scale = max(1.0, np.abs(diag).max())
    width = _window_half_width(H, E_target, count, scale)
    bands = [_block_band(H.matrix, lo, hi) for lo, hi in H.blocks]
    if not all(np.isfinite(band).all() for band in bands):
        raise ValueError("array must not contain infs or NaNs")
    for _ in range(40):
        found = [_window_values(band, E_target - width, E_target + width) for band in bands]
        if sum(v.size for v in found) >= count:
            break
        width *= 2.0
    else:
        raise RuntimeError("window solve failed to capture the requested levels")
    # one ascending spectrum, so that ties go to the lower level as in a
    # single block, whichever block holds it
    vals = np.concatenate(found)
    owner = np.repeat(np.arange(len(found)), [v.size for v in found])
    ascending = np.argsort(vals, kind="stable")
    vals, owner = vals[ascending], owner[ascending]
    order = np.argsort(np.abs(vals - E_target), kind="stable")[:count]
    position = np.empty(vals.size, dtype=int)
    position[order] = np.arange(count)
    chosen = np.sort(order)
    clusters = []
    for k in range(len(H.blocks)):
        mine = chosen[owner[chosen] == k]
        split = np.flatnonzero(np.diff(vals[mine]) > _CLUSTER_TOL * scale) + 1
        clusters += [(k, tuple(position[group].tolist()))
                     for group in np.split(mine, split) if group.size]
    return LevelWindow(E=vals[order], clusters=tuple(clusters), scale=scale)


def eigenpairs(H, window, levels):
    """The eigenpairs of the given positions of ``window``, in that order.

    Vectors come from block inverse iteration on each cluster of the window
    that holds one of the levels, the whole cluster at once, so exactly
    degenerate partners come out orthogonal (partners in different blocks
    have disjoint supports) and a level's vector does not depend on which
    other levels are asked for.  Each returned pair is certified by its
    residual against the full collocation operator.
    """
    levels = [int(i) for i in levels]
    wanted = set(levels)
    N = H.n_grid * H.d
    vectors = {}
    for k, members in window.clusters:
        if wanted.isdisjoint(members):
            continue
        lo, hi = H.blocks[k]
        vecs = np.zeros((N, len(members)))
        vecs[lo:hi] = _cluster_vectors(_block_band(H.matrix, lo, hi),
                                       window.E[list(members)], window.scale)
        vectors.update(zip(members, vecs.T))
    pairs = [_make_pair(H, window.E[i], vectors[i]) for i in levels]
    for pair in pairs:
        if pair.residual > _RESIDUAL_TOL:
            raise RuntimeError(
                f"eigen-residual {pair.residual:.3e} exceeds {_RESIDUAL_TOL}")
    return pairs


def eigensolve_near(H, E_target, count=1):
    """The ``count`` eigenpairs nearest E_target, sorted by |E - E_target|:
    ``eigenpairs`` of every level of ``eigenvalues_near``."""
    return eigenpairs(H, eigenvalues_near(H, E_target, count), range(count))


def density_from_state(pair):
    """Level-summed probability density, normalized to unit mass."""
    return pair.density.copy()


def observable(rho, g, grid):
    """Periodic trapezoid quadrature of the position observable g against rho."""
    rho = np.asarray(rho, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if rho.shape != grid.shape:
        raise ValueError("density and grid shapes differ")
    gx = g(grid) if callable(g) else np.asarray(g, dtype=float)
    h = grid[1] - grid[0]
    return float(h * np.sum(gx * rho))


def residual_norm(H, Phi, E):
    """|| (H - E) Phi || / || Phi || on the grid, with the full collocation H."""
    Phi = np.asarray(Phi)
    if Phi.shape != (H.n_grid, H.d):
        raise ValueError(
            f"grid mismatch: Phi has shape {Phi.shape}, operator expects {(H.n_grid, H.d)}")
    return _residual(H, Phi, E)
