"""Finite-level periodic model systems.

Every other module operates on a :class:`ModelSystem`: a d-level real
symmetric potential matrix V(X) on a torus of length L, together with the
nuclear mass, temperature and friction parameters.  Registered families
carry closed forms for V, its X-derivatives, its ascending eigenvalues
with their X-derivatives, the matching eigenvectors, and the electron
propagator exp(-i a V), evaluated on whole arrays of X at once: a scalar X
gives one (d, d) matrix, an array of n points an (n, d, d) stack whose
entries equal the per-point values bit for bit.  No family solves an
eigenproblem.  Each family also declares the level involutions of its V:
the reflection V(-X) = P_r V(X) P_r and the half-period shift
V(X + L/2) = P_h V(X) P_h.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

__all__ = [
    "ModelSpec",
    "ModelSystem",
    "build_model",
    "evaluate_potential",
    "potential_and_derivative",
    "potential_derivative",
    "potential_second_derivative",
    "levels_and_slopes",
    "eigenvectors",
    "ground_slope",
    "electron_propagator",
    "list_families",
]

TWO_PI = 2.0 * math.pi
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class ModelSpec:
    """Serialized form of a model, lossless through the JSON config format."""

    family: str
    params: dict = field(default_factory=dict)
    L: float = TWO_PI
    d: int = 1
    M: tuple = (1024.0,)
    T: float = 0.1
    K: float = 1.0
    tolerances: dict = field(default_factory=dict)

    def to_json(self):
        data = asdict(self)
        data["M"] = list(self.M)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}; known: {sorted(known)}")
        if "family" not in data:
            raise ValueError("config needs a 'family'")
        data["M"] = tuple(float(m) for m in data.get("M", (1024.0,)))
        if "params" in data:
            data["params"] = dict(data["params"])
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read())


@dataclass(frozen=True)
class ModelSystem:
    """A validated finite-level model; immutable and safe to share.

    The family callables take a 1-D array of n points: ``_fields`` returns V
    and dV/dX as (n, d, d) stacks, ``_derivative`` the same dV/dX bit for
    bit without V (None: from ``_fields``), ``_second_derivative`` the
    (n, d, d) stack of d2V/dX2 (None: finite differences of dV), ``_levels``
    the eigenvalues of V in ascending order and their X-derivatives, (n, d)
    each, ``_vectors`` the matching unit eigenvectors as the columns of an
    (n, d, d) stack, and ``_propagator`` (with a second array of n rates a)
    the complex (n, d, d) stack exp(-i a V), all in closed form (a family
    that gives no ``_propagator`` gets Q diag(exp(-i a lambda)) Q^T from its
    levels and vectors).  The order
    of ``_levels`` must hold at every X without a run-time sort, so the
    ground level and its slope are column 0.  ``gap_floor`` is a closed-form
    lower bound on lambda_1 - lambda_0 over all X (inf for d = 1).
    ``_ground_slope`` gives the ground level's slope alone, (n,), the same
    bits as column 0 of ``_levels`` (None: from ``_levels``).

    Inside (0, L) the sorted levels are smooth branches; ``seam`` is the
    permutation they undergo across X = L = 0: the branch on sorted level j
    just below L continues on level seam[j] just above 0 (the identity but
    for ``two_level_cross``, whose two levels cross there).

    ``_float_levels`` is every family's per-point closed form over Python
    floats of its levels and their slopes: x -> d pairs (lambda_n, dlambda_n
    / dX) in ascending order, each float from the operations of ``_levels``
    in their order, so that the first slope is also the bits of
    ``ground_slope``.

    ``_float_forms`` is set by the two traceless two-level families, whose V
    and dV/dX are both [[alpha, beta], [beta, -alpha]]: three per-point
    closed forms over Python floats, x -> (rho, cos theta, sin theta) of
    V(x) = rho R(theta) with R(theta) = [[cos theta, sin theta], [sin theta,
    -cos theta]], x -> (alpha', beta') of dV/dX, and x -> (rho, d rho/dX)
    of the signed rho, in the operations of ``_levels`` (None for every
    other family).

    ``involutions`` is (P_r, P_h): symmetric d x d matrices with square I and
    V(-X) = P_r V(X) P_r, V(X + L/2) = P_h V(X) P_h, or None where the family
    has no such symmetry.  They are hints: ``qref`` uses one only after it
    holds exactly on the Fourier coefficients of the sampled V.
    """

    family: str
    params: dict
    L: float
    d: int
    M: tuple
    T: float
    K: float
    _fields: callable = field(repr=False)
    _levels: callable = field(repr=False)
    _vectors: callable = field(repr=False)
    _propagator: callable = field(repr=False)
    _float_levels: callable = field(repr=False)
    gap_floor: float
    seam: tuple
    _derivative: callable = field(repr=False, default=None)
    _second_derivative: callable = field(repr=False, default=None)
    _ground_slope: callable = field(repr=False, default=None)
    _float_forms: tuple = field(repr=False, default=None)
    involutions: tuple = field(repr=False, compare=False, default=(None, None))

    def potential(self, X):
        return evaluate_potential(self, X)

    def spec(self):
        return ModelSpec(family=self.family, params=dict(self.params), L=self.L,
                         d=self.d, M=self.M, T=self.T, K=self.K)


def _sym2(a, b, c):
    """Stacked symmetric 2 x 2 matrices [[a, b], [b, c]]; a has the stack shape."""
    out = np.empty(a.shape + (2, 2))
    out[:, 0, 0] = a
    out[:, 0, 1] = b
    out[:, 1, 0] = b
    out[:, 1, 1] = c
    return out


def _reflection(polar, rho_floats):
    """Levels, eigenvectors and propagator of a 2 x 2 V = rho R(theta).

    R(theta) = [[cos theta, sin theta], [sin theta, -cos theta]] has the
    eigenvectors (cos theta/2, sin theta/2) for +1 and (-sin theta/2,
    cos theta/2) for -1 (Golub & Van Loan, Matrix Computations, sec. 8.5),
    so with a signed rho the sorted levels are -|rho| and |rho|, their
    vectors swap where rho < 0, and exp(-i a V) = cos(a rho) I - i sin(a rho) R.
    ``polar`` maps an array X to (rho, d rho/dX, theta), and ``rho_floats``
    a float x to the same (rho, d rho/dX) over Python floats.  Returns the
    family's ``_levels``, ``_vectors``, ``_propagator`` and ``_float_levels``.
    """

    def levels(X):
        rho, drho, _ = polar(X)
        r = np.abs(rho)
        slope = np.sign(rho) * drho
        return np.stack((-r, r), axis=1), np.stack((-slope, slope), axis=1)

    def levels_floats(x):
        rho, drho = rho_floats(x)
        r = abs(rho)
        slope = ((rho > 0.0) - (rho < 0.0)) * drho      # np.sign(rho) * drho
        return (-r, -slope), (r, slope)

    def vectors(X):
        rho, _, theta = polar(X)
        c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
        minus, plus = np.stack((-s, c), axis=1), np.stack((c, s), axis=1)
        swap = (rho < 0.0)[:, None]
        return np.stack((np.where(swap, plus, minus), np.where(swap, minus, plus)), axis=2)

    def propagator(X, rate):
        rho, _, theta = polar(X)
        arg = rate * rho
        sa = np.sin(arg)
        a, b = sa * np.cos(theta), sa * np.sin(theta)
        out = np.zeros(X.shape + (2, 2, 2))     # real and imaginary parts last
        out[:, 0, 0, 0] = out[:, 1, 1, 0] = np.cos(arg)
        out[:, 0, 0, 1] = -a
        out[:, 1, 1, 1] = a
        out[:, 0, 1, 1] = out[:, 1, 0, 1] = -b
        return out.view(complex)[..., 0]

    return dict(_levels=levels, _vectors=vectors, _propagator=propagator,
                _float_levels=levels_floats)


def _spectral_propagator(levels, vectors):
    """exp(-i a V) = Q diag(exp(-i a lambda)) Q^T from the closed-form eigenpairs."""

    def propagator(X, a):
        Q = vectors(X)
        phase = np.exp(-1j * (a[:, None] * levels(X)[0]))
        return (Q * phase[:, None, :]) @ Q.transpose(0, 2, 1)

    return propagator


def _unit_vectors(X):
    return np.ones((X.size, 1, 1))


def _free(params, L, d):
    if d != 1:
        raise ValueError("family 'free' has d = 1")

    def zeros(X, *tail):
        return np.zeros((X.size,) + tail)

    return dict(_fields=lambda X: (zeros(X, 1, 1), zeros(X, 1, 1)),
                _second_derivative=lambda X: zeros(X, 1, 1),
                _levels=lambda X: (zeros(X, 1), zeros(X, 1)), _vectors=_unit_vectors,
                _float_levels=lambda x: ((0.0, 0.0),),
                gap_floor=np.inf, involutions=(np.eye(1), None))


def _scalar_cos(params, L, d):
    if d != 1:
        raise ValueError("family 'scalar_cos' has d = 1")
    a = float(params.get("a", 0.1))
    w = TWO_PI / L

    def derivative(X):
        return (-a * w * np.sin(w * X))[:, None, None]

    def fields(X):
        return (a * np.cos(w * X))[:, None, None], derivative(X)

    def d2pot(X):
        return (-a * w * w * np.cos(w * X))[:, None, None]

    def levels(X):
        wX = w * X
        return (a * np.cos(wX))[:, None], (-a * w * np.sin(wX))[:, None]

    def levels_floats(x):
        wx = w * x
        return (a * math.cos(wx), -a * w * math.sin(wx)),

    # even in X; V(X + L/2) = -V(X) has no level involution
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                _levels=levels, _vectors=_unit_vectors, _float_levels=levels_floats,
                gap_floor=np.inf, involutions=(np.eye(1), None))


def _two_level_gap(params, L, d):
    if d != 2:
        raise ValueError("family 'two_level_gap' has d = 2")
    if abs(L - TWO_PI) > 1e-12:
        raise ValueError("family 'two_level_gap' is defined on L = 2*pi")
    delta = float(params.get("delta", 0.25))
    if delta <= 0.0:
        raise ValueError("two_level_gap requires delta > 0")

    def derivative(X):
        s = np.sin(X)
        return _sym2(-s, 0.0, s)

    def fields(X):
        c = np.cos(X)
        return _sym2(c, delta, -c), derivative(X)

    def d2pot(X):
        c = np.cos(X)
        return _sym2(-c, 0.0, c)

    def polar(X):
        # V = rho R(theta) with rho = hypot(cos X, delta) >= delta > 0
        c = np.cos(X)
        rho = np.hypot(c, delta)
        return rho, -c * np.sin(X) / rho, np.arctan2(delta, c)

    def polar_floats(x):
        c = math.cos(x)
        rho = math.hypot(c, delta)
        return rho, c / rho, delta / rho

    def rho_floats(x):
        # d rho/dX in the operations of ``polar``, not from polar_floats
        c = math.cos(x)
        rho = math.hypot(c, delta)
        return rho, -c * math.sin(x) / rho

    def derivative_floats(x):
        return -math.sin(x), 0.0

    # lambda_1 - lambda_0 = 2 hypot(cos X, delta); V is even in X, and
    # cos(X + pi) = -cos X swaps the diagonal: V(X + pi) = sx V(X) sx
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                gap_floor=2.0 * delta,
                _float_forms=(polar_floats, derivative_floats, rho_floats),
                involutions=(np.eye(2), _SIGMA_X), **_reflection(polar, rho_floats))


def _two_level_cross(params, L, d):
    # V = 2 sin(X/2) R(X/2): eigenvalues +/- 2|sin(X/2)| cross at X = 0 with
    # X-dependent eigenvectors, giving a genuine level crossing.
    if d != 2:
        raise ValueError("family 'two_level_cross' has d = 2")
    if abs(L - TWO_PI) > 1e-12:
        raise ValueError("family 'two_level_cross' is defined on L = 2*pi")

    def fields(X):
        s, c = np.sin(X), np.cos(X)
        return _sym2(s, 1.0 - c, -s), _sym2(c, s, -c)

    def derivative(X):
        s, c = np.sin(X), np.cos(X)
        return _sym2(c, s, -c)

    def d2pot(X):
        s, c = np.sin(X), np.cos(X)
        return _sym2(-s, c, s)

    def polar(X):
        # the signed rho = 2 sin(X/2) needs no division, so every form is
        # exact through the crossing
        half = X / 2.0
        return 2.0 * np.sin(half), np.cos(half), half

    def polar_floats(x):
        half = x / 2.0
        s = math.sin(half)
        return 2.0 * s, math.cos(half), s

    def derivative_floats(x):
        return math.cos(x), math.sin(x)

    def rho_floats(x):
        half = x / 2.0
        return 2.0 * math.sin(half), math.cos(half)

    # rho changes sign at X = L = 0, so the levels swap there; sin(-X) =
    # -sin X swaps the diagonal: V(-X) = sx V(X) sx
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                gap_floor=0.0, seam=(1, 0),
                _float_forms=(polar_floats, derivative_floats, rho_floats),
                involutions=(_SIGMA_X, None), **_reflection(polar, rho_floats))


def _multi_level(params, L, d):
    # Diagonal level profiles lambda_0, lambda_0 + gap_n(X) conjugated by a
    # rotation Q(X) = exp(phi(X) A), A antisymmetric on adjacent levels; the
    # columns of Q are the eigenvectors.
    if d < 2:
        raise ValueError("family 'multi_level' has d >= 2")
    gaps = [tuple(map(float, g)) for g in params.get("gaps", [])]
    if len(gaps) != d - 1:
        raise ValueError("multi_level needs d-1 [mean, amplitude] gap entries")
    a0 = float(params.get("a0", 0.0))
    rot = float(params.get("rot", 0.0))
    w = TWO_PI / L
    A = np.zeros((d, d))
    for n in range(d - 1):
        A[n, n + 1] = 1.0
        A[n + 1, n] = -1.0
    # rotation exponentials from the spectral form of A (cheaper than expm)
    omega, U = np.linalg.eig(A)
    U_inv = np.linalg.inv(U)

    # level n is lambda_0 + g_n + eps_n cos(w X), with g_0 = eps_0 = 0
    g = np.array([0.0] + [gap for gap, _ in gaps])
    eps = np.array([0.0] + [amp for _, amp in gaps])
    rate = -(a0 + eps) * w

    def levels(X):
        wX = w * X
        c, s = np.cos(wX)[:, None], np.sin(wX)[:, None]
        return (a0 * c + g) + eps * c, rate * s

    def ground_slope(X):
        # column 0 of the slopes of ``levels``, without the other levels
        return rate[0] * np.sin(w * X)

    # (g_n, eps_n, rate_n) as Python floats, for the float form
    table = list(zip(g.tolist(), eps.tolist(), rate.tolist()))

    def levels_floats(x):
        wx = w * x
        c, s = math.cos(wx), math.sin(wx)
        return [((a0 * c + gn) + en * c, r * s) for gn, en, r in table]

    def rotation(s):
        """Q = exp(rot sin(w X) A) for the column s of sin(w X)."""
        return ((U * np.exp(rot * s * omega)[:, None, :]) @ U_inv).real

    def fields(X):
        # V and dV/dX share the rotation Q(X), so they are built together
        wX = w * X
        c, s = np.cos(wX)[:, None], np.sin(wX)[:, None]
        Q = rotation(s)
        QT = Q.transpose(0, 2, 1)
        V = (Q * ((a0 * c + g) + eps * c)[:, None, :]) @ QT
        dlam = -a0 * w * s - (eps * w) * s
        dV = (rot * w * c)[:, :, None] * (A @ V - V @ A) + (Q * dlam[:, None, :]) @ QT
        return 0.5 * (V + V.transpose(0, 2, 1)), 0.5 * (dV + dV.transpose(0, 2, 1))

    # the levels must stay ascending for adiabatic labelling; adjacent gaps
    # are linear in cos(w X), so their extremes are at X = 0 and X = L/2
    if np.any(np.diff(levels(np.array([0.0, 0.5 * L]))[0], axis=1) <= 0.0):
        raise ValueError("multi_level gap profiles must be positive and ordered")

    # lambda_1 - lambda_0 = g_1 + eps_1 cos(w X); P = diag(+-1) alternating
    # flips A (P A P = -A), so P Q(X) P = Q(-X) and V(-X) = P V(X) P
    return dict(_fields=fields, _levels=levels, _ground_slope=ground_slope,
                _float_levels=levels_floats,
                _vectors=lambda X: rotation(np.sin(w * X)[:, None]),
                gap_floor=g[1] - abs(eps[1]),
                involutions=(np.diag((-1.0) ** np.arange(d)), None))


_FAMILIES = {
    "free": _free,
    "scalar_cos": _scalar_cos,
    "two_level_gap": _two_level_gap,
    "two_level_cross": _two_level_cross,
    "multi_level": _multi_level,
}


def list_families():
    return sorted(_FAMILIES)


def build_model(spec):
    """Validate a :class:`ModelSpec` and return the runnable :class:`ModelSystem`."""
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; known: {list_families()}")
    # each check is written so that NaN fails it
    if not (np.isfinite(spec.L) and spec.L > 0.0):
        raise ValueError("torus length L must be finite and positive")
    if spec.d < 1:
        raise ValueError("level count d must be >= 1")
    if any(not np.isfinite(v) for v in spec.params.values() if np.isscalar(v)):
        raise ValueError("family parameters must be finite")
    if not all(np.isfinite(m) and m >= 1.0 for m in spec.M):
        raise ValueError("nuclear masses must be finite and >= 1")
    if not (np.isfinite(spec.T) and spec.T >= 0.0):
        raise ValueError("temperature must be finite and >= 0")
    if not (np.isfinite(spec.K) and spec.K > 0.0):
        raise ValueError("friction parameter must be finite and > 0")
    parts = _FAMILIES[spec.family](spec.params, spec.L, spec.d)
    parts["gap_floor"] = float(parts["gap_floor"])
    parts.setdefault("seam", tuple(range(spec.d)))
    parts.setdefault("_propagator", _spectral_propagator(parts["_levels"], parts["_vectors"]))
    return ModelSystem(family=spec.family, params=dict(spec.params), L=spec.L,
                       d=spec.d, M=tuple(spec.M), T=spec.T, K=spec.K, **parts)


def _stacked(fn, X, tail):
    """fn over the points of X (any shape); results have shape X.shape + tail."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return fn(X)
    out = fn(X.reshape(-1))
    if isinstance(out, tuple):
        return tuple(o.reshape(X.shape + tail) for o in out)
    return out.reshape(X.shape + tail)


def potential_and_derivative(model, X):
    """V(X) and dV/dX together, (d, d) each for a scalar X, (n, d, d) for n points."""
    return _stacked(model._fields, X, (model.d, model.d))


def evaluate_potential(model, X):
    """V(X): real symmetric d x d matrices from the family closed form."""
    return potential_and_derivative(model, X)[0]


def potential_derivative(model, X, method="analytic"):
    """dV/dX, analytic by default.

    ``method="fd"`` uses a 4th-order central difference with step 1e-5*L,
    available as an independent code path for cross-checks.
    """
    if method == "analytic":
        if model._derivative is not None:
            return _stacked(model._derivative, X, (model.d, model.d))
        return potential_and_derivative(model, X)[1]
    if method == "fd":
        X = np.asarray(X, dtype=float)
        h = 1e-5 * model.L

        def v(x):
            return evaluate_potential(model, x)

        return (-v(X + 2 * h) + 8.0 * v(X + h) - 8.0 * v(X - h) + v(X - 2 * h)) / (12.0 * h)
    raise ValueError(f"unknown method {method!r}")


def potential_second_derivative(model, X):
    """d2V/dX2, analytic where the family provides it, else 4th-order FD of dV."""
    if model._second_derivative is not None:
        return _stacked(model._second_derivative, X, (model.d, model.d))
    X = np.asarray(X, dtype=float)
    h = 1e-4 * model.L

    def dv(x):
        return potential_derivative(model, x)

    return (-dv(X + 2 * h) + 8.0 * dv(X + h) - 8.0 * dv(X - h) + dv(X - 2 * h)) / (12.0 * h)


def levels_and_slopes(model, X):
    """Ascending eigenvalues of V(X) and their X-derivatives from the family
    closed form: (d,) each for a scalar X, X.shape + (d,) for an array."""
    return _stacked(model._levels, X, (model.d,))


def ground_slope(model, X):
    """The X-derivative of the ground level, the same bits as column 0 of
    :func:`levels_and_slopes`, with the shape of X."""
    if model._ground_slope is None:
        return levels_and_slopes(model, X)[1][..., 0]
    return _stacked(model._ground_slope, X, ())


def eigenvectors(model, X):
    """Unit eigenvectors of V(X) from the family closed form, as the columns
    of a (d, d) matrix for a scalar X or an X.shape + (d, d) stack, in the
    order of :func:`levels_and_slopes`."""
    return _stacked(model._vectors, X, (model.d, model.d))


def electron_propagator(model, X, a):
    """exp(-i a V(X)) from the family closed form, with no eigensolve.

    A scalar X gives one complex (d, d) matrix, an array of points an
    X.shape + (d, d) stack; ``a`` is one rate or one per point.
    """
    X = np.asarray(X, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.shape != X.shape:
        a = np.broadcast_to(a, X.shape)
    if X.ndim == 1:
        return model._propagator(X, a)
    P = model._propagator(X.reshape(-1), a.reshape(-1))
    return P.reshape(X.shape + (model.d, model.d))
