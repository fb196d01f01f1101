"""Finite-level periodic model systems.

Every other module operates on a :class:`ModelSystem`: a d-level real
symmetric potential matrix V(X) on a torus of length L, together with the
nuclear mass, temperature and friction parameters.  Registered families
carry closed forms for V, its X-derivatives, its ascending eigenvalues
with their X-derivatives, and the electron propagator exp(-i a V), evaluated
on whole arrays of X at once: a scalar X gives one (d, d) matrix, an array
of n points an (n, d, d) stack whose entries equal the per-point values bit
for bit.  Each family also declares the level involutions of its V: the
reflection V(-X) = P_r V(X) P_r and the half-period shift
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
    "eigenvalues_closed_form",
    "levels_and_slopes",
    "ground_slope",
    "electron_propagator",
    "list_families",
]

TWO_PI = 2.0 * np.pi
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
    each, and ``_propagator`` (with a second array of n rates a) the complex
    (n, d, d) stack exp(-i a V), all in closed form.  Every family provides
    ``_levels``, and its order must hold at every X without a run-time sort,
    so the ground level and its slope are column 0.  ``gap_floor`` is a
    closed-form lower bound on lambda_1 - lambda_0 over all X (inf for d = 1).
    ``_ground_slope`` gives the ground level's slope alone, (n,), the same
    bits as column 0 of ``_levels`` (None: from ``_levels``).

    ``_float_forms`` is set by the two traceless two-level families, whose V
    and dV/dX are both [[alpha, beta], [beta, -alpha]]: a pair of per-point
    closed forms over Python floats, (x, a) -> (cos(a rho), s alpha_R,
    s beta_R) for exp(-i a V(x)) = cos(a rho) I - i sin(a rho) R with
    s = sin(a rho) and R = [[alpha_R, beta_R], [beta_R, -alpha_R]], and
    x -> (alpha', beta') of dV/dX (None for every other family).

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
    _propagator: callable = field(repr=False)
    gap_floor: float
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


def _pair(a, b):
    """Stacked pairs [a, b]; a has the stack shape."""
    out = np.empty(a.shape + (2,))
    out[:, 0] = a
    out[:, 1] = b
    return out


def _reflection_propagator(c, a, b):
    """Stacked c I - i [[a, b], [b, -a]].

    For a 2 x 2 V = rho R with R^2 = I, exp(-i t V) = cos(t rho) I
    - i sin(t rho) R; c = cos(t rho) and [[a, b], [b, -a]] = sin(t rho) R.
    """
    out = np.zeros(c.shape + (2, 2, 2))     # real and imaginary parts last
    out[:, 0, 0, 0] = c
    out[:, 1, 1, 0] = c
    out[:, 0, 0, 1] = -a
    out[:, 1, 1, 1] = a
    out[:, 0, 1, 1] = out[:, 1, 0, 1] = -b
    return out.view(complex)[..., 0]


def _free(params, L, d):
    if d != 1:
        raise ValueError("family 'free' has d = 1")

    def zeros(X, *tail):
        return np.zeros((X.size,) + tail)

    return dict(_fields=lambda X: (zeros(X, 1, 1), zeros(X, 1, 1)),
                _second_derivative=lambda X: zeros(X, 1, 1),
                _levels=lambda X: (zeros(X, 1), zeros(X, 1)),
                _propagator=lambda X, a: np.ones((X.size, 1, 1), dtype=complex),
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

    def propagator(X, rate):
        return np.exp(-1j * (rate * (a * np.cos(w * X))))[:, None, None]

    # even in X; V(X + L/2) = -V(X) has no level involution
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                _levels=levels, _propagator=propagator, gap_floor=np.inf,
                involutions=(np.eye(1), None))


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

    def levels(X):
        c = np.cos(X)
        r = np.hypot(c, delta)
        slope = c * np.sin(X) / r
        return _pair(-r, r), _pair(slope, -slope)

    def propagator(X, rate):
        # V = rho R with rho = hypot(cos X, delta) >= delta > 0 and R = V / rho
        c = np.cos(X)
        rho = np.hypot(c, delta)
        arg = rate * rho
        f = np.sin(arg) / rho
        return _reflection_propagator(np.cos(arg), f * c, f * delta)

    def propagator_floats(x, rate):
        c = math.cos(x)
        rho = math.hypot(c, delta)
        arg = rate * rho
        f = math.sin(arg) / rho
        return math.cos(arg), f * c, f * delta

    def derivative_floats(x):
        return -math.sin(x), 0.0

    # lambda_1 - lambda_0 = 2 hypot(cos X, delta); V is even in X, and
    # cos(X + pi) = -cos X swaps the diagonal: V(X + pi) = sx V(X) sx
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                _levels=levels, _propagator=propagator, gap_floor=2.0 * delta,
                _float_forms=(propagator_floats, derivative_floats),
                involutions=(np.eye(2), _SIGMA_X))


def _two_level_cross(params, L, d):
    # V = 2 sin(X/2) * reflection(X/2): eigenvalues +/- 2|sin(X/2)| cross at
    # X = 0 with X-dependent eigenvectors, giving a genuine level crossing.
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

    def levels(X):
        s = np.sin(X / 2.0)
        r = 2.0 * np.abs(s)
        slope = np.sign(s) * np.cos(X / 2.0)
        return _pair(-r, r), _pair(-slope, slope)

    def propagator(X, rate):
        # rho = 2 sin(X/2), signed, and R = R(X/2): no division, so the form
        # is exact through the crossing
        s, c = np.sin(X / 2.0), np.cos(X / 2.0)
        arg = rate * (2.0 * s)
        sa = np.sin(arg)
        return _reflection_propagator(np.cos(arg), sa * c, sa * s)

    def propagator_floats(x, rate):
        s, c = math.sin(x / 2.0), math.cos(x / 2.0)
        arg = rate * (2.0 * s)
        sa = math.sin(arg)
        return math.cos(arg), sa * c, sa * s

    def derivative_floats(x):
        return math.cos(x), math.sin(x)

    # sin(-X) = -sin X swaps the diagonal: V(-X) = sx V(X) sx
    return dict(_fields=fields, _derivative=derivative, _second_derivative=d2pot,
                _levels=levels, _propagator=propagator, gap_floor=0.0,
                _float_forms=(propagator_floats, derivative_floats),
                involutions=(_SIGMA_X, None))


def _multi_level(params, L, d):
    # Diagonal level profiles lambda_0, lambda_0 + gap_n(X) conjugated by a
    # rotation exp(phi(X) A), A antisymmetric on adjacent levels.
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

    def propagator(X, a):
        # Q diag(exp(-i a lambda)) Q^T with the rotation Q of ``fields``
        Q = rotation(np.sin(w * X)[:, None])
        phase = np.exp(-1j * (a[:, None] * levels(X)[0]))
        return (Q * phase[:, None, :]) @ Q.transpose(0, 2, 1)

    # the levels must stay ascending for adiabatic labelling; adjacent gaps
    # are linear in cos(w X), so their extremes are at X = 0 and X = L/2
    if np.any(np.diff(levels(np.array([0.0, 0.5 * L]))[0], axis=1) <= 0.0):
        raise ValueError("multi_level gap profiles must be positive and ordered")

    # lambda_1 - lambda_0 = g_1 + eps_1 cos(w X); P = diag(+-1) alternating
    # flips A (P A P = -A), so P Q(X) P = Q(-X) and V(-X) = P V(X) P
    return dict(_fields=fields, _levels=levels, _ground_slope=ground_slope,
                _propagator=propagator, gap_floor=g[1] - abs(eps[1]),
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


def eigenvalues_closed_form(model, X):
    """Ascending eigenvalues of V(X) from the family closed form."""
    return levels_and_slopes(model, X)[0]


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
