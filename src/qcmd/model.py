"""Finite-level periodic model systems.

Every other module operates on a :class:`ModelSystem`: a d-level real
symmetric potential matrix V(X) on a torus of length L, together with the
nuclear mass, temperature and friction parameters.  Registered families
carry closed forms for V, its X-derivatives, and its ascending eigenvalues
with their X-derivatives, evaluated on whole arrays of X at once: a scalar
X gives one (d, d) matrix, an array of n points an (n, d, d) stack whose
entries equal the per-point values bit for bit.
"""

import json
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
    "list_families",
]

TWO_PI = 2.0 * np.pi


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
    and dV/dX as (n, d, d) stacks, ``_second_derivative`` the (n, d, d)
    stack of d2V/dX2 (None: finite differences of dV), and ``_levels`` the
    eigenvalues of V in ascending order and their X-derivatives, (n, d)
    each, in closed form.  Every family provides ``_levels``, and its order
    must hold at every X without a run-time sort, so the ground level and
    its slope are column 0.  ``gap_floor`` is a closed-form lower bound on
    lambda_1 - lambda_0 over all X (inf for d = 1).
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
    gap_floor: float
    _second_derivative: callable = field(repr=False, default=None)

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


def _free(params, L, d):
    if d != 1:
        raise ValueError("family 'free' has d = 1")

    def zeros(X, *tail):
        return np.zeros((X.size,) + tail)

    return (lambda X: (zeros(X, 1, 1), zeros(X, 1, 1)),
            lambda X: zeros(X, 1, 1), lambda X: (zeros(X, 1), zeros(X, 1)), np.inf)


def _scalar_cos(params, L, d):
    if d != 1:
        raise ValueError("family 'scalar_cos' has d = 1")
    a = float(params.get("a", 0.1))
    w = TWO_PI / L

    def fields(X):
        wX = w * X
        return (a * np.cos(wX))[:, None, None], (-a * w * np.sin(wX))[:, None, None]

    def d2pot(X):
        return (-a * w * w * np.cos(w * X))[:, None, None]

    def levels(X):
        wX = w * X
        return (a * np.cos(wX))[:, None], (-a * w * np.sin(wX))[:, None]

    return fields, d2pot, levels, np.inf


def _two_level_gap(params, L, d):
    if d != 2:
        raise ValueError("family 'two_level_gap' has d = 2")
    if abs(L - TWO_PI) > 1e-12:
        raise ValueError("family 'two_level_gap' is defined on L = 2*pi")
    delta = float(params.get("delta", 0.25))
    if delta <= 0.0:
        raise ValueError("two_level_gap requires delta > 0")

    def fields(X):
        c, s = np.cos(X), np.sin(X)
        return _sym2(c, delta, -c), _sym2(-s, 0.0, s)

    def d2pot(X):
        c = np.cos(X)
        return _sym2(-c, 0.0, c)

    def levels(X):
        c = np.cos(X)
        r = np.hypot(c, delta)
        slope = c * np.sin(X) / r
        return _pair(-r, r), _pair(slope, -slope)

    # lambda_1 - lambda_0 = 2 hypot(cos X, delta)
    return fields, d2pot, levels, 2.0 * delta


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

    def d2pot(X):
        s, c = np.sin(X), np.cos(X)
        return _sym2(-s, c, s)

    def levels(X):
        s = np.sin(X / 2.0)
        r = 2.0 * np.abs(s)
        slope = np.sign(s) * np.cos(X / 2.0)
        return _pair(-r, r), _pair(-slope, slope)

    return fields, d2pot, levels, 0.0


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

    def fields(X):
        # V and dV/dX share the rotation Q(X), so they are built together
        wX = w * X
        c, s = np.cos(wX)[:, None], np.sin(wX)[:, None]
        Q = ((U * np.exp(rot * s * omega)[:, None, :]) @ U_inv).real
        QT = Q.transpose(0, 2, 1)
        V = (Q * ((a0 * c + g) + eps * c)[:, None, :]) @ QT
        dlam = -a0 * w * s - (eps * w) * s
        dV = (rot * w * c)[:, :, None] * (A @ V - V @ A) + (Q * dlam[:, None, :]) @ QT
        return 0.5 * (V + V.transpose(0, 2, 1)), 0.5 * (dV + dV.transpose(0, 2, 1))

    # the levels must stay ascending for adiabatic labelling; adjacent gaps
    # are linear in cos(w X), so their extremes are at X = 0 and X = L/2
    if np.any(np.diff(levels(np.array([0.0, 0.5 * L]))[0], axis=1) <= 0.0):
        raise ValueError("multi_level gap profiles must be positive and ordered")

    # lambda_1 - lambda_0 = g_1 + eps_1 cos(w X)
    return fields, None, levels, g[1] - abs(eps[1])


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
    if spec.L <= 0.0:
        raise ValueError("torus length L must be positive")
    if spec.d < 1:
        raise ValueError("level count d must be >= 1")
    if any(not np.isfinite(v) for v in spec.params.values() if np.isscalar(v)):
        raise ValueError("family parameters must be finite")
    if any(m < 1.0 for m in spec.M):
        raise ValueError("nuclear masses must be >= 1")
    if spec.T < 0.0:
        raise ValueError("temperature must be >= 0")
    if spec.K <= 0.0:
        raise ValueError("friction parameter must be > 0")
    fields_, d2pot, levels, gap_floor = _FAMILIES[spec.family](spec.params, spec.L, spec.d)
    return ModelSystem(family=spec.family, params=dict(spec.params), L=spec.L,
                       d=spec.d, M=tuple(spec.M), T=spec.T, K=spec.K,
                       _fields=fields_, _levels=levels, gap_floor=float(gap_floor),
                       _second_derivative=d2pot)


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


def eigenvalues_closed_form(model, X):
    """Ascending eigenvalues of V(X) from the family closed form."""
    return levels_and_slopes(model, X)[0]
