"""Finite-level periodic model systems.

Every other module operates on a :class:`ModelSystem`: a d-level real
symmetric potential matrix V(X) on a torus of length L, together with the
nuclear mass, temperature and friction parameters.  Registered families
carry closed forms for V, its X-derivatives and (where available) its
eigenvalues.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

__all__ = [
    "ModelSpec",
    "ModelSystem",
    "build_model",
    "evaluate_potential",
    "potential_derivative",
    "potential_second_derivative",
    "eigenvalues_closed_form",
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
    """A validated finite-level model; immutable and safe to share."""

    family: str
    params: dict
    L: float
    d: int
    M: tuple
    T: float
    K: float
    _potential: callable = field(repr=False)
    _derivative: callable = field(repr=False)
    _second_derivative: callable = field(repr=False, default=None)
    _eigenvalues: callable = field(repr=False, default=None)

    def potential(self, X):
        return self._potential(float(X))

    def spec(self):
        return ModelSpec(family=self.family, params=dict(self.params), L=self.L,
                         d=self.d, M=self.M, T=self.T, K=self.K)


def _free(params, L, d):
    if d != 1:
        raise ValueError("family 'free' has d = 1")
    zero = np.zeros((1, 1))

    def pot(X):
        return zero.copy()

    return pot, lambda X: zero.copy(), lambda X: zero.copy(), lambda X: np.zeros(1)


def _scalar_cos(params, L, d):
    if d != 1:
        raise ValueError("family 'scalar_cos' has d = 1")
    a = float(params.get("a", 0.1))
    w = TWO_PI / L

    def pot(X):
        return np.array([[a * np.cos(w * X)]])

    def dpot(X):
        return np.array([[-a * w * np.sin(w * X)]])

    def d2pot(X):
        return np.array([[-a * w * w * np.cos(w * X)]])

    return pot, dpot, d2pot, lambda X: np.array([a * np.cos(w * X)])


def _two_level_gap(params, L, d):
    if d != 2:
        raise ValueError("family 'two_level_gap' has d = 2")
    if abs(L - TWO_PI) > 1e-12:
        raise ValueError("family 'two_level_gap' is defined on L = 2*pi")
    delta = float(params.get("delta", 0.25))
    if delta <= 0.0:
        raise ValueError("two_level_gap requires delta > 0")

    def pot(X):
        c = np.cos(X)
        return np.array([[c, delta], [delta, -c]])

    def dpot(X):
        s = np.sin(X)
        return np.array([[-s, 0.0], [0.0, s]])

    def d2pot(X):
        c = np.cos(X)
        return np.array([[-c, 0.0], [0.0, c]])

    def eig(X):
        r = np.hypot(np.cos(X), delta)
        return np.array([-r, r])

    return pot, dpot, d2pot, eig


def _two_level_cross(params, L, d):
    # V = 2 sin(X/2) * reflection(X/2): eigenvalues +/- 2|sin(X/2)| cross at
    # X = 0 with X-dependent eigenvectors, giving a genuine level crossing.
    if d != 2:
        raise ValueError("family 'two_level_cross' has d = 2")
    if abs(L - TWO_PI) > 1e-12:
        raise ValueError("family 'two_level_cross' is defined on L = 2*pi")

    def pot(X):
        s, c = np.sin(X), np.cos(X)
        return np.array([[s, 1.0 - c], [1.0 - c, -s]])

    def dpot(X):
        s, c = np.sin(X), np.cos(X)
        return np.array([[c, s], [s, -c]])

    def d2pot(X):
        s, c = np.sin(X), np.cos(X)
        return np.array([[-s, c], [c, s]])

    def eig(X):
        r = 2.0 * abs(np.sin(X / 2.0))
        return np.array([-r, r])

    return pot, dpot, d2pot, eig


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

    def rotation(phi):
        return (U * np.exp(phi * omega)) @ U_inv

    def levels(X):
        lam0 = a0 * np.cos(w * X)
        lam = [lam0]
        for g, eps in gaps:
            lam.append(lam0 + g + eps * np.cos(w * X))
        return np.array(lam)

    def dlevels(X):
        dlam0 = -a0 * w * np.sin(w * X)
        dl = [dlam0]
        for _, eps in gaps:
            dl.append(dlam0 - eps * w * np.sin(w * X))
        return np.array(dl)

    # a force needs V and dV/dX at the same X, and a recorded energy needs V
    # where the next step starts, so the rotation and V of the last point are
    # kept (one immutable tuple, so threads sharing the model cannot mix frames)
    last = [(None, None, None)]

    def frame(X):
        X_last, Q, V = last[0]
        if X_last != X:
            Q = rotation(rot * np.sin(w * X)).real
            V = (Q * levels(X)) @ Q.T
            last[0] = (X, Q, V)
        return Q, V

    def pot(X):
        _, V = frame(X)
        return 0.5 * (V + V.T)

    def dpot(X):
        Q, V = frame(X)
        dphi = rot * w * np.cos(w * X)
        dV = dphi * (A @ V - V @ A) + (Q * dlevels(X)) @ Q.T
        return 0.5 * (dV + dV.T)

    # gap profiles must stay positive and ordered for adiabatic labelling
    probe = np.linspace(0.0, L, 257)
    lam = np.array([levels(x) for x in probe])
    bar = lam[:, 1:] - lam[:, :1]
    if bar.min() <= 0.0 or np.any(np.diff(lam, axis=1) <= 0.0):
        raise ValueError("multi_level gap profiles must be positive and ordered")

    return pot, dpot, None, levels


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
    pot, dpot, d2pot, eig = _FAMILIES[spec.family](spec.params, spec.L, spec.d)
    return ModelSystem(family=spec.family, params=dict(spec.params), L=spec.L,
                       d=spec.d, M=tuple(spec.M), T=spec.T, K=spec.K,
                       _potential=pot, _derivative=dpot,
                       _second_derivative=d2pot, _eigenvalues=eig)


def evaluate_potential(model, X):
    """V(X): real symmetric d x d matrix from the family closed form."""
    return model._potential(float(X))


def potential_derivative(model, X, method="analytic"):
    """dV/dX, analytic by default.

    ``method="fd"`` uses a 4th-order central difference with step 1e-5*L,
    available as an independent code path for cross-checks.
    """
    X = float(X)
    if method == "analytic":
        return model._derivative(X)
    if method == "fd":
        h = 1e-5 * model.L
        v = model._potential
        return (-v(X + 2 * h) + 8.0 * v(X + h) - 8.0 * v(X - h) + v(X - 2 * h)) / (12.0 * h)
    raise ValueError(f"unknown method {method!r}")


def potential_second_derivative(model, X):
    """d2V/dX2, analytic where the family provides it, else 4th-order FD of dV."""
    X = float(X)
    if model._second_derivative is not None:
        return model._second_derivative(X)
    h = 1e-4 * model.L
    dv = model._derivative
    return (-dv(X + 2 * h) + 8.0 * dv(X + h) - 8.0 * dv(X - h) + dv(X - 2 * h)) / (12.0 * h)


def eigenvalues_closed_form(model, X):
    """Ascending eigenvalues of V(X) from the family closed form, or None."""
    if model._eigenvalues is None:
        return None
    return np.sort(model._eigenvalues(float(X)))
