"""Desk-scale laboratory for quantum-classical dynamics on finite-level models.

Modules: model (potential families), espec (electron spectra), dynamics
(the four integrators), wkb (semiclassical fields), qref (exact grid
eigensolver), gibbs (equilibrium sampling), oscint (oscillatory integrals),
lab (convergence harness), cli (command line).
"""

from . import dynamics, espec, gibbs, lab, model, oscint, qref, wkb
from .errors import (BoundViolationError, CausticError, CrossingError,
                     HittingTimeError, QcmdError, ResolutionError)
from .model import ModelSpec, ModelSystem, build_model

__version__ = "0.6.0"

__all__ = [
    "model", "espec", "dynamics", "wkb", "qref", "gibbs", "oscint", "lab",
    "ModelSpec", "ModelSystem", "build_model",
    "QcmdError", "CausticError", "CrossingError", "ResolutionError",
    "HittingTimeError", "BoundViolationError",
    "__version__",
]
