"""Spectral solver for the critical nonlinear Dirac equation on the round
2-sphere, with conversion of nowhere-vanishing solutions into immersed
surfaces of prescribed mean curvature.

The layers, bottom up: ``clifford`` (fiber algebra), ``grid`` /
``spectral`` (quadrature and the exact Dirac eigenbasis), ``conformal``
(charts, bubbles, transport), ``energy`` (curvature fields and functionals),
``reduction`` (saddle-point reduction, Nehari projection, continuation
solver), ``geometry`` (nodal sets, curvature identities, Weierstrass
immersion), and the ``cli`` driver.
"""

__version__ = "0.1.0"

from .conformal import Bubble, StereoChart, bubble_energy_flat, bubble_to_sphere
from .energy import (PolynomialCurvature, Workspace, check_q_hypothesis,
                     constant_curvature, eval_L, eval_rayleigh,
                     spherical_harmonic_curvature)
from .geometry import (ImmersionMesh, nodal_analysis, reconstruct_immersion,
                       scal_identity_check, willmore)
from .grid import QuadratureGrid
from .reduction import (BlowUpDetected, ContinuationResult, StagnationDetected,
                        barycenter, concentration_profile, estimate_tau,
                        nehari_project, reduce_minus, solve_continuation)
from .spectral import (BasisIndex, SphereBasis, SpectralSpinor, dirac_apply,
                       dirac_eigenvalue, dirac_multiplicity, load_spinor,
                       save_spinor, split)

__all__ = [
    "Bubble", "StereoChart", "bubble_energy_flat", "bubble_to_sphere",
    "PolynomialCurvature", "Workspace", "check_q_hypothesis",
    "constant_curvature", "eval_L", "eval_rayleigh",
    "spherical_harmonic_curvature", "ImmersionMesh", "nodal_analysis",
    "reconstruct_immersion", "scal_identity_check", "willmore",
    "QuadratureGrid", "BlowUpDetected", "ContinuationResult",
    "StagnationDetected", "barycenter", "concentration_profile",
    "estimate_tau", "nehari_project", "reduce_minus", "solve_continuation",
    "BasisIndex", "SphereBasis", "SpectralSpinor", "dirac_apply",
    "dirac_eigenvalue", "dirac_multiplicity", "load_spinor", "save_spinor",
    "split",
]
