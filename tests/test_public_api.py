import deltalim
from deltalim import ode

# the public names of the package; a change to this list is an API change
PUBLIC_NAMES = [
    "airy", "ode", "potential", "quadrature", "radial3d", "resolvent",
    "resonance",
    "Potential", "ResonanceHit", "ScalingLaw", "LimitDescriptor",
    "KernelEval", "RadialCase",
    "find_resonances", "robin_alpha", "classify_scaling",
    "kernel_scaled", "kernel_reference", "apply_resolvent",
    "estimate_alpha", "convergence_study",
    "classify_3d", "resonance_profile",
    "DeltaLimError", "NonConvergence", "BracketScanTooCoarse",
    "DegenerateProfile", "SingularWronskian", "QuadratureFailure",
    "NotAResonance", "NotResonant", "AiryRangeError",
    "__version__",
]


def test_public_names_are_pinned_and_resolve():
    assert deltalim.__all__ == PUBLIC_NAMES
    missing = [name for name in deltalim.__all__ if not hasattr(deltalim, name)]
    assert missing == []


ODE_NAMES = ["CauchyState", "Trajectory", "ScaledTrajectory", "march",
             "taylor_endpoints", "solve_psi", "solve_uv", "DEFAULT_TOL"]


def test_ode_names_are_pinned_and_resolve():
    assert ode.__all__ == ODE_NAMES
    assert all(hasattr(ode, name) for name in ode.__all__)
