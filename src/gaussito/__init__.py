"""Numerical verification of a jump-aware stochastic calculus for centered
Gaussian processes with fixed-time discontinuities.

Layers: regulated functions (``regulated``), the adaptive
Stieltjes integrals and the two-variable chain rule (``stieltjes``),
the Gaussian smoothing semigroup with growth-certified test functions
(``heatkernel``), the closed-form process catalog with exact simulation
(``gaussproc``), the deterministic and Monte Carlo verification engines
(``itoverify``), and a scenario CLI (``cli``).
"""

__version__ = "0.1.0"

import types as _types

from .gaussproc import (
    CameronMartinElement,
    DiscontinuityRecord,
    ProcessSpec,
    catalog,
    cm_element,
    cm_inner,
    path_qv_mc,
    planar_qv_sum,
    simulate_paths,
)
from .heatkernel import TestFunction, heat_identity_residual, psi, test_function
from .itoverify import (
    McReport,
    Pairing,
    SimpleWickIntegrand,
    auto_cm_battery,
    f_pairing,
    hermite_p2_identity_mc,
    ito_rcll_residual,
    ito_stransform_residual,
    jump_pairing,
    martingale_ito_mc,
    mc_s_transform,
    simple_skorokhod_mc,
    skorokhod_pairing,
    wick_pairing,
)
from .regulated import Jump, RegulatedFunction
from .stieltjes import ScalarField, chain_rule, integrate_ls, integrate_ys

# the names imported above are the public API
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _types.ModuleType))
