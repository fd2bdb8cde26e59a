"""Exact p-adic arithmetic, ladder operators on C(Z_p, Q_p), cyclic
branch dynamics, and the p-adic zeta function evaluated along two
independent paths."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    InputFormatError,
    PadicError,
    PoleError,
    PrecisionExhaustedError,
)
from .padics import (
    DEFAULT_PRECISION,
    PadicNumber,
    angle,
    hensel_digits,
    n_minus,
    teichmuller,
    unit_power,
    vp,
    vp_factorial,
)
from .series import (
    MahlerSeries,
    VanDerPutSeries,
    basis_vector,
    convert,
    convert_back,
    mahler_eval,
    mahler_expand,
    sup_norm,
    sup_norm_exponent,
    vdp_eval,
    vdp_expand,
)
from .operators import (
    OperatorMatrix,
    apply_lowering,
    apply_raising,
    as_matrix,
    commutator_defect,
    hamiltonian,
    kernel_solve,
    matrices_agree,
)
from .galois import (
    Branch,
    GaloisElement,
    GroundState,
    fixed_generator,
    orbit,
    rho_apply,
    rho_prime_apply,
    t_of,
)
from .zeta import (
    MazurMeasure,
    ZetaBranchEval,
    bernoulli,
    default_regulator,
    integrate_units,
    measure_value,
    total_mass,
    zeta_interp,
    zeta_measure,
)

from types import ModuleType as _ModuleType
# the public names above, without the submodules that importing them binds
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
