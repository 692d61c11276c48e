"""Local multifractal analysis of measures and signals on dyadic grids.

The toolkit builds dyadic families (neighborhood masses, oscillations,
wavelet leaders and p-leaders, Birkhoff weights), estimates global and
windowed scaling functions and Legendre spectra, and ships seeded model
generators whose closed-form spectra serve as oracles.
"""

from .builders import (
    BinnedMeasure,
    DigitPotential,
    birkhoff_family,
    measure_family,
    oscillation_family,
    plain_measure_family,
    read_measure,
    write_measure,
)
from .dyadic import (
    DyadicCube,
    DyadicFamily,
    ExponentEstimate,
    Window,
    cube_at,
    lower_exponent,
    neighborhood,
    upper_exponent,
)
from .errors import (
    AnalysisError,
    CoverageError,
    DomainError,
    EmptyWindowError,
    FilterError,
    ModelError,
    OutOfWindowError,
    RadiusError,
    RangeError,
    ScaleError,
    SignalError,
    WindowError,
)
from .estimators import (
    BesovResult,
    FitPolicy,
    GlobalLocalReport,
    LegendreSpectrum,
    LocalProfile,
    MonoHoelderResult,
    ScalingFunction,
    besov_membership,
    discrete_legendre,
    global_from_local_check,
    legendre,
    local_profile,
    monohoelder_detect,
    scaling_function,
    structure_function,
    uniform_exponent,
)
from .synth import (
    MarkovPath,
    ModelSpec,
    OracleSpectrum,
    gen_cantor_pair,
    gen_localized_bernoulli,
    gen_markov_jump,
    gen_mbm,
    oracle,
    synthesize,
)
from .wavelet import (
    FILTERS,
    WaveletPyramid,
    dwt,
    frac_integrate,
    inverse_dwt,
    leaders,
    p_leaders,
    read_signal,
    write_signal,
)

__version__ = "0.1.0"
