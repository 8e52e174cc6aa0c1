"""Over-the-air TDD reciprocity calibration: simulation, estimators, CRBs, benchmarks."""

from .model import (
    AntennaPartition,
    ChannelRealization,
    GEOMETRIC,
    GeometryConfig,
    IID_RAYLEIGH,
    RfImpairments,
    gen_channel,
    gen_impairments,
    permute_channel,
)
from .airlink import (
    ALL_ONES,
    IDENTITY,
    MeasurementSet,
    NoncoherentSchedule,
    PilotSet,
    UNIT_PHASE_RANDOM,
    default_pilots,
    noise_variance_from_snr,
    simulate_exchange,
    simulate_noncoherent,
)
from .stacking import (
    StackedSystem,
    build_stacked,
    build_stacked_noncoherent,
    check_identifiability,
)
from .estimators import (
    ConstraintSpec,
    EstimationReport,
    aml_estimate,
    argos_estimate,
    avalanche_estimate,
    daisy_chain_estimate,
    ls_estimate,
    mse,
    normalize_for_constraint,
    rogalin_estimate,
    tree_estimate,
)
from .crb import (
    CrbContext,
    CrbResult,
    context_from_model,
    crb_f,
    crb_f_known_h,
)
from .grouping import (
    GroupScheme,
    custom_scheme,
    make_scheme,
    max_calibratable,
)
from .bench import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    UnidentifiableError,
    cli_main,
    emit_csv,
    parse_config,
    run_experiment,
)
