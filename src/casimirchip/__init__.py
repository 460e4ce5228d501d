"""Measurement-chain modeling for on-chip Casimir experiments between
superconducting nanobeams: finite-temperature Lifshitz pressure under
competing dielectric models, film characterization from four-point data,
tensioned-beam mechanics, optomechanical readout, and detectability
analysis."""

from .designer import (
    DetectabilityVerdict,
    MaterialPairDifferential,
    StepPressureSignal,
    SweepRow,
    SweepSpec,
    detectability_report,
    run_gap_sweep,
    simulate_temperature_scan,
)
from .errors import (
    CasimirChipError,
    ConfigError,
    DomainError,
    TransitionNotFoundError,
)
from .film import (
    FilmParams,
    RTCurve,
    TcResult,
    coherence_length,
    conductivity_from_four_point,
    extract_tc,
    ingest_rt_table,
    mean_free_path,
    penetration_depth,
)
from .lifshitz import (
    DEFAULT_NUMERICS,
    LifshitzNumerics,
    PressureResult,
    differential_pressure,
    ideal_pressure_closed_form,
    plate_pressure,
    reflection_coefficients,
)
from .config import (
    DeviceConfig,
    example_config_path,
    load_device_config,
    parse_material_spec,
)
from .materials import (
    Drude,
    IdealMetal,
    MaterialModel,
    Plasma,
    SuperconductorTwoFluid,
    eps_imag_freq,
    superfluid_fraction,
)
from .mechanics import (
    BeamMechanicsDerived,
    DeviceGeometry,
    axial_tension,
    deflection_profile,
    derive_mechanics,
    effective_stiffness,
    fundamental_frequency,
    pressure_to_gap_change,
)
from .readout import (
    CavityParams,
    PressureFloor,
    ReadoutCalibration,
    gap_change_to_frequency_shift,
    min_detectable_pressure,
    pdh_voltage,
)

__version__ = "0.1.0"
