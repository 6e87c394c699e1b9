"""Wildfire-detection sensor planning and satellite IoT link analysis toolkit."""

from types import ModuleType as _ModuleType

from .errors import FiresatError, NumericError, UnservableLocationError, ValidationError
from .geo import (
    EARTH_RADIUS_KM,
    GEO_ALTITUDE_KM,
    GeoPoint,
    SatelliteConfig,
    elevation_deg,
    great_circle_km,
    slant_range_km,
)
from .grid import FireEvent, GridFrame, RegionGrid
from .fire_model import (
    FireModelParams,
    burned_area_km2,
    p_biomass,
    p_detection,
    p_ignition,
    p_lightning_human,
    p_moisture,
    system_utility,
)
from .placement import (
    Placement,
    biomass_uniform,
    optimize_greedy,
)
from .link_budget import (
    DEFAULT_MCS_TABLE,
    DeviceConfig,
    FadingParams,
    LinkResult,
    McsTable,
    antenna_gain_dbi,
    beam_rolloff_factor,
    fading_params,
    fading_pdf,
    fading_sample,
    fspl_db,
    snr_db,
)
from .capacity import (
    RadioTiming,
    TrafficModel,
    bandwidth_required_hz,
    devices_per_carrier_exception,
    devices_per_carrier_periodic,
    periodic_sessions,
    report_duration_ms,
    spectrum_cost_usd,
    traffic_total_bytes,
)
from .campaign import (
    CampaignResult,
    EconomicsParams,
    run_campaign,
    scatter_sensors,
    simulate_fire,
)
from .config import RunConfig, load_config
from .ingest import ingest_fires, ingest_regions

# Every name imported above, and no submodule.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
