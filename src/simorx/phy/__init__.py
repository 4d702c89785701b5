from .grid import GridConfig, build_grid, extract_data_res, pilot_values
from .ldpc import LdpcCode, build_code, decode, encode, syndrome
from .modulation import ModulationScheme, get_scheme, qam_map

__all__ = [
    "GridConfig",
    "build_grid",
    "extract_data_res",
    "pilot_values",
    "LdpcCode",
    "build_code",
    "decode",
    "encode",
    "syndrome",
    "ModulationScheme",
    "get_scheme",
    "qam_map",
]
