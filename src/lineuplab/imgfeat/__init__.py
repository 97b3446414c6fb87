"""Classical image features: 42 values across six categories, concatenated
with the semantic embedding and standardized.

Category layout (fixed order):
    lighting[6] + quality[7] + noise[5] + sharpness[6] + texture[2] + geometry[16]
"""

from lineuplab.imgfeat.features import (
    CLASSICAL_FEATURE_COUNT,
    CLASSICAL_FEATURE_NAMES,
    assemble_feature_vector,
    classical_features,
    feature_csv_header,
    lighting_features,
    noise_features,
    quality_features,
    read_feature_csv,
    sanitize,
    sharpness_features,
    texture_features,
    write_feature_csv,
)
from lineuplab.imgfeat.geometry import GEOMETRY_FEATURE_NAMES, geometry_features
from lineuplab.imgfeat.standardize import (
    Standardizer,
    fit_standardizer,
)

__all__ = [
    "CLASSICAL_FEATURE_COUNT",
    "CLASSICAL_FEATURE_NAMES",
    "GEOMETRY_FEATURE_NAMES",
    "Standardizer",
    "assemble_feature_vector",
    "classical_features",
    "feature_csv_header",
    "fit_standardizer",
    "geometry_features",
    "lighting_features",
    "noise_features",
    "quality_features",
    "read_feature_csv",
    "sanitize",
    "sharpness_features",
    "texture_features",
    "write_feature_csv",
]
