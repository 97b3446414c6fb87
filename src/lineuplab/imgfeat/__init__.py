"""Classical image features: 42 values across six categories, concatenated
with the semantic embedding and standardized.

Category layout (fixed order):
    lighting[6] + quality[7] + noise[5] + sharpness[6] + texture[2] + geometry[16]

The names below are resolved on first use (PEP 562), so importing one
submodule, such as ``standardize`` for the failure predictor or ``table``
for the feature-CSV reader, does not load the image code.
"""

import importlib

# name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys((
        "CLASSICAL_FEATURE_COUNT",
        "CLASSICAL_FEATURE_NAMES",
        "assemble_feature_vector",
        "classical_features",
        "feature_csv_header",
        "lighting_features",
        "noise_features",
        "quality_features",
        "sanitize",
        "sharpness_features",
        "texture_features",
        "write_feature_csv",
    ), "features"),
    "read_feature_csv": "table",
    "GEOMETRY_FEATURE_NAMES": "geometry",
    "geometry_features": "geometry",
    "Standardizer": "standardize",
    "fit_standardizer": "standardize",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{source}"), name)
