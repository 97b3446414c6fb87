"""Every name the benchmark's span tracer wraps must exist in the package.

``perfbench/tracer.py`` looks functions and methods up by name; a rename
or an inlined helper would otherwise break ``--trace 1`` runs without any
test of this suite noticing (the tracer's own tests are not collected
here). The tracer is loaded from its file and left unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from lineuplab.corpus import ImageGray
from lineuplab.imgfeat.features import image_planes

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module_name, names", [
    (module_name, names) for module_name, (_, names) in tracer.TARGETS.items()
])
def test_every_traced_function_exists(module_name, names):
    module = importlib.import_module(module_name)
    missing = [name for name in names if not inspect.isfunction(getattr(module, name, None))]
    assert missing == []


@pytest.mark.parametrize("module_name, class_name, method, span", tracer.METHODS)
def test_every_traced_method_exists(module_name, class_name, method, span):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert inspect.isfunction(getattr(cls, method, None))


@pytest.mark.parametrize("category", ["lighting", "quality", "noise", "sharpness", "texture"])
def test_category_span_attribute_reads_the_planes_width(category):
    """The tracer reads ``px`` from the argument ``classical_features``
    passes each category function; nothing else reads ``ImagePlanes.width``."""
    img = ImageGray(5, 3, np.zeros((3, 5), dtype=np.uint8))
    attributes = tracer.ATTRIBUTES[f"imgfeat.{category}_features"]
    assert attributes((image_planes(img),), {}, None) == {"px": img.width}


@pytest.mark.parametrize("name", tracer.TARGETS["lineuplab.pipeline"][1])
def test_pipeline_names_are_the_functions_commands_run(name):
    """The tracer wraps ``lineuplab.pipeline``'s names and rebinds each
    wrapper wherever the original is bound, so a command's span exists only
    if the façade re-exports the very function ``cli`` resolves for it (and
    a helper's only if it is the function its stage module defines)."""
    pipeline = importlib.import_module("lineuplab.pipeline")
    cli = importlib.import_module("lineuplab.cli")
    function = getattr(pipeline, name)
    assert getattr(importlib.import_module(function.__module__), name) is function
    for command, (_, _, run) in cli.COMMANDS.items():
        if run == name:
            assert cli.command_function(command) is function


def test_feature_reader_is_the_function_the_predictor_stage_calls():
    """The tracer wraps ``read_feature_csv`` under ``lineuplab.imgfeat.features``
    and rebinds the wrapper wherever the function is bound, so ``train`` and
    ``predict`` record ``imgfeat.read_feature_csv`` spans only if their stage
    calls that very function."""
    features = importlib.import_module("lineuplab.imgfeat.features")
    predictor = importlib.import_module("lineuplab.stages.predictor")
    assert predictor.read_feature_csv is features.read_feature_csv
