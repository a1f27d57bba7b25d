"""smoothbench: benchmark smoothing methods for wastewater surveillance series.

Importing the package loads numpy, the series types and the smoother catalog.
The evaluation, calibration and pipeline layers load on first attribute
access.  Only ``spl``, and ``gam`` with ``auto_penalty``, load scipy, on their
first call, and then only ``scipy.linalg``.  A benchmark run with a worker
pool runs the two in one worker, so ``scipy.linalg`` loads in that worker
alone, never in the parent.

Importing it before numpy sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set: the benchmark runs one method per worker process, so more BLAS
threads would only oversubscribe the cores.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .smoothers import (  # noqa: E402, F401
    MethodId,
    SmootherSpec,
    apply_smoother,
    default_spec,
    make_spec,
)
from .timeseries import (  # noqa: E402, F401
    MISSING,
    Sample,
    SurveillanceRecord,
    TimeSeries,
    build_series,
    impute_linear,
    percentile,
)


def __getattr__(name):
    # heavier layers are imported lazily so `import smoothbench` stays cheap
    if name in ("evaluate_method", "build_loocv_matrix", "confidence_band"):
        from . import evaluation

        return getattr(evaluation, name)
    if name in ("calibrate", "GaConfig"):
        from . import calibration

        return getattr(calibration, name)
    if name in ("run_benchmark", "PipelineConfig"):
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
