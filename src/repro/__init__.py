"""repro — a full reproduction of *RiF: Improving Read Performance of Modern
SSDs Using an On-Die Early-Retry Engine* (HPCA 2024).

Layers (bottom-up):

* :mod:`repro.nand` — NAND flash substrate: VTH physics, calibrated RBER
  model, process variation, randomizer, retry tables, behavioural die.
* :mod:`repro.ldpc` — QC-LDPC codec: construction, encoder, min-sum /
  Gallager-B decoders, syndrome pruning + codeword rearrangement,
  capability curves, latency model.
* :mod:`repro.core` — the paper's contribution: the ODEAR engine (RP
  predictor + RVS voltage selector), accuracy evaluation, hardware cost
  model, and functional read paths.
* :mod:`repro.ssd` — discrete-event SSD simulator with seven read-retry
  policies (SSDzero, SSDone, SENC, SWR, SWR+, RPSSD, RiFSSD).
* :mod:`repro.workloads` — trace format, Table-II synthetic generators,
  characterisation.
* :mod:`repro.campaign` — declarative :class:`~repro.campaign.RunSpec`
  grids, serial/process-parallel executors, content-addressed result cache.
* :mod:`repro.experiments` — one module per paper table/figure;
  ``python -m repro experiments --list``.

Quickstart::

    from repro import SSDSimulator, small_test_config, generate

    trace = generate("Ali124", n_requests=1000, user_pages=10_000, seed=1)
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD", pe_cycles=2000)
    result = ssd.run_trace(trace)
    print(result.io_bandwidth_mb_s, "MB/s")
"""

from .campaign import ResultCache, RunSpec, grid_specs, run_specs
from .config import (
    BandwidthConfig,
    EccConfig,
    LdpcCodeConfig,
    NandGeometry,
    NandTimings,
    ReliabilityConfig,
    SSDConfig,
    small_test_config,
)
from .core import (
    OdearEngine,
    ReadRetryPredictor,
    ReadVoltageSelector,
    RpAccuracyModel,
    RpHardwareModel,
)
from .ldpc import MinSumDecoder, QcLdpcCode, SystematicEncoder
from .nand import FlashDie, RberModel, TlcVthModel
from .ssd import PolicyName, SimulationResult, SSDSimulator
from .workloads import Trace, WORKLOADS, generate

__version__ = "1.0.0"

__all__ = [
    "BandwidthConfig",
    "EccConfig",
    "LdpcCodeConfig",
    "NandGeometry",
    "NandTimings",
    "ReliabilityConfig",
    "SSDConfig",
    "small_test_config",
    "OdearEngine",
    "ReadRetryPredictor",
    "ReadVoltageSelector",
    "RpAccuracyModel",
    "RpHardwareModel",
    "MinSumDecoder",
    "QcLdpcCode",
    "SystematicEncoder",
    "FlashDie",
    "RberModel",
    "TlcVthModel",
    "PolicyName",
    "SimulationResult",
    "SSDSimulator",
    "ResultCache",
    "RunSpec",
    "grid_specs",
    "run_specs",
    "Trace",
    "WORKLOADS",
    "generate",
    "__version__",
]
