"""SkyByte reproduction: a memory-semantic CXL-SSD simulator.

This package reproduces *SkyByte: Architecting an Efficient
Memory-Semantic CXL-based SSD with OS and Hardware Co-design* (HPCA
2025): the CXL-SSD device model (flash, FTL, GC, DRAM cache), SkyByte's
three mechanisms (coordinated context switch, cacheline write log with
two-level hash indexing, adaptive page migration), the host model
(interval cores, OS scheduler, page table, PLB), the SS VI-H baselines
(TPP, AstriFlash-CXL), the Table I workload models and the experiment
harness regenerating every evaluation figure and table.

Quickstart::

    from repro import run_workload

    base = run_workload("bc", "Base-CSSD", records_per_thread=2000)
    full = run_workload("bc", "SkyByte-Full", records_per_thread=2000)
    print(f"speedup: {full.speedup_over(base):.2f}x")
"""

import importlib

#: The public names, by the module that defines them.  They resolve on
#: first access (PEP 562), so ``import repro`` -- and every ``repro.*``
#: submodule import, such as the numpy-free ``repro job`` client --
#: loads none of the simulator until one of them is used.
_MODULE_EXPORTS = {
    "repro.config": (
        "CACHELINE_SIZE", "CACHELINES_PER_PAGE", "PAGE_SIZE", "FLASH_TIMINGS",
        "CPUConfig", "CXLConfig", "FlashGeometry", "FlashTiming", "OSConfig",
        "SSDConfig", "SimConfig", "SkyByteConfig", "paper_config",
        "scaled_config",
    ),
    "repro.experiments.backends": ("CellPolicy",),
    "repro.experiments.orchestrator": (
        "CellUpdate", "ResultCache", "SweepJob", "run_pairs", "run_sweep",
        "stream_sweep", "sweep_product",
    ),
    "repro.experiments.runner": ("RunResult", "build_config", "run_workload"),
    "repro.sim.stats": ("SimStats",),
    "repro.sim.system": ("System", "run_system"),
    "repro.variants": (
        "DesignVariant", "VARIANTS", "MAIN_VARIANTS", "MIGRATION_VARIANTS",
        "get_variant",
    ),
    "repro.workloads.suites": (
        "TABLE_I", "WORKLOAD_NAMES", "get_model", "get_spec",
        "representative_four",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names}


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
