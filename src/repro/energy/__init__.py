"""Energy models.

Two models, mirroring the paper's methodology (section 3):

* :class:`CactiLite` — an analytical, geometry-driven cache energy and
  timing model standing in for Cacti at 0.25 um.  Calibrated once against
  the paper's Table 3 (see :mod:`repro.energy.constants`).
* :class:`WattchLite` — per-event processor energy accounting standing in
  for Wattch, used by the overall-processor experiment (Figure 11).

The cache engines only count events; :mod:`repro.energy.pricing` prices
the counts after a run.

All energies are expressed in "relative energy units" (REU) where the
paper's reference event — one parallel read of the 16K 4-way 32B cache —
costs 1.0.  :data:`NANOJOULE_PER_REU` converts to absolute energy for
readers who want physical units.
"""

from repro.energy.constants import NANOJOULE_PER_REU, TechnologyConstants, TECH_0_25_UM
from repro.energy.cactilite import CacheEnergyModel, CacheTimingModel, CactiLite
from repro.energy.pricing import l1_energy, l1_events, l2_energy
from repro.energy.tables import (
    cam_energy,
    prediction_table_energy,
    PredictionStructureEnergy,
)
from repro.energy.processor import ProcessorEnergyReport, WattchLite, WattchParameters

__all__ = [
    "CacheEnergyModel",
    "CacheTimingModel",
    "CactiLite",
    "NANOJOULE_PER_REU",
    "PredictionStructureEnergy",
    "ProcessorEnergyReport",
    "TECH_0_25_UM",
    "TechnologyConstants",
    "WattchLite",
    "WattchParameters",
    "cam_energy",
    "l1_energy",
    "l1_events",
    "l2_energy",
    "prediction_table_energy",
]
