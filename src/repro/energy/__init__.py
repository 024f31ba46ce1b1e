"""Energy model: DRAM + channel energy for DDR and Ambit (Table 3)."""

from repro.energy.accounting import (
    OP_CLASSES,
    TABLE3_PAPER,
    EnergyRow,
    ambit_op_energy_nj_per_kb,
    format_table3,
    table3_experiment,
)
from repro.energy.applications import (
    WorkloadEnergy,
    ambit_op_energy_nj,
    bitmap_index_query_energy,
)
from repro.energy.power_model import (
    DEFAULT_ENERGY,
    REFERENCE_ROW_BYTES,
    EnergyParameters,
    ddr_op_energy_nj,
    ddr_op_energy_nj_per_kb,
    tally_energy_pj,
    trace_energy_nj,
)

__all__ = [
    "DEFAULT_ENERGY",
    "EnergyParameters",
    "EnergyRow",
    "OP_CLASSES",
    "REFERENCE_ROW_BYTES",
    "TABLE3_PAPER",
    "WorkloadEnergy",
    "ambit_op_energy_nj",
    "ambit_op_energy_nj_per_kb",
    "bitmap_index_query_energy",
    "ddr_op_energy_nj",
    "ddr_op_energy_nj_per_kb",
    "format_table3",
    "table3_experiment",
    "tally_energy_pj",
    "trace_energy_nj",
]
