"""Leakage-aware qudit simulator and qubit-loss detection/correction toolkit."""

__version__ = "0.1.0"

from .qudit import (DensityOperator, Level, PauliString, PureState, expectation,
                    make_state, apply_unitary, measure_projective, partial_trace)
from .gates import (GateOp, GateKind, Register, addressed_z, collective_rotation,
                    compile_gate, loss_rotation, ms_gate)
from .channels import (ChoiMatrix, NoiseModel, branch_maps, channel_to_choi, depolarize_one,
                       mixing_probability, qnd_noise_mixture)
from .protocol import (CodeDefinition, PauliFrame, RunRecord, analytic_run,
                       code_space_population, detection_sweep, encode, four_qubit_code,
                       frame_update, measure_shrunk_stabilizer, qnd_detect, run_protocol,
                       three_qubit_code)
from .tomography import (ideal_branch_choi, process_fidelity, process_tomography,
                         resample_errors, state_tomography, table_report)
from .lattice import (LossLattice, apply_losses, build_lattice, find_logical,
                      percolation_threshold, reform_stabilizers)
