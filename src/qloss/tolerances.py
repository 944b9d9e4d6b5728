"""Numerical tolerance constants used across the package.

==================  =======  ==============================================
name                value    used for
==================  =======  ==============================================
ATOL_ALGEBRA        1e-10    unitarity, hermiticity, norm checks, exact
                             analytic identities (stabilizer laws, branch
                             states, reconstruction fidelity)
ATOL_PSD            1e-9     eigenvalue floor for positive-semidefinite
                             checks (density operators, Choi matrices)
ATOL_TRACE          1e-12    trace bookkeeping: branch-probability sums,
                             trace preservation of channels and mixtures
ATOL_LEAK_GUARD     1e-12    leaked-population guard on ancilla qubits
                             before a computational-basis readout
==================  =======  ==============================================
"""

ATOL_ALGEBRA = 1e-10
ATOL_PSD = 1e-9
ATOL_TRACE = 1e-12
ATOL_LEAK_GUARD = 1e-12
