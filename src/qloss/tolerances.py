"""Numerical tolerance constants used across the package.

==================  =======  ==============================================
name                value    used for
==================  =======  ==============================================
ATOL_ALGEBRA        1e-10    unitarity, imaginary part and range of an
                             expectation, exact analytic identities
                             (stabilizer laws, branch states,
                             reconstruction fidelity)
ATOL_PSD            1e-9     slack on the [0, 1] range of a code-space
                             population before it is clipped
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
