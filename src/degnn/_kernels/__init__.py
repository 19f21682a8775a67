"""The one-sided Jacobi sweep kernels that svd() drives.

jacobi_sweep runs one sweep on a single matrix, accumulating V when asked.
jacobi_sweep_stack runs the same sweep on a whole stack of matrices at once,
singular values only: one numpy call per pair serves every matrix, where the
2-D kernel pays one Python-level step per pair and matrix. svd() looks both
names up here at call time.
"""

from degnn._kernels._jacobi_np import jacobi_sweep, jacobi_sweep_stack
