"""The one-sided Jacobi sweep that svd() drives.

jacobi_sweep runs one round-robin sweep on a whole stack of matrices at
once, accumulating V when asked; a single matrix is a stack of one. svd()
looks the name up here at call time.
"""

from degnn._kernels._jacobi_np import jacobi_sweep
