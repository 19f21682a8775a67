"""Dense matrix utilities: validation, column-stacking vec, Kronecker product.

Matrices are plain numpy float64 arrays throughout the package. vec uses
column stacking (Fortran order), so vec(A @ Y @ B) == kron(B.T, A) @ vec(Y).
"""

import numpy as np

from degnn.errors import DomainError


def as_matrix(m, name="matrix"):
    """Validate and return a 2-D float64 array with finite entries.

    Accepts anything numpy can coerce. Raises DomainError on wrong rank,
    empty dimensions, or non-finite entries.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DomainError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name="vector"):
    """Validate and return a 1-D float64 array with finite entries."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DomainError(f"{name} must be 1-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def vec(x):
    """Column-stack an n x d matrix into a vector of length n*d.

    Column j occupies entries [j*n, (j+1)*n). Exact (a reshape, no arithmetic).
    """
    x = as_matrix(x, "x")
    return x.reshape(-1, order="F").copy()


def kron(a, b):
    """Kronecker product of an m x n and a k x l matrix: (m*k) x (n*l) blocks a_ij * b."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    # np.kron's own broadcast product, without its axis bookkeeping, which
    # costs several times the product on the small matrices verify builds
    (m, n), (k, l) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, n * l)
