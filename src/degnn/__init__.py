"""Connectivity-aware graph decomposition with a spectral verification lab.

Library map:
    graphs      graph type, edge-list ingestion, normalization
    linalg      dense-matrix utilities (validation, vec, kron)
    partition   deterministic multilevel k-way partitioner
    decompose   edge decompositions: random, connectivity-aware, spectral
    spectral    one-sided Jacobi svd, closed-form Kronecker-sum spectra
    propagate   layer stacks, regime certificates, linearization, entropy
    train       synthetic node-classification lab with manual gradients
    verify      randomized self-checks for the linear-map identities
    cli         `degnn` command line
"""

__version__ = "0.1.0"
