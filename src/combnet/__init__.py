"""combnet: compact 2.5D hand-pose network with an optimized embedded-style
convolution engine (channel interleaving, kernel packing, comb-decomposed
dilated convolution) and a reference backend that serves as its oracle.
"""

__version__ = "0.1.0"

# BLAS/OpenMP thread-count variables: the CLI pins them before numpy loads,
# and `bench` reports the values in effect.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
