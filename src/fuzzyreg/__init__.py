"""Matrix regularization of fuzzy surfaces.

Turn Fourier data on a strip into finite Hermitian matrices, blend distinct
cross-section topologies through a string vertex, and check the
semiclassical behavior of the result.
"""
