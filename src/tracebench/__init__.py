"""tracebench: a numerical workbench for the Selberg trace formula on the
Bolza surface with (possibly non-unitary) twisted boundary representations.

Subpackages:
    fuchsian   group presets, words, length spectrum, conjugacy classes
    reps       finite-dimensional representations and characters
    analysis   Paley-Wiener test functions and the Plancherel identity term
    geomside   geometric (length-spectrum) side of the trace formula
    spectral   octagon FEM: mesh, twisted assembly, eigensolver, spectral side
    workbench  config, persistence, CLI, verification harness
"""

__version__ = "0.1.0"

# A spectrum solve returns at most N_free // TRUST_DIVISOR eigenvalues: the
# upper discrete spectrum of a P1 discretization is not trustworthy.  It is
# defined here, not in `spectral.solve`, so that the config check loads no
# scipy.
TRUST_DIVISOR = 4
