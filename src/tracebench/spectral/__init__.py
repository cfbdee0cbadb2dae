from .mesh import OctagonMesh, build_octagon_mesh
from .assemble import AssembledSystem, assemble
from .solve import SpectrumResult, solve_spectrum
from .side import spectral_side, weyl_counting, weyl_window

__all__ = [
    "OctagonMesh",
    "build_octagon_mesh",
    "AssembledSystem",
    "assemble",
    "SpectrumResult",
    "solve_spectrum",
    "spectral_side",
    "weyl_counting",
    "weyl_window",
]
