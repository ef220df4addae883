"""Action spectra, spectral invariants and Besse/Zoll certificates for
convex contact spheres: exact ellipsoid engines, Conley-Zehnder index
computation by an eigen-angle count, Clarke-dual systole minimization, closed
orbit shooting, and Bott-index bookkeeping for Zoll geodesic flows."""

from .bodies import ConvexBody
from .bott import bott_indices, class_degrees, cohomology_rank, cross_model, zoll_spectral_values
from .certify import besse_by_invariants, besse_sufficient_eh, zoll_by_pinching
from .clarke import FourierLoop, MinimizeConfig, minimize, psi, renormalized_action
from .conley_zehnder import cz_index, cz_nullity, morse_index_from_path, parity
from .dynamics import (
    ClosedOrbit,
    find_closed_orbits,
    integrate_reeb,
    monodromy_and_index,
    numerical_besse_test,
)
from .ellipsoid import (
    Ellipsoid,
    SpectrumEntry,
    SpectrumTable,
    action_spectrum,
    besse_cz_index,
    classify,
    ellipsoid,
    reeb_flow,
    spectral_invariants,
    spectrum_table,
    verify_interleaving,
)
from .symplectic import SymplecticPath, block_compose, rotation_path, standard_J

__version__ = "0.1.0"

__all__ = [
    "ConvexBody",
    "ClosedOrbit",
    "Ellipsoid",
    "FourierLoop",
    "MinimizeConfig",
    "SpectrumEntry",
    "SpectrumTable",
    "SymplecticPath",
    "action_spectrum",
    "besse_by_invariants",
    "besse_cz_index",
    "besse_sufficient_eh",
    "block_compose",
    "bott_indices",
    "class_degrees",
    "classify",
    "cohomology_rank",
    "cross_model",
    "cz_index",
    "cz_nullity",
    "ellipsoid",
    "find_closed_orbits",
    "integrate_reeb",
    "minimize",
    "monodromy_and_index",
    "morse_index_from_path",
    "numerical_besse_test",
    "parity",
    "psi",
    "reeb_flow",
    "renormalized_action",
    "rotation_path",
    "spectral_invariants",
    "spectrum_table",
    "standard_J",
    "verify_interleaving",
    "zoll_by_pinching",
    "zoll_spectral_values",
]
