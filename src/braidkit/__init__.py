"""braidkit: Garside-structure braid arithmetic, conjugacy tools, root extraction.

The main entry points:

* :mod:`braidkit.core` -- simple elements, braid words, left normal forms and
  exact group arithmetic in B_n.
* :mod:`braidkit.conjugacy` -- cycling, cyclic sliding, rigidity, cycling
  orbits and centralizer bases.
* :mod:`braidkit.roots` -- generic-case k-th root extraction with verified
  outcomes.
* :mod:`braidkit.lab` -- reproducible sampling, brute-force lattice oracles,
  genericity experiments and runtime benchmarks.
* :mod:`braidkit.cli` -- the ``braidkit`` command-line tool.

The permutation-level operations on simple braids live in
:mod:`braidkit.kernel`, in pure Python.
"""

from .conjugacy import (
    CentralizerBasis,
    CentralizerCase,
    CentralizerError,
    ConjugationCertificate,
    OrbitData,
    SlidingBoundExceeded,
    centralizer_basis,
    cycling,
    cycling_orbit,
    cyclic_sliding,
    decycling,
    final_factor,
    initial_factor,
    is_rigid,
    is_uss_minimal,
    minimal_simple_elements,
    preferred_prefix,
    slide_to_rigid,
)
from .core import (
    BraidWord,
    CanonicalBraid,
    SimpleElement,
    braid_from_text,
    normalize,
    parse_nf,
    render_nf,
)
from .roots import (
    NonGeneric,
    NoRoot,
    Root,
    RootExtractionError,
    RootOutcome,
    extract_root,
    quick_no_root,
    verify_root,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CanonicalBraid",
    "CentralizerBasis",
    "CentralizerCase",
    "CentralizerError",
    "ConjugationCertificate",
    "NonGeneric",
    "NoRoot",
    "OrbitData",
    "Root",
    "RootExtractionError",
    "RootOutcome",
    "SimpleElement",
    "SlidingBoundExceeded",
    "braid_from_text",
    "centralizer_basis",
    "cycling",
    "cycling_orbit",
    "cyclic_sliding",
    "decycling",
    "extract_root",
    "final_factor",
    "initial_factor",
    "is_rigid",
    "is_uss_minimal",
    "minimal_simple_elements",
    "normalize",
    "parse_nf",
    "preferred_prefix",
    "quick_no_root",
    "render_nf",
    "slide_to_rigid",
    "verify_root",
    "__version__",
]
