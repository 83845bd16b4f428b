"""hatlab: braid rewriting cobordisms, projective hat bounds, curve-class
searches, and branched-cover bookkeeping for transverse knots.

Import what you use from the submodules (``hatlab.braid``,
``hatlab.cobordism``, ...): importing the package itself loads none of
them, so each ``hatlab`` command loads only the modules it runs.
"""

__version__ = "0.1.0"


class HatlabError(ValueError):
    """Base of every input error hatlab raises; the CLI turns one into exit 2."""
