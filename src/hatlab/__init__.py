"""hatlab: braid rewriting cobordisms, projective hat bounds, curve-class
searches, and branched-cover bookkeeping for transverse knots.

Import what you use from the submodules (``hatlab.braid``,
``hatlab.cobordism``, ...): importing the package itself loads none of
them, so each ``hatlab`` command loads only the modules it runs.
"""

__version__ = "0.1.0"


class HatlabError(ValueError):
    """Base of every input error hatlab raises; the CLI turns one into exit 2."""


def read_int(text: str) -> int:
    """Read hatlab's one integer grammar, ASCII ``-?[0-9]+``, used by script
    lines and integer options alike; anything else raises HatlabError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise HatlabError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        raise HatlabError(f"integer of {len(text)} characters is too long to read") from None
