"""hatlab: braid rewriting cobordisms, projective hat bounds, curve-class
searches, and branched-cover bookkeeping for transverse knots.

Import what you use from the submodules (``hatlab.braid``,
``hatlab.cobordism``, ...): importing the package itself loads none of
them, so each ``hatlab`` command loads only the modules it runs.
"""

__version__ = "0.1.0"


class HatlabError(ValueError):
    """Base of every input error hatlab raises; the CLI turns one into exit 2."""


class Record:
    """Base of hatlab's immutable value classes.

    A subclass lists its fields, in order, in ``__slots__``.  Two records are
    equal when they are of the same class and their fields are equal; a
    record hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``.  Fields cannot be assigned or deleted once
    ``__init__`` has set them with ``object.__setattr__``.  This ``__init__``
    takes every field, by position or by name; a class with a default, a
    check to run on construction, or many instances per operation defines
    its own, since a generic ``__init__`` is slower to call.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}; "
                            f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default sets each slot with setattr
        return self.__class__, self._values()


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
