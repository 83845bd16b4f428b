"""hatlab: braid rewriting cobordisms, projective hat bounds, curve-class
searches, and branched-cover bookkeeping for transverse knots.

Import what you use from the submodules (``hatlab.braid``,
``hatlab.cobordism``, ...): importing the package itself loads none of
them, so each ``hatlab`` command loads only the modules it runs.
"""

import os
from operator import attrgetter

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
    takes every field, by position or by name, and has no defaults.  A class
    defines its own only to check its fields, or because it is built once
    per search solution, where this slower generic one would show.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name returns the value, not a tuple
            get = lambda record, one=get: (one(record),)
        cls._get = staticmethod(get)  # a record of this class -> its field tuple

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}; "
                            f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self._get(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._get(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default sets each slot with setattr
        return self.__class__, self._get(self)


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


def read_data(*parts: str) -> bytes:
    """The bytes of the package file ``data/<parts>``, read from beside this
    module: hatlab's one way to find its data."""
    with open(os.path.join(os.path.dirname(__file__), "data", *parts), "rb") as fh:
        return fh.read()


def decode(data: bytes, source: str, error: type[HatlabError]) -> str:
    """``data`` decoded as UTF-8; bytes that are not UTF-8 raise ``error``
    naming ``source`` and their offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{source}: not UTF-8 at byte {e.start}: {e.reason}") from e
