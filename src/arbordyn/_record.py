"""Plain record classes, and the one rule for writing any value as JSON.

``Record`` supplies the ``__init__``, ``__eq__`` and ``__repr__`` that
``@dataclass`` would write, shared by every record and built without
``exec``, so that defining a record imports nothing (``inspect`` included).
A subclass lists its fields as class annotations, in order; a class-level
value is the field's default, and ``Fresh(list)`` gives each instance a new
list.  ``class P(Record, frozen=True)`` refuses assignment and hashes by its
field tuple; other records are unhashable.

``plain`` decides how every value is written in JSON, and
``Record.to_dict()`` is ``{field: plain(value)}``: what it returns is exactly
what goes into the JSON, so ``json.dumps(x.to_dict())`` never converts a wide
integer to decimal.  This module imports nothing from the package.
"""

from fractions import Fraction

from _json import encode_basestring_ascii as _quote

# Integers wider than this are never converted to decimal: the conversion is
# quadratic, and CPython refuses it past 4300 digits by default.
DECIMAL_SAFE_BITS = 14000


def int_text(v: int) -> str:
    """v in decimal, or as "0x..."/"-0x..." hex when wider than DECIMAL_SAFE_BITS."""
    return hex(v) if v.bit_length() > DECIMAL_SAFE_BITS else str(v)


def fraction_text(x: Fraction) -> str:
    """"num" or "num/den", each part written by int_text."""
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def plain(v):
    """v as JSON data.

    None, bools and strings stay as they are; an int stays an int up
    to DECIMAL_SAFE_BITS and becomes int_text's "0x..." string past it; a
    Fraction becomes fraction_text's string; lists and tuples become lists
    and dicts are copied, with plain applied to every item.  Anything else is
    written as its ``to_dict()``: a record's fields, a quadratic-field element's
    {x, y, s}, and the text of a projective point or of infinity.
    """
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, int):
        return v if v.bit_length() <= DECIMAL_SAFE_BITS else hex(v)
    if isinstance(v, (list, tuple)):
        return [plain(x) for x in v]
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    if isinstance(v, Fraction):
        return fraction_text(v)
    return v.to_dict()


def json_text(v) -> str:
    """What ``json.dumps(v, sort_keys=True, indent=2)`` writes for what ``plain``
    returns: dicts with string keys, lists, strings, ints, bools and None.

    Strings are quoted by json's own C quoting; the pure-Python encoder that
    ``json.dumps`` falls back to whenever it indents is never loaded.  The
    pieces are joined once, so a wide value is copied once, not once per level.
    """
    return "".join(_pieces(v, "\n"))


def _pieces(v, indent: str):
    inner = indent + "  "
    if isinstance(v, dict) and v:
        sep = "{" + inner
        for key, x in sorted(v.items()):
            yield f"{sep}{_quote(key)}: "
            yield from _pieces(x, inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(v, list) and v:
        sep = "[" + inner
        for x in v:
            yield sep
            yield from _pieces(x, inner)
            sep = "," + inner
        yield indent + "]"
    elif isinstance(v, str):
        yield _quote(v)
    elif v is None or isinstance(v, bool):
        yield "null" if v is None else "true" if v else "false"
    elif isinstance(v, int):
        yield int.__repr__(v)
    else:  # an empty dict or list
        yield "{}" if isinstance(v, dict) else "[]"


class Fresh:
    """Default made anew for every instance by calling ``make()``."""

    def __init__(self, make):
        self.make = make


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__annotations__ if n not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = dict(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                default = cls._defaults[name] = cls.__dict__[name]
                if isinstance(default, Fresh):
                    delattr(cls, name)
            elif cls._defaults:
                raise TypeError(f"non-default field {name!r} follows a default field")
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
            cls.__hash__ = _field_hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) == len(names) and not kwargs:
            self.__dict__.update(zip(names, args))
            return
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{cls}() missing required argument {name!r}")
                default = self._defaults[name]
                values[name] = default.make() if isinstance(default, Fresh) else default
        self.__dict__.update((name, values[name]) for name in names)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def to_dict(self) -> dict:
        return {name: plain(self.__dict__[name]) for name in self._fields}

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={_repr(v)}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


def _repr(v) -> str:
    """repr(v), except that integers, also inside a Fraction, a list or a
    tuple, are written by int_text, so a wide one reads "0x..."."""
    if isinstance(v, int):
        return int_text(v)
    if isinstance(v, Fraction):
        return f"Fraction({int_text(v.numerator)}, {int_text(v.denominator)})"
    if isinstance(v, list):
        return f"[{', '.join(map(_repr, v))}]"
    if isinstance(v, tuple):
        return f"({', '.join(map(_repr, v))}{',' if len(v) == 1 else ''})"
    return repr(v)


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _field_hash(self) -> int:
    return hash(self._values())
