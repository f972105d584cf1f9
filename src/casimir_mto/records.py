"""Immutable value records: the package's parameter and result types.

A record class lists its fields as annotations, with optional defaults,
and may check or normalise them in ``__post_init__`` (normalising through
``object.__setattr__``)::

    class Layer(Record):
        thickness: float
        density: float = 1000.0

Construction binds positional and keyword arguments to the fields in
annotation order; a missing, unknown or repeated field is a ``TypeError``.
Fields cannot be assigned or deleted afterwards, and ``repr``, ``==`` and
``hash`` work on the field values in order; ``_fields`` names the fields,
as on a namedtuple. Unlike ``dataclasses``, no methods are generated per
class, so defining a record costs next to nothing at import.
"""

from __future__ import annotations


class Record:
    """Base class of the immutable records; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in vars(cls).get("__annotations__", {})
               if name not in cls._fields]
        defaults = dict(cls._defaults)
        for name in own:
            if name in vars(cls):
                defaults[name] = vars(cls)[name]
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                "follows a field with one")
        cls._fields = (*cls._fields, *own)
        cls._defaults = defaults

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unknown field {name!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() missing field {name!r}")
                    values[name] = cls._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; records without checks keep this."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: "
                             "records are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: "
                             "records are immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
