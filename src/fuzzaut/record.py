"""Frozen value records.

`record` gives a class what the package uses of `@dataclass(frozen=True)`:
construction from positional or keyword arguments with defaults, then
`__post_init__`; equality within one class and a hash over the fields in
order; the dataclass `repr`; `__match_args__`; and no assignment or deletion
of attributes.  The methods are shared by every record class and read the
fields from the class's `__match_args__`, so making a record compiles no code
and imports nothing (`dataclasses` writes each class's methods as source text
for `exec`, and imports `inspect` to do so).
"""

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    """Make cls a frozen record over the fields its own body annotates.

    Only the annotations' names and order are read, so they may be the
    unevaluated strings of `from __future__ import annotations`.  A class
    attribute named like a field is that field's default.  A class without
    `__post_init__` gets one that checks nothing.
    """
    names = tuple(cls.__annotations__)
    cls.__match_args__ = names
    cls._values = attrgetter(*names)
    cls.__init__ = _init
    if not hasattr(cls, "__post_init__"):
        cls.__post_init__ = _no_checks
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


def _init(self, *args, **kwargs):
    names = self.__match_args__
    if kwargs or len(args) != len(names):
        args = _bind(type(self), names, args, kwargs)
    for name, value in zip(names, args):
        _set(self, name, value)
    self.__post_init__()


def _bind(cls, names, args, kwargs):
    """One value per field from the call's arguments and the defaults."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names or name in values:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            try:
                values[name] = getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}") from None
    return [values[name] for name in names]


def _no_checks(self):
    pass


def _eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values(self) == other._values(other)


def _hash(self):
    return hash(self._values(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
