"""Immutable value classes without ``dataclasses``.

``record`` turns a class whose annotated class attributes are its fields
into a frozen value type, with the behaviour of ``@dataclass(frozen=True)``:

* ``__init__`` takes the fields positionally or by keyword, in annotation
  order, fills defaults from the class attributes, and then runs the
  class's ``__post_init__`` if it has one;
* ``__eq__`` compares the field tuples of two instances of the same class
  and returns ``NotImplemented`` for anything else;
* ``__hash__`` is the hash of the field tuple, the same value a frozen
  dataclass gives, so set and dict orders do not depend on the helper;
* ``__repr__`` reads ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` raise ``AttributeError``.

A method the class defines itself wins, as with ``dataclass``.  A class that
defines ``__eq__`` gets ``__hash__ = None`` from Python itself, so it keeps
its own equality and stays unhashable.  Instances keep a ``__dict__``, which
``functools.cached_property`` and pickling rely on.

Every method is a closure over the field names; no source is generated or
compiled, and importing this module loads nothing beyond ``operator``.  A
class on a hot path may write its own ``__init__``; it must take the fields
in annotation order and store them in the instance ``__dict__``.
"""

from operator import attrgetter

__all__ = ["record", "replace"]


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    if any(name not in defaults for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    if len(names) == 1:
        get = attrgetter(names[0])

        def key(obj):
            return (get(obj),)
    else:
        # attrgetter of two or more names returns the field tuple itself
        key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is frozen")

    post_init = cls.__dict__.get("__post_init__")
    count = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    cls.__record_fields__ = names
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


def _bind(qualname, names, defaults, args, kwargs):
    """The field values, in order, of a call with keywords or defaults."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{qualname}() missing required arguments: {', '.join(map(repr, missing))}")
    return [values[name] if name in values else defaults[name] for name in names]


def replace(obj, **changes):
    """A copy of the record ``obj`` with the named fields changed."""
    names = type(obj).__record_fields__
    unknown = changes.keys() - set(names)
    if unknown:
        raise TypeError(f"{type(obj).__qualname__} has no fields {sorted(unknown)}")
    return type(obj)(*(changes[name] if name in changes else getattr(obj, name) for name in names))
