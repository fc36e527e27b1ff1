"""Value classes without `dataclasses`.

`record` gives a class with annotated fields the constructor, equality, hash
and repr that `@dataclass(frozen=True)` would, built from plain closures, so
importing the package neither runs `exec` per class nor loads `dataclasses`
and the `inspect` machinery it imports.  Positional and keyword arguments
and `__post_init__` work as with dataclasses; every field is required (a
value that follows from the others is a property, not a field).
Equality holds only between instances of the same class.  Records refuse
assignment and deletion with AttributeError (`__post_init__` may set a field
through `object.__setattr__`) and hash by their fields, so a record holding a
dict raises TypeError on hashing, as the dict does.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls):
    """Class decorator: `@record` on a class with annotated fields."""
    name = cls.__name__
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(fields)
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*fields)
    values = get if n > 1 else lambda self: (get(self),)

    def fill(self, args, kwargs):
        """Keyword arguments, or a wrong count: the slow path of __init__."""
        if len(args) > n:
            raise TypeError(f"{name}() takes {n} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        self.__dict__.update((f, given[f]) for f in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            fill(self, args, kwargs)
        else:
            self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a frozen {name}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a frozen {name}")

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = fields
    return cls
