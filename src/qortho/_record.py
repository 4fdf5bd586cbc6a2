"""One base for the package's record classes: named fields held in ``__slots__``.

A subclass lists its fields, in order, as ``__slots__``, and the default
of each optional field in ``_defaults``.  ``Record`` gives it a
constructor that takes the fields by position or by name, equality
within one class by the fields in order, and a repr that names them.  A
default that is a list or a dict is copied for each instance that is
given None or nothing for it.  ``FrozenRecord`` adds immutability,
hashing by the fields and pickling through the constructor.  Writing
these out, rather than taking them from ``dataclasses``, keeps
``dataclasses`` and ``inspect`` out of the package's imports.
"""


def _constructor(cls):
    """``cls.__init__`` with one parameter per field, compiled once per class.

    Compiled, as ``collections.namedtuple`` compiles its ``__new__``, so it
    binds its arguments and reports a missing or unexpected one as a
    hand-written ``__init__`` does, at that one's cost: one assignment per
    field, through ``object.__setattr__`` on a frozen class.
    """
    defaults = cls._defaults
    frozen = cls.__setattr__ is not object.__setattr__
    assign = "object.__setattr__(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    params, body = ["self"], []
    for name in cls.__slots__:
        if name not in defaults:
            params.append(name)
        elif type(defaults[name]) in (list, dict):
            params.append(f"{name}=None")
            body.append(f"{name} = _defaults[{name!r}].copy() if {name} is None else {name}")
        else:
            params.append(f"{name}=_defaults[{name!r}]")
        body.append(assign.format(name))
    namespace = {"_defaults": defaults}
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__ and "__init__" not in vars(cls):
            cls.__init__ = _constructor(cls)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return (type(self), self._key())
