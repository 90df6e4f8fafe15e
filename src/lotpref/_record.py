"""The base of the package's frozen records.

Every subclass is a dataclass: ``dataclasses.fields``, ``is_dataclass``
and ``replace`` see its annotated fields, and the scenario codec reads
and writes them.  ``@dataclass(frozen=True)`` compiles six methods per
class, each by its own ``exec``, which was about a third of the
package's uncached import.  A record class compiles one source instead,
holding the three methods that run often: ``__init__``, ``__eq__`` and
``__hash__``, spelled as the dataclass ones are, so they cost the same
per call.  A method the class body defines itself is kept, not
compiled.  The repr and the frozen setters are written once here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError


def _add_methods(cls, fields):
    """Compile ``__init__``, ``__eq__`` and ``__hash__`` of a record
    class from one source and set on the class each one its body does
    not define.

    ``__init__`` takes the fields with their defaults, sets each through
    ``object.__setattr__`` and then calls ``__post_init__`` where the
    class has one.  ``__eq__`` holds only within the exact class and
    compares the field tuples; ``__hash__`` is the field tuple's hash.
    A body that defines ``__eq__`` alone gets ``__hash__ = None`` from
    Python, which counts as not defined here.
    """
    namespace = {"_set": object.__setattr__, "__name__": cls.__module__}
    params, body = [], []
    for f in fields:
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set(self, {f.name!r}, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    mine = "".join(f"self.{f.name}," for f in fields)
    theirs = "".join(f"other.{f.name}," for f in fields)
    exec(f"def __init__(self, {', '.join(params)}):\n"
         f"{''.join(body) or '    pass'}\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         "def __hash__(self):\n"
         f"    return hash(({mine}))\n", namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        if cls.__dict__.get(name) is not None:
            continue
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)


class Record:
    """A frozen record: equal only to a record of its exact class with
    equal fields, hashed as the tuple of its fields, shown as
    ``Name(field=value, ...)``, and never assigned after ``__init__``.

    A field is a class annotation, with or without a plain default
    value; ``dataclasses.field`` options are not read.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        _add_methods(cls, dataclasses.fields(cls))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)) + ")"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
