"""The one base of the immutable plain value classes.

``dataclasses`` costs an import of ``inspect``, ``ast``, ``dis`` and
``tokenize`` and about 1 ms per class build, more than the rest of the
package takes to import, so the value types do without it: records are
``typing.NamedTuple``s, and ``Polynomial``, ``RootSet`` and
``LatticePolytope``, which keep ``cached_property`` values in an instance
``__dict__`` or have fields a NamedTuple refuses (``_vertices``), derive
from :class:`Frozen`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class Frozen:
    """Value semantics over the fields a subclass lists in ``_fields``:
    ``==`` and ``hash`` compare those fields (instances of another class are
    never equal), ``repr`` shows them, and assigning or deleting any
    attribute raises AttributeError.  ``__init__`` stores the fields in the
    instance ``__dict__`` (``vars(self).update(...)``), and a
    ``cached_property`` still caches, since it writes there directly too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)  # the field values; no binding

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
