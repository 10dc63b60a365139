"""Exact-arithmetic toolkit for recovering functions from dense sequences.

Modules:
  space          exact points, metrics, basic opens, closed sets, good bases
  path           good-basis path and first-return route extraction
  dense_builder  staged dense-sequence construction for closed families
  recover        recovery diagnostics and G-delta witnesses
  rank           separation rank on finite clopen algebras
  ebc1           equi-Baire-class-one gauge and oscillation checks
  gallery        explicit families, prime encoding, ultrametric demo
  cli            deterministic experiment runner

The package re-exports nothing: import names from their modules, as in
`from firstreturn.space import parse_point`.  Importing the package, or
`firstreturn.cli`, loads no other module of it.  The package defines one
name, `Record`, the base of the modules' record classes: it lives here so
that a module using it, such as `rank`, loads no other module.
"""

from operator import attrgetter
from typing import Tuple


class Record:
    """Base of the package's record classes.

    A subclass names its fields in `_fields` and writes its own `__init__`.
    Two records are equal when they are of the same class and their fields
    are equal; the hash is that of the tuple of fields, and `repr` prints
    `Name(field=value, ...)`.  Attributes that are not fields (caches, and
    values derived on construction) take no part in any of these.

    A record that callers change after construction sets `__hash__ = None`.
    The others are values: nothing assigns to their fields once `__init__`
    returns.  That is a convention, not enforced by a `__setattr__`.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # the key is always a tuple, so a one-field record hashes as
        # (value,), not as its value
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"
