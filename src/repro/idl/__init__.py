"""CORBA-IDL-style interface definitions (paper section 3.2).

The deployed system specified every client/server interface in CORBA IDL
and generated C++ stubs.  The Python equivalent here keeps the same
developer workflow (section 9.1): declare an interface, implement a
servant against it, export the object, and call it -- with the same
runtime type identification that object references carry (``type_id``)
and the same subtype relation that lets a ``FileSystemContext`` be used
wherever a ``NamingContext`` is expected.  There is no generated stub: a
call is ``runtime.invoke(ref, "op", args)`` or ``proxy.call("op", ...)``,
checked against the declaration at run time (``InterfaceDef.plan``,
``MethodDef.check_args``); lint rules P004 and P005
(``repro.analysis.protocol``) check what no call fails on.
"""

from repro.idl.errors import IDLError, NoSuchMethod, SignatureError, UnknownInterface
from repro.idl.interface import (
    InterfaceDef,
    MethodDef,
    interface_registry,
    lookup_interface,
    register_interface,
)
from repro.idl.types import estimated_size, register_exception, resolve_exception

__all__ = [
    "IDLError",
    "InterfaceDef",
    "MethodDef",
    "NoSuchMethod",
    "SignatureError",
    "UnknownInterface",
    "estimated_size",
    "interface_registry",
    "lookup_interface",
    "register_exception",
    "register_interface",
    "resolve_exception",
]
